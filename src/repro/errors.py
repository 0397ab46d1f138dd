"""Exception hierarchy for the IVN reproduction library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed with inconsistent or invalid parameters.

    Also a ``ValueError``, so callers validating arguments catch it the
    same way whichever layer rejected the value.
    """


class ConstraintViolationError(ReproError):
    """A carrier plan violates a CIB communication constraint (Section 3.6)."""


class ProtocolError(ReproError):
    """A Gen2 frame could not be built or parsed."""


class DecodingError(ReproError):
    """A received waveform could not be decoded."""


class CalibrationError(ReproError):
    """An experiment calibration search failed to converge."""


class ChunkExecutionError(ReproError):
    """A Monte-Carlo trial chunk failed in a worker and again on retry.

    Carries the worker-side traceback text so the original failure site is
    visible even though the exception crossed a process boundary.

    Attributes:
        start / count: The failed chunk's trial span.
        worker_traceback: Formatted traceback from the worker process (or
            the in-process retry), empty when unavailable.
    """

    def __init__(
        self,
        message: str,
        start: int = 0,
        count: int = 0,
        worker_traceback: str = "",
    ):
        super().__init__(message)
        self.start = int(start)
        self.count = int(count)
        self.worker_traceback = worker_traceback
