"""Reader-side systems: jamming analysis, out-of-band reader, full link."""

from repro.reader.jamming import JammingEstimate, jamming_at_reader
from repro.reader.out_of_band import OutOfBandReader, ReaderCapture
from repro.reader.link import IvnLink, LinkTrialResult, branch_eirp_w

__all__ = [
    "JammingEstimate",
    "jamming_at_reader",
    "OutOfBandReader",
    "ReaderCapture",
    "IvnLink",
    "LinkTrialResult",
    "branch_eirp_w",
]
