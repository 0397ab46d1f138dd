"""Array-namespace backend registry: portable kernels on array-API namespaces.

Every hot path in this package -- the per-sample kernel chains and the
stacked candidate x draw IFFT scoring -- is bulk array math, which the
`Python array-API standard <https://data-apis.org/array-api/latest/>`_
abstracts over NumPy and ``array-api-strict``. This module is
the seam: a small registry of :class:`Backend` objects, each bundling an
array namespace (``xp``), a device label, dtype plumbing, and a set of
:class:`Capabilities` flags describing the NumPy conveniences the
namespace supports (ufunc ``out=``/``where=`` kwargs, ``ufunc.at`` /
``ufunc.accumulate`` methods, integer fancy-index assignment). Kernels
branch on the flags, never on backend names, so a new namespace only
needs a registry entry.

Contracts:

* ``"numpy"`` is the **pinned bitwise reference**: with it selected (the
  default), every ported kernel executes the exact pre-port NumPy code
  path, so the repository's batched == scalar parity pins keep holding
  bit for bit.
* ``"numpy_portable"`` is NumPy's namespace with every capability flag
  off. It exists so the portable (array-API-clean) branches run under
  plain pytest with no optional dependency installed -- the conformance
  suite pins them bitwise-or-tolerance against the reference, per kernel.
* ``"array_api_strict"`` is available when the package is installed;
  cross-backend comparisons are tolerance-checked (different FFT
  implementations, different reduction associativity).

Randomness is deliberately **not** portable: every kernel keeps drawing
from ``numpy.random.Generator`` streams (the worker-invariance and
fault-injection contracts are keyed to them) and ships the draws to the
device with :meth:`Backend.asarray`. See DESIGN section 15 for the full
portability rules and the list of paths that stay NumPy-only.

Selection: :func:`set_default_backend` (exported as the CLI's
``--backend``), the ``REPRO_BACKEND`` environment variable (inherited by
spawned worker processes), or the :func:`use_backend` context manager.
:func:`get_namespace` resolves a name, an array, a :class:`Backend`, or
``None`` (the default) to a registry entry.
"""

import contextlib
import math
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

ENV_VAR = "REPRO_BACKEND"
"""Environment variable naming the default backend (worker-inheritable)."""

BACKEND_CHOICES = ("numpy", "numpy_portable", "array_api_strict")
"""Registry names, in the order the CLI advertises them."""


@dataclass(frozen=True)
class Capabilities:
    """NumPy conveniences a namespace supports beyond the array API.

    Attributes:
        inplace_out: ufunc ``out=`` / ``where=`` keyword support; gates
            the buffer-reusing step loops.
        ufunc_at: ``ufunc.at`` / ``ufunc.accumulate`` methods; gates the
            ordered scatter-add and forward-fill fast paths.
        index_update: integer-array ``__setitem__``; gates in-namespace
            sparse-spectrum scatter (otherwise spectra are staged in
            NumPy and shipped with :meth:`Backend.asarray`).
    """

    inplace_out: bool
    ufunc_at: bool
    index_update: bool


REFERENCE_CAPS = Capabilities(
    inplace_out=True, ufunc_at=True, index_update=True
)
PORTABLE_CAPS = Capabilities(
    inplace_out=False, ufunc_at=False, index_update=False
)


class Backend:
    """One array namespace plus the plumbing the kernels need around it.

    Attributes:
        name: Registry name (``"numpy"``, ``"array_api_strict"``, ...).
        xp: The array namespace module/object.
        caps: The namespace's :class:`Capabilities`.
        device: Human-readable device label (``"cpu"``).
    """

    def __init__(
        self,
        name: str,
        xp: Any,
        caps: Capabilities,
        device: str = "cpu",
        module_roots: Tuple[str, ...] = ("numpy",),
    ):
        self.name = name
        self.xp = xp
        self.caps = caps
        self.device = device
        self._module_roots = module_roots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Backend({self.name!r}, device={self.device!r})"

    @property
    def is_reference(self) -> bool:
        """True only for the pinned bitwise-reference NumPy backend."""
        return self.name == "numpy"

    @property
    def is_numpy_namespace(self) -> bool:
        """True when ``xp`` is NumPy itself (reference or portable)."""
        return self.xp is np

    # -- array movement -----------------------------------------------------

    def asarray(self, values, dtype=None):
        """Build/convert an array in this namespace (host -> device)."""
        if self.is_numpy_namespace:
            return np.asarray(values, dtype=dtype)
        if not isinstance(values, np.ndarray):
            values = np.asarray(values)
        kwargs = {} if dtype is None else {"dtype": dtype}
        return self.xp.asarray(values, **kwargs)

    def owns(self, array) -> bool:
        """True when ``array`` already lives in this namespace."""
        if self.is_numpy_namespace:
            return isinstance(array, np.ndarray)
        module = type(array).__module__ or ""
        return module.split(".")[0] in self._module_roots

    def ensure(self, values):
        """``values`` as a namespace array: pass-through when already one."""
        if self.owns(values):
            return values
        return self.asarray(values)

    def to_numpy(self, array) -> np.ndarray:
        """Materialize a namespace array as a NumPy array (device -> host)."""
        if isinstance(array, np.ndarray):
            return array
        try:
            return np.asarray(array)
        except (TypeError, ValueError):
            return np.from_dlpack(array)

    # -- dtype plumbing -----------------------------------------------------

    def result_real_dtype(self, *arrays):
        """The real floating dtype the kernel chain should compute in.

        Single precision only when *every* floating/complex input is
        32-bit -- mixing a float64 input anywhere promotes the whole
        chain, mirroring NumPy's own promotion. Integer/bool inputs do
        not opt the chain into single precision.
        """
        single = False
        for array in arrays:
            dtype = getattr(array, "dtype", None)
            if dtype is None:
                continue
            try:
                np_dtype = np.dtype(str(dtype))
            except TypeError:  # non-numpy dtype objects (array_api_strict)
                continue
            if np_dtype.kind not in "fc":
                continue
            if np_dtype in (np.float32, np.complex64):
                single = True
            else:
                return self.xp.float64
        return self.xp.float32 if single else self.xp.float64

    def complex_for(self, real_dtype):
        """The complex dtype matching a real floating dtype."""
        if np.dtype(str(real_dtype)) == np.float32:
            return self.xp.complex64
        return self.xp.complex128

    # -- scatter helpers ----------------------------------------------------

    def scatter_add_rows(self, shape, segment_ids, values):
        """Ordered segment-sum: ``out[segment_ids[k]] += values[k]``.

        On namespaces with ``ufunc.at`` this is ``np.add.at``, whose
        repeated-index additions apply sequentially in ``k`` order -- the
        property the fleet resolver's bitwise parity against its per-tag
        reference loop rests on. The portable equivalent is a one-hot
        matmul (array-API clean, GPU friendly); its per-row association
        differs, so it is tolerance-equal, which is exactly the
        cross-backend contract.

        Args:
            shape: ``(n_segments, T)`` output shape.
            segment_ids: ``(K,)`` integer target rows.
            values: ``(K, T)`` addend rows (namespace array).

        Returns:
            ``(n_segments, T)`` accumulated array in this namespace.
        """
        xp = self.xp
        if self.caps.ufunc_at:
            out = xp.zeros(shape, dtype=values.dtype)
            xp.add.at(out, segment_ids, values)
            return out
        n_segments = int(shape[0])
        ids = self.asarray(segment_ids, dtype=xp.int64)
        onehot = xp.astype(
            xp.reshape(xp.arange(n_segments), (-1, 1)) == ids[None, :],
            values.dtype,
        )
        return xp.matmul(onehot, values)

    def cumulative_max_int(self, values):
        """Row-wise running maximum of an integer ``(B, T)`` array.

        ``np.maximum.accumulate`` where the namespace has ufunc methods;
        otherwise a log-steps doubling scan built from ``maximum`` +
        ``concat``. Maximum is associative and these are integers, so the
        two forms are exactly identical.
        """
        xp = self.xp
        if self.caps.ufunc_at:
            return np.maximum.accumulate(values, axis=1)
        n_cols = values.shape[1]
        filled = values
        offset = 1
        while offset < n_cols:
            pad = xp.full(
                (values.shape[0], offset),
                _int_min_of(xp, values.dtype),
                dtype=values.dtype,
            )
            shifted = xp.concat([pad, filled[:, : n_cols - offset]], axis=1)
            filled = xp.maximum(filled, shifted)
            offset *= 2
        return filled

    def size(self, array) -> int:
        """Element count as a plain int (portable ``array.size``)."""
        return int(math.prod(array.shape))


def _int_min_of(xp, dtype):
    """A very negative fill value of ``dtype`` (identity for maximum)."""
    return int(np.iinfo(np.dtype(str(dtype))).min)


# -- registry ---------------------------------------------------------------

_BUILT: Dict[str, Backend] = {}
_UNAVAILABLE: Dict[str, str] = {}
_DEFAULT: Optional[Backend] = None


def _build_numpy() -> Backend:
    return Backend("numpy", np, REFERENCE_CAPS, device="cpu")


def _build_numpy_portable() -> Backend:
    return Backend("numpy_portable", np, PORTABLE_CAPS, device="cpu")


def _build_array_api_strict() -> Backend:
    import array_api_strict

    return Backend(
        "array_api_strict",
        array_api_strict,
        PORTABLE_CAPS,
        device="cpu",
        module_roots=("array_api_strict",),
    )


_FACTORIES = {
    "numpy": _build_numpy,
    "numpy_portable": _build_numpy_portable,
    "array_api_strict": _build_array_api_strict,
}


def _backend_by_name(name: str) -> Backend:
    if name in _BUILT:
        return _BUILT[name]
    if name not in _FACTORIES:
        raise ConfigurationError(
            f"unknown backend {name!r}; choices: {', '.join(BACKEND_CHOICES)}"
        )
    if name in _UNAVAILABLE:
        raise ConfigurationError(
            f"backend {name!r} is not available here ({_UNAVAILABLE[name]})"
        )
    try:
        backend = _FACTORIES[name]()
    except Exception as exc:
        _UNAVAILABLE[name] = f"{type(exc).__name__}: {exc}"
        raise ConfigurationError(
            f"backend {name!r} is not available here ({_UNAVAILABLE[name]})"
        ) from exc
    _BUILT[name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Names of the backends that construct on this machine."""
    names = []
    for name in BACKEND_CHOICES:
        try:
            _backend_by_name(name)
        except ConfigurationError:
            continue
        names.append(name)
    return tuple(names)


def unavailable_backends() -> Dict[str, str]:
    """Probe failures recorded so far (name -> reason), for diagnostics."""
    return dict(_UNAVAILABLE)


def default_backend() -> Backend:
    """The process-wide default backend.

    Resolution order: :func:`set_default_backend` in this process, the
    ``REPRO_BACKEND`` environment variable (how CLI selections reach
    spawned worker processes), then ``"numpy"``.
    """
    global _DEFAULT
    if _DEFAULT is not None:
        return _DEFAULT
    env_name = os.environ.get(ENV_VAR)
    if env_name:
        _DEFAULT = _backend_by_name(env_name)
    else:
        _DEFAULT = _backend_by_name("numpy")
    return _DEFAULT


def set_default_backend(name: Optional[str]) -> Backend:
    """Select the process-wide default backend by name.

    Also exports :data:`ENV_VAR` so worker processes spawned after the
    call (forkserver/spawn inherit the environment) resolve the same
    default. ``None`` resets to the environment/NumPy resolution.
    """
    global _DEFAULT
    if name is None:
        _DEFAULT = None
        os.environ.pop(ENV_VAR, None)
        return default_backend()
    backend = _backend_by_name(name)
    _DEFAULT = backend
    os.environ[ENV_VAR] = name
    return backend


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[Backend]:
    """Scoped :func:`set_default_backend` (restores the previous default)."""
    global _DEFAULT
    previous, previous_env = _DEFAULT, os.environ.get(ENV_VAR)
    backend = set_default_backend(name)
    try:
        yield backend
    finally:
        _DEFAULT = previous
        if previous_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous_env


def get_namespace(obj: Any = None) -> Backend:
    """Resolve ``obj`` to a :class:`Backend`.

    Accepts a backend name, an existing :class:`Backend`, an array from
    any registered namespace, or ``None`` for the process default.
    """
    if obj is None:
        return default_backend()
    if isinstance(obj, Backend):
        return obj
    if isinstance(obj, str):
        return _backend_by_name(obj)
    if isinstance(obj, np.ndarray) or np.isscalar(obj):
        return default_backend() if default_backend().is_numpy_namespace else (
            _backend_by_name("numpy")
        )
    module = type(obj).__module__ or ""
    root = module.split(".")[0]
    if root == "array_api_strict":
        return _backend_by_name("array_api_strict")
    raise ConfigurationError(
        f"cannot infer an array backend from {type(obj).__name__!r}"
    )
