#!/usr/bin/env python
"""Cross-backend kernel conformance suite.

Usage::

    python tools/check_backend_parity.py [BACKEND ...] [--require NAME]

Runs every ported kernel (rectifier integration, hysteresis masks,
multi-period capture, BER block decode), the backend helper primitives
(row scatter-add, integer cumulative max), and the stacked-IFFT scoring
path on each target backend, comparing against the pinned NumPy
reference: NumPy-namespace backends must match **bitwise**; the
off-namespace ``array_api_strict`` backend is held to a tolerance instead
(DESIGN section 15).  The single-precision stacked
path is tolerance-only everywhere but the reference itself: it swaps the
scipy complex64 IFFT for the namespace FFT.

With no arguments every available non-reference backend is checked and
unavailable ones are skipped with a note; ``--require NAME`` turns that
skip into a failure -- how CI insists the ``array_api_strict``
conformance job actually ran rather than silently skipping.  Exit 0 =
every check on every target passed.

Needs ``src`` on ``PYTHONPATH`` (or the package installed); the script
adds the repository's ``src`` directory itself when run from a checkout.
"""

import argparse
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_REPO_SRC = _REPO_ROOT / "src"
if _REPO_SRC.is_dir() and str(_REPO_SRC) not in sys.path:
    sys.path.insert(0, str(_REPO_SRC))

import numpy as np  # noqa: E402

from repro.core.optimizer import (  # noqa: E402
    StackedScoreSpec,
    evaluate_stacked_specs,
)
from repro.kernels import (  # noqa: E402
    BACKEND_CHOICES,
    ber_block,
    capture_batch,
    capture_block,
    get_namespace,
    hysteresis_mask_batch,
    rectifier_batch,
)
from repro.kernels.backend import (  # noqa: E402
    available_backends,
    unavailable_backends,
)
from repro.rf.receiver import (  # noqa: E402
    AnalogToDigitalConverter,
    ReceiveChain,
)

_BER_KWARGS = dict(
    seed=71,
    n_words=10,
    noise_std=1.1,
    samples_per_chip=10,
    miller_orders=(2,),
    averaging_periods=6,
)


def _chain() -> ReceiveChain:
    return ReceiveChain(915e6, adc=AnalogToDigitalConverter())


def _stacked_specs():
    rng = np.random.default_rng(97)
    grid = 512
    scatter = rng.integers(0, grid, size=(3, 4)).astype(np.int64)
    phasors = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(5, 4)))
    return [
        StackedScoreSpec(scatter, phasors, grid, "peak", 0.0, False),
        StackedScoreSpec(scatter, phasors, grid, "conduction", 1.5, False),
        StackedScoreSpec(
            scatter, phasors.astype(np.complex64), grid, "peak", 0.0, True
        ),
    ]


def _checks():
    """(label, fn(backend) -> array-or-scalar, single_precision) triples.

    ``fn`` takes a backend *name or Backend* and returns host-comparable
    output; ``single_precision`` marks outputs that are tolerance-only
    against the reference even on NumPy namespaces (scipy FFT swap).
    """
    rng = np.random.default_rng(83)
    envelopes = np.abs(rng.normal(0.8, 0.5, (12, 600)))
    traces = rng.uniform(0.0, 2.5, (10, 800))
    template = np.tile([1.0, -1.0], 30)
    signals = rng.normal(0.0, 1.0, (4, 60))
    segment_ids = rng.integers(0, 5, size=9)
    values = rng.normal(0.0, 1.0, (9, 7))
    jagged = rng.integers(-50, 50, size=(6, 40))
    specs = _stacked_specs()

    def _capture(backend):
        return capture_batch(
            _chain(),
            template,
            50,
            np.random.default_rng(84),
            jam_amplitude_v=0.3,
            backend=backend,
        )

    def _capture_f32(backend):
        return capture_batch(
            _chain(),
            template.astype(np.float32),
            50,
            np.random.default_rng(84),
            backend=backend,
        )

    def _block(backend):
        rngs = [np.random.default_rng(85 + i) for i in range(len(signals))]
        return capture_block(_chain(), signals, 20, rngs, backend=backend)

    def _scatter(backend):
        be = get_namespace(backend)
        return be.scatter_add_rows(
            (5, values.shape[1]), segment_ids, be.asarray(values)
        )

    def _cummax(backend):
        be = get_namespace(backend)
        return be.cumulative_max_int(be.asarray(jagged))

    def _stacked(single):
        def run(backend):
            chosen = [s for s in specs if s.single == single]
            return np.concatenate(
                [
                    np.asarray(v)
                    for v in evaluate_stacked_specs(chosen, backend=backend)
                ]
            )

        return run

    return [
        ("rectifier f64", lambda b: rectifier_batch(envelopes, 5e-5, backend=b), False),
        (
            "rectifier f32",
            lambda b: rectifier_batch(
                envelopes.astype(np.float32), 5e-5, backend=b
            ),
            False,
        ),
        ("hysteresis f64", lambda b: hysteresis_mask_batch(traces, 1.8, 1.4, backend=b), False),
        (
            "hysteresis f32",
            lambda b: hysteresis_mask_batch(
                traces.astype(np.float32), 1.8, 1.4, backend=b
            ),
            False,
        ),
        ("hysteresis 1-D", lambda b: hysteresis_mask_batch(traces[0], 1.8, 1.4, backend=b), False),
        ("capture jammed", _capture, False),
        ("capture f32", _capture_f32, False),
        ("capture block", _block, False),
        ("ber block", lambda b: ber_block(0, 10, backend=b, **_BER_KWARGS), False),
        ("scatter-add rows", _scatter, False),
        ("cumulative max", _cummax, False),
        ("stacked scoring f64", _stacked(False), False),
        ("stacked scoring f32", _stacked(True), True),
    ]


def _to_host(backend, value):
    if isinstance(value, dict):
        return value
    return get_namespace(backend).to_numpy(value)


def _mismatch(want, got, exact: bool):
    """Human-readable reason the outputs differ, or None if they agree."""
    if isinstance(want, dict) or isinstance(got, dict):
        return None if want == got else f"expected {want}, got {got}"
    want, got = np.asarray(want), np.asarray(got)
    if want.shape != got.shape:
        return f"shape {got.shape} != {want.shape}"
    if exact:
        if want.dtype != got.dtype:
            return f"dtype {got.dtype} != {want.dtype}"
        if np.array_equal(want, got):
            return None
        return "values differ bitwise"
    if np.allclose(
        np.asarray(got, dtype=np.float64),
        np.asarray(want, dtype=np.float64),
        rtol=1e-5,
        atol=1e-8,
    ):
        return None
    return "values differ beyond tolerance"


def check_backend(name: str) -> int:
    """Run every conformance check on one backend; return failure count."""
    be = get_namespace(name)
    failures = 0
    for label, fn, single_precision in _checks():
        want = _to_host("numpy", fn("numpy"))
        got = _to_host(be, fn(be))
        exact = be.is_numpy_namespace and not single_precision
        reason = _mismatch(want, got, exact)
        mode = "bitwise" if exact else "tolerance"
        if reason is None:
            print(f"  ok   {label:<22} ({mode})")
        else:
            failures += 1
            print(f"  FAIL {label:<22} ({mode}): {reason}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "backends",
        nargs="*",
        metavar="BACKEND",
        help="backends to check (default: every available backend except "
        f"the 'numpy' reference; choices: {', '.join(BACKEND_CHOICES)})",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="fail (instead of skipping) when NAME cannot be built -- CI "
        "uses '--require array_api_strict' so the conformance job cannot "
        "silently skip",
    )
    args = parser.parse_args(argv)

    present = available_backends()
    targets = list(args.backends) or [n for n in present if n != "numpy"]
    for name in args.require:
        if name not in targets:
            targets.append(name)

    exit_code = 0
    for name in targets:
        if name not in present:
            reason = unavailable_backends().get(name, "unknown backend")
            if name in args.require:
                print(f"{name}: REQUIRED but unavailable ({reason})")
                exit_code = 1
            else:
                print(f"{name}: skipped ({reason})")
            continue
        print(f"{name}:")
        failed = check_backend(name)
        if failed:
            print(f"{name}: {failed} check(s) FAILED")
            exit_code = 1
        else:
            print(f"{name}: all checks passed")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
