"""Scalar reference implementations (test oracles).

Each module keeps the original one-trial / one-sample / one-slot loop that
a batched path in ``src/repro`` replaced, verbatim: the parity tests and the
speed-gate benches compare the production path against these loops bit for
bit. Nothing under ``src/`` imports this package.
"""
