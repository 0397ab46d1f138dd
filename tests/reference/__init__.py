"""Scalar reference implementations and sample-level models (test oracles).

Most modules keep the original one-trial / one-sample / one-slot loop that
a batched path in ``src/repro`` replaced, verbatim: the parity tests and the
speed-gate benches compare the production path against these loops bit for
bit. ``sdr``, ``spectrum``, ``beamformer`` and ``dickson`` are independent
physical models instead -- the USRP array, its spectrum and the Fig. 1
charge pump at sample or carrier resolution -- against which the tests
check the envelope model and Eq. 1. Nothing under ``src/`` imports this
package.
"""
