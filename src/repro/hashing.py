"""Stable short digests of JSON-able values.

The one identity hash behind every cache key, stream seed and config
token in the package (fault plans, fleets, adaptive policies, plan-cache
keys): SHA-256 over canonical JSON with sorted keys, so the digest is
stable across processes, platforms and Python versions. Values JSON
cannot encode fall back to their ``repr``.
"""

import hashlib
import json
from typing import Any


def stable_digest(value: Any, n_hex: int) -> str:
    """First ``n_hex`` hex characters of SHA-256 over ``value``'s sorted-key JSON."""
    canonical = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:n_hex]
