"""Seeded monte-carlo drivers.

Every randomized component in the library takes an explicit
``numpy.random.Generator``; these helpers fan a single experiment seed out
into independent per-trial generators so that experiments are reproducible
and trials are statistically independent.
"""

import operator
from typing import Iterable, Iterator, List, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def spawn_rngs(
    seed: int, count: int, start: int = 0
) -> List[np.random.Generator]:
    """Generators ``start .. start + count - 1`` of the ones ``seed`` spawns.

    Child ``i`` is ``SeedSequence(seed, spawn_key=(i,))``, exactly what
    ``SeedSequence(seed).spawn(n)[i]`` builds, so a chunk of trials gets
    the generators of the full list's slice without building the rest.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for i in range(start, start + count)
    ]


# numpy.random.SeedSequence's hash: its documented constants and a pool of
# four 32-bit words (the default ``pool_size``).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _int_words(value: int) -> List[int]:
    """The little-endian 32-bit words SeedSequence splits an int into."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _seed_states(entropy: list) -> List:
    """``SeedSequence(entropy).generate_state(8, uint32)``, word by word.

    Each entropy word is an int (the same for every key) or a ``uint64``
    array (one value per key). The operators are the same for both, so
    the words before the first key column hash once as plain ints and
    only what follows runs over arrays; every product of two 32-bit words
    fits in 64 bits and is masked back to 32.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    pool = [
        hashmix(entropy[i] if i < len(entropy) else 0)
        for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    state_const = _INIT_B
    words = []
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ state_const
        state_const = (state_const * _MULT_B) & _MASK32
        value = (value * state_const) & _MASK32
        words.append(value ^ (value >> _XSHIFT))
    return words


class _FixedSeed(ISeedSequence):
    """Hands ``PCG64`` a seed state computed ahead of time.

    ``PCG64`` seeds itself with one ``generate_state(4, uint64)`` call,
    which gets the precomputed row.
    """

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


def iter_keyed_rngs(
    prefix: Sequence[int], keys: Iterable[int], suffix: Sequence[int] = ()
) -> Iterator[np.random.Generator]:
    """Lazy form of :func:`keyed_rngs`: each generator is built on demand.

    The seed states of all keys are hashed up front (so a negative key
    raises here, as ``SeedSequence`` does), which lets a caller draw from
    one generator and drop it before building the next.
    """
    keys = [operator.index(k) for k in keys]
    if keys and min(keys) < 0:
        raise ValueError("expected non-negative integer")
    head = [word for value in prefix for word in _int_words(value)]
    tail = [word for value in suffix for word in _int_words(value)]
    widths = [max(1, -(-key.bit_length() // 32)) for key in keys]
    states = np.empty((len(keys), _POOL_SIZE), dtype=np.uint64)
    # Keys of different word counts hash entropy of different lengths.
    for width in sorted(set(widths)):
        rows = [row for row, w in enumerate(widths) if w == width]
        columns = [
            np.array(
                [(keys[row] >> (32 * j)) & _MASK32 for row in rows],
                dtype=np.uint64,
            )
            for j in range(width)
        ]
        words = _seed_states(head + columns + tail)
        # generate_state(4, uint64) pairs the words little-endian.
        for j in range(_POOL_SIZE):
            states[rows, j] = words[2 * j] | (words[2 * j + 1] << 32)
    return (
        np.random.Generator(np.random.PCG64(_FixedSeed(state)))
        for state in states
    )


def keyed_rngs(
    prefix: Sequence[int], keys: Iterable[int], suffix: Sequence[int] = ()
) -> List[np.random.Generator]:
    """One generator per key, seeded by ``SeedSequence([*prefix, k, *suffix])``.

    Bit-identical to ``[default_rng(SeedSequence([*prefix, k, *suffix]))
    for k in keys]`` -- same generator states and draws -- but the
    SeedSequence hash runs once over all keys as array arithmetic instead
    of once per key.
    """
    return list(iter_keyed_rngs(prefix, keys, suffix))
