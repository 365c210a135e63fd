"""Deterministic random-number streams.

Every stochastic component (topology placement, per-node backoff,
traffic destinations, ...) draws from its own named stream derived from
a single master seed.  Runs are exactly reproducible from the master
seed alone, and adding a new consumer never perturbs the draws seen by
existing ones — the property that makes A/B comparisons between MAC
schemes on *identical* topologies possible.

Consumers that need exactly one gaussian from each of many names (the
per-pair shadowing of the SINR model) take it through
:meth:`RngRegistry.gauss_once` or, for a whole block of names,
:meth:`RngRegistry.gauss_many`.  The bulk form reproduces CPython's
MT19937 seeding (``init_by_array``) and ``Random.gauss`` vectorised
over names in numpy, bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Iterable, KeysView
from itertools import islice

import numpy as np

__all__ = ["RngRegistry"]

# MT19937 as CPython's _randommodule.c runs it.
_N = 624
_M = 397
_U32 = np.uint32
_MASK32 = 0xFFFFFFFF
_UPPER = _U32(0x80000000)
_LOWER = _U32(0x7FFFFFFF)
_MATRIX_A = _U32(0x9908B0DF)
_TWO_PI = 2.0 * math.pi  # random.TWOPI

#: Seeds per vectorised seeding pass: the pass holds one 624-word state
#: per seed, so a chunk's transient is ~5 MB.
_GAUSS_CHUNK = 2048


def _init_genrand(seed: int) -> list[int]:
    """The state ``init_genrand(seed)`` leaves, as Python ints."""
    mt = [seed]
    for i in range(1, _N):
        prev = mt[-1]
        mt.append((1812433253 * (prev ^ (prev >> 30)) + i) & _MASK32)
    return mt


#: Every ``init_by_array`` starts from this state, whatever the key.
_BASE = [_U32(word) for word in _init_genrand(19650218)]
#: ``-i`` modulo 2**32: the second pass's ``- i`` as an addition.
_MINUS = [_U32(-i & _MASK32) for i in range(_N)]


def _temper(y: np.ndarray) -> np.ndarray:
    y = y ^ (y >> _U32(11))
    y ^= (y << _U32(7)) & _U32(0x9D2C5680)
    y ^= (y << _U32(15)) & _U32(0xEFC60000)
    return y ^ (y >> _U32(18))


def _res53(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``genrand_res53`` of two consecutive outputs (exact in float64)."""
    return ((high >> _U32(5)) * 67108864.0 + (low >> _U32(6))) * (
        1.0 / 9007199254740992.0
    )


def _key_words(seed: int) -> int:
    """32-bit words in ``Random.seed``'s key for a non-negative int."""
    return max(1, (seed.bit_length() + 31) // 32)


def _gaussians_of_key_length(seeds: list[int], words: int) -> list[float]:
    """``[random.Random(s).gauss(0.0, 1.0) for s in seeds]``, bit for bit.

    Every seed must have a ``words``-word key (at most 623 words).
    ``init_by_array`` runs one state row at a time across all seeds;
    only the first four outputs are twisted and tempered, the ones the
    two ``random()`` calls of a fresh ``gauss`` read.  ``log``, ``sqrt``
    and ``cos`` stay per seed in :mod:`math`, as ``Random.gauss`` calls
    them, so no vectorised libm can round differently.
    """
    count = len(seeds)
    # init_key[j] + j, one array per key word.
    keys = [
        np.array([(seed >> (32 * j)) & _MASK32 for seed in seeds], dtype=_U32)
        + _U32(j)
        for j in range(words)
    ]
    rows = list(np.empty((_N, count), dtype=_U32))
    scratch = np.empty(count, dtype=_U32)
    shift, xor, multiply, add = np.right_shift, np.bitwise_xor, np.multiply, np.add
    thirty = _U32(30)

    def step(
        i: int,
        factor: np.uint32,
        old: np.ndarray | np.uint32,
        addend: np.ndarray | np.uint32,
    ) -> None:
        # rows[i] = (old ^ ((rows[i-1] ^ (rows[i-1] >> 30)) * factor)) + addend
        prev, row = rows[i - 1], rows[i]
        shift(prev, thirty, scratch)
        xor(scratch, prev, scratch)
        multiply(scratch, factor, scratch)
        xor(scratch, old, row)
        add(row, addend, row)

    # First pass, N steps from i = 1 adding init_key[j] + j: rows
    # 1..N-1 still hold the base state, then the wrap copies row N-1 to
    # row 0 and step N revisits row 1.
    rows[0].fill(_BASE[0])
    first = _U32(1664525)
    for i in range(1, _N):
        step(i, first, _BASE[i], keys[(i - 1) % words])
    rows[0][:] = rows[_N - 1]
    step(1, first, rows[1], keys[(_N - 1) % words])
    # Second pass, N-1 steps from i = 2 subtracting i, wrapping once
    # more to row 1.
    second = _U32(1566083941)
    for i in range(2, _N):
        step(i, second, rows[i], _MINUS[i])
    rows[0][:] = rows[_N - 1]
    step(1, second, rows[1], _MINUS[1])
    rows[0].fill(_UPPER)
    # The first genrand_uint32 twists the whole state; outputs 0..3
    # need only rows 0..4 and M..M+3 of it.
    outputs = []
    for k in range(4):
        y = (rows[k] & _UPPER) | (rows[k + 1] & _LOWER)
        odd = np.where(y & _U32(1), _MATRIX_A, _U32(0))
        outputs.append(_temper(rows[k + _M] ^ (y >> _U32(1)) ^ odd))
    angles = (_res53(outputs[0], outputs[1]) * _TWO_PI).tolist()
    tails = (1.0 - _res53(outputs[2], outputs[3])).tolist()
    cos, sqrt, log = math.cos, math.sqrt, math.log
    # Random.gauss returns mu + z * sigma; 0.0 + z turns a -0.0 into 0.0.
    return [0.0 + cos(x) * sqrt(-2.0 * log(u)) for x, u in zip(angles, tails)]


def first_gaussians(seeds: list[int]) -> list[float]:
    """``[random.Random(s).gauss(0.0, 1.0) for s in seeds]``, bit for bit.

    For non-negative seeds below ``2**19936``.  Seeds are grouped by
    key length (``Random.seed`` keys one 32-bit word per started 32
    bits, at least one) and seeded in chunks of at most
    ``_GAUSS_CHUNK``.
    """
    words = _key_words(max(seeds, default=0))
    if _key_words(min(seeds, default=0)) == words:
        return [
            value
            for start in range(0, len(seeds), _GAUSS_CHUNK)
            for value in _gaussians_of_key_length(
                seeds[start : start + _GAUSS_CHUNK], words
            )
        ]
    groups: dict[int, list[int]] = {}
    for index, seed in enumerate(seeds):
        groups.setdefault(_key_words(seed), []).append(index)
    values = [0.0] * len(seeds)
    for indices in groups.values():
        drawn = first_gaussians([seeds[i] for i in indices])
        for index, value in zip(indices, drawn):
            values[index] = value
    return values


class RngRegistry:
    """A factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, master_seed: int) -> None:
        if not isinstance(master_seed, int):
            raise TypeError(
                f"master_seed must be an int, got {type(master_seed).__name__}"
            )
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}
        # Reseeded by every gauss_once call; its initial seed is unused.
        self._scratch = random.Random(0)

    def seed_of(self, name: str) -> int:
        """The seed of the stream named ``name``.

        A SHA-256 hash of ``(master_seed, name)``, so that distinct
        names yield statistically independent streams and the mapping
        is stable across Python versions (unlike ``hash``).
        """
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = random.Random(self.seed_of(name))
        return stream

    def stream_names(self) -> KeysView[str]:
        """Names ``stream()`` has handed out, in creation order (a live view)."""
        return self._streams.keys()

    def require_unstreamed(self, name: str) -> None:
        """Raise ``ValueError`` if ``stream(name)`` already handed ``name`` out.

        The guard behind :meth:`gauss_once` and :meth:`gauss_many`: that
        stream's first draw is taken, so a one-shot draw of it — fresh
        or remembered from an earlier registry on the same seed — would
        silently duplicate it.
        """
        if name in self._streams:
            raise ValueError(
                f"stream {name!r} is already in use; a one-shot draw would "
                "repeat its first draw"
            )

    def gauss_once(self, name: str) -> float:
        """The first unit gaussian of stream ``name``, keeping no stream.

        Equal to ``RngRegistry(master_seed).stream(name).gauss(0.0,
        1.0)``, but drawn from one scratch generator that is reseeded
        per call (``Random.seed`` also clears the cached second gaussian,
        so no state leaks between calls).  For consumers that need
        exactly one draw per name across many names — per-pair
        shadowing — where a kept ``random.Random`` per name would cost
        its whole Mersenne Twister state.

        Raises:
            ValueError: ``stream(name)`` already handed the name out
                (see :meth:`require_unstreamed`).
        """
        self.require_unstreamed(name)
        scratch = self._scratch
        scratch.seed(self.seed_of(name))
        return scratch.gauss(0.0, 1.0)

    def gauss_many(self, names: Iterable[str]) -> list[float]:
        """``[self.gauss_once(name) for name in names]``, in bulk passes.

        The MT19937 seeding runs vectorised over up to ``_GAUSS_CHUNK``
        names at a time (:func:`first_gaussians`), so a block of tens
        of thousands of names costs a fraction of the per-name loop,
        with bit-identical values.  ``names`` is consumed one chunk at
        a time, so a generator keeps only a chunk of them alive.

        Raises:
            ValueError: ``stream()`` already handed one of the names out
                (see :meth:`require_unstreamed`); checked per chunk,
                before any of the chunk is drawn.
        """
        streams = self._streams
        seed_of = self.seed_of
        names = iter(names)
        values: list[float] = []
        while chunk := list(islice(names, _GAUSS_CHUNK)):
            if not streams.keys().isdisjoint(chunk):
                for name in chunk:
                    self.require_unstreamed(name)
            values += first_gaussians([seed_of(name) for name in chunk])
        return values

    def spawn(self, name: str) -> "RngRegistry":
        """Derive a child registry (e.g. one per topology replicate)."""
        digest = hashlib.sha256(
            f"{self.master_seed}/child:{name}".encode()
        ).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RngRegistry(master_seed={self.master_seed}, "
            f"streams={sorted(self._streams)})"
        )
