"""Deterministic random-number streams.

Every stochastic component (topology placement, per-node backoff,
traffic destinations, ...) draws from its own named stream derived from
a single master seed.  Runs are exactly reproducible from the master
seed alone, and adding a new consumer never perturbs the draws seen by
existing ones — the property that makes A/B comparisons between MAC
schemes on *identical* topologies possible.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RngRegistry"]


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

    def require_unstreamed(self, name: str) -> None:
        """Raise ``ValueError`` if ``stream(name)`` already handed ``name`` out.

        The guard behind :meth:`gauss_once`: that stream's first draw is
        taken, so a one-shot draw of it — fresh or remembered from an
        earlier registry on the same seed — would silently duplicate it.
        """
        if name in self._streams:
            raise ValueError(
                f"stream {name!r} is already in use; gauss_once would "
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
