"""Tests for deterministic random streams."""

import hashlib
import random as random_module

import pytest

from repro.dessim import RngRegistry
from repro.dessim.rng import _GAUSS_CHUNK, first_gaussians


class TestRngRegistry:
    def test_same_seed_same_draws(self):
        a = RngRegistry(42).stream("backoff")
        b = RngRegistry(42).stream("backoff")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("backoff")
        b = RngRegistry(2).stream("backoff")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        reg = RngRegistry(7)
        a = reg.stream("topology")
        b = reg.stream("traffic")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_is_cached(self):
        reg = RngRegistry(7)
        assert reg.stream("x") is reg.stream("x")

    def test_new_stream_does_not_perturb_existing(self):
        # Draw interleaved with creating unrelated streams; the sequence
        # must equal an uninterrupted run.
        ref_stream = RngRegistry(9).stream("a")
        ref = [ref_stream.random() for _ in range(4)]
        reg = RngRegistry(9)
        stream = reg.stream("a")
        values = [stream.random(), stream.random()]
        reg.stream("unrelated-1")
        reg.stream("unrelated-2")
        values += [stream.random(), stream.random()]
        assert values == ref

    def test_spawn_children_are_independent(self):
        parent = RngRegistry(3)
        child_a = parent.spawn("topo-0")
        child_b = parent.spawn("topo-1")
        assert child_a.master_seed != child_b.master_seed
        va = child_a.stream("place").random()
        vb = child_b.stream("place").random()
        assert va != vb

    def test_spawn_is_reproducible(self):
        a = RngRegistry(3).spawn("topo-0").stream("place").random()
        b = RngRegistry(3).spawn("topo-0").stream("place").random()
        assert a == b

    def test_rejects_non_integer_seed(self):
        with pytest.raises(TypeError):
            RngRegistry("not-a-seed")  # type: ignore[arg-type]


class TestGaussOnce:
    """``gauss_once(name)`` is the first gaussian of ``stream(name)``."""

    def test_equals_first_stream_gaussian(self):
        for seed in (0, 1, 7, 2003, 2**63 - 1):
            once = RngRegistry(seed)
            for name in ("a", "backoff", "shadow-0-1", "shadow-1-0", "x" * 100):
                expected = RngRegistry(seed).stream(name).gauss(0.0, 1.0)
                assert once.gauss_once(name) == expected

    def test_back_to_back_calls_do_not_leak_gauss_state(self):
        # gauss() caches a second value in gauss_next; every one-shot
        # draw must start clean, so a run of calls over fresh names
        # equals a run of fresh streams, value for value.
        registry = RngRegistry(11)
        names = [f"shadow-{s}-{d}" for s in range(12) for d in range(12) if s != d]
        once = [registry.gauss_once(name) for name in names]
        fresh = [RngRegistry(11).stream(name).gauss(0.0, 1.0) for name in names]
        assert once == fresh
        # Repeating a name repeats its draw.
        assert registry.gauss_once(names[0]) == once[0]

    def test_keeps_no_stream(self):
        registry = RngRegistry(3)
        registry.gauss_once("shadow-1-2")
        assert registry._streams == {}
        # A later stream of the same name still starts at its seed.
        expected = RngRegistry(3).stream("shadow-1-2").random()
        assert registry.stream("shadow-1-2").random() == expected

    def test_does_not_perturb_streams(self):
        registry = RngRegistry(9)
        stream = registry.stream("a")
        reference = RngRegistry(9).stream("a")
        assert stream.random() == reference.random()
        registry.gauss_once("b")
        assert stream.random() == reference.random()

    def test_rejects_a_name_already_streamed(self):
        registry = RngRegistry(5)
        registry.stream("taken")
        with pytest.raises(ValueError, match="taken"):
            registry.gauss_once("taken")

    def test_require_unstreamed_is_the_guard(self):
        registry = RngRegistry(5)
        registry.require_unstreamed("taken")
        registry.stream("taken")
        with pytest.raises(ValueError, match="taken"):
            registry.require_unstreamed("taken")
        registry.require_unstreamed("free")


class TestGaussMany:
    """``gauss_many(names)`` is ``[gauss_once(name) for name in names]``."""

    EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)

    def test_equals_gauss_once_on_edge_master_seeds(self):
        names = [f"shadow-{s}-{d}" for s in range(6) for d in range(6)]
        for seed in self.EDGE_SEEDS:
            registry = RngRegistry(seed)
            assert registry.gauss_many(names) == [
                registry.gauss_once(name) for name in names
            ]

    def test_mt_seeding_matches_random_across_key_lengths(self):
        # Random.seed keys one 32-bit word per started 32 bits: these
        # seeds take one, two and three words, mixed in one call.
        seeds = [*self.EDGE_SEEDS, 2**64, 2**96 + 5, 7, 2**40]
        expected = [random_module.Random(s).gauss(0.0, 1.0) for s in seeds]
        assert first_gaussians(seeds) == expected

    def test_whole_network_block(self):
        # Every ordered pair of a 200-node network: 39,800 names.
        registry = RngRegistry(2003)
        names = [
            f"shadow-{s}-{d}" for s in range(200) for d in range(200) if s != d
        ]
        assert len(names) == 39_800
        assert registry.gauss_many(names) == [
            registry.gauss_once(name) for name in names
        ]

    def test_across_chunk_boundaries(self):
        registry = RngRegistry(5)
        for count in (_GAUSS_CHUNK - 1, _GAUSS_CHUNK, _GAUSS_CHUNK + 1):
            names = [f"n{i}" for i in range(count)]
            assert registry.gauss_many(names) == [
                registry.gauss_once(name) for name in names
            ]
        seeds = [2**32 - 2 + i % 3 for i in range(2 * _GAUSS_CHUNK + 3)]
        expected = [random_module.Random(s).gauss(0.0, 1.0) for s in seeds]
        assert first_gaussians(seeds) == expected

    def test_empty(self):
        assert RngRegistry(3).gauss_many([]) == []
        assert first_gaussians([]) == []

    def test_accepts_a_generator_and_keeps_no_stream(self):
        registry = RngRegistry(3)
        values = registry.gauss_many(f"shadow-1-{d}" for d in range(4))
        assert values == [RngRegistry(3).gauss_once(f"shadow-1-{d}") for d in range(4)]
        assert list(registry.stream_names()) == []

    def test_rejects_a_name_already_streamed(self):
        registry = RngRegistry(5)
        registry.stream("taken")
        with pytest.raises(ValueError, match="taken"):
            registry.gauss_many(["free", "taken"])
        assert registry.gauss_many(["free"]) == [registry.gauss_once("free")]


class TestSeedStability:
    """The (master_seed, name) -> stream mapping is a contract.

    These golden values pin the SHA-256 derivation across Python
    versions and refactors: if any of them changes, every published
    number in EXPERIMENTS.md silently stops being reproducible.
    """

    def test_derivation_matches_sha256_spec(self):
        digest = hashlib.sha256(b"2003:backoff").digest()
        expected = int.from_bytes(digest[:8], "big")
        assert expected == 7550964712488899809
        assert RngRegistry(2003).seed_of("backoff") == expected
        stream = RngRegistry(2003).stream("backoff")
        reference = random_module.Random(expected)
        assert [stream.random() for _ in range(4)] == [
            reference.random() for _ in range(4)
        ]

    def test_golden_first_draws(self):
        registry = RngRegistry(2003)
        assert registry.stream("backoff").random() == pytest.approx(
            0.4232310048443786, abs=0.0
        )
        assert registry.stream("topology").random() == pytest.approx(
            0.9688531161006557, abs=0.0
        )

    def test_golden_spawn_seed(self):
        assert RngRegistry(2003).spawn("rep-0").master_seed == 3141594019869248974

    def test_spawn_namespace_is_separate_from_streams(self):
        # spawn("x") and stream("x") must never collide.
        registry = RngRegistry(8)
        child_draw = RngRegistry(8).spawn("x").stream("x").random()
        stream_draw = registry.stream("x").random()
        assert child_draw != stream_draw


class TestStreamIndependence:
    def test_interleaving_does_not_perturb(self):
        # Draws from stream A are identical whether or not B is drawn
        # from in between — consumers cannot observe each other.
        solo = RngRegistry(4).stream("a")
        expected = [solo.random() for _ in range(6)]
        registry = RngRegistry(4)
        a, b = registry.stream("a"), registry.stream("b")
        observed = []
        for _ in range(6):
            observed.append(a.random())
            b.random()  # interleaved draws on another stream
        assert observed == expected

    def test_registration_order_is_irrelevant(self):
        forward = RngRegistry(4)
        forward.stream("a"), forward.stream("b")
        backward = RngRegistry(4)
        backward.stream("b"), backward.stream("a")
        assert forward.stream("a").random() == backward.stream("a").random()

    def test_streams_are_statistically_distinct(self):
        # Crude independence check: no shared prefix and uncorrelated
        # means over a modest sample.
        registry = RngRegistry(123)
        a = [registry.stream("alpha").random() for _ in range(500)]
        b = [registry.stream("beta").random() for _ in range(500)]
        assert a[:10] != b[:10]
        mean_product = sum(x * y for x, y in zip(a, b)) / 500
        # E[XY] = 0.25 for independent U(0,1); generous tolerance.
        assert abs(mean_product - 0.25) < 0.05
