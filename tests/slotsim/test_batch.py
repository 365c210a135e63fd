"""Scalar-vs-batch equivalence suite for the vectorized slot engine.

Three layers of evidence that :class:`BatchSlotModelEngine` simulates
the same world as the scalar oracle
(:class:`~tests.slotsim.scalar_engine.SlotModelEngine`, which it
replaced):

1. **Bit-identical**: the batch engine with the scalar engine's exact
   RNG stream replayed through its initiation step
   (:class:`~tests.slotsim.replay_engine.ReplayEngine`) must match every
   results field — including the integer ledgers — with ``==``.
2. **Structural**: the array-form geometry (padded neighbor table,
   reverse index, coverage tensor) must agree with the scalar
   ``TorusGeometry`` / a brute-force rebuild entry for entry.
3. **Distributional**: in the default numpy mode, paired runs on the
   *same* geometry must agree on success ratio, throughput and
   ``mean_fail_duration`` within combined-standard-error bounds.
"""

import math

import numpy as np
import pytest

from repro.core import PAPER_PARAMETERS
from repro.obs import MetricsRegistry
from repro.slotsim import BatchGeometry, BatchSlotModelEngine, SlotModelConfig

from .replay_engine import ReplayEngine
from .scalar_engine import SlotModelEngine
from .torus import TorusGeometry, batch_geometry


def make_config(scheme="ORTS-OCTS", n=3.0, theta_deg=60.0, p=0.02, seed=1,
                torus_factor=6.0):
    params = PAPER_PARAMETERS.with_neighbors(n).with_beamwidth(
        math.radians(theta_deg)
    )
    return SlotModelConfig(
        params=params, scheme=scheme, p=p, torus_factor=torus_factor, seed=seed
    )


def assert_identical(a, b):
    """Field-exact equality of two SlotModelResults."""
    assert a.slots == b.slots
    assert a.node_count == b.node_count
    assert a.mean_degree == pytest.approx(b.mean_degree)
    assert a.initiations == b.initiations
    assert a.successes == b.successes
    assert a.failures == b.failures
    assert a.payload_slots == b.payload_slots
    assert dict(a.fail_durations) == dict(b.fail_durations)


class TestOracleBitIdentity:
    """Layer 1: the batch engine on the replayed stream equals the
    scalar engine."""

    @pytest.mark.parametrize("scheme", [
        "ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS", "ORTS-OCTS-DDATA", "DORTS-OCTS",
    ])
    def test_schemes_bit_identical(self, scheme):
        config = make_config(scheme=scheme, p=0.05, seed=11)
        scalar = SlotModelEngine(config).run(600)
        batch = ReplayEngine(config).run(600)
        assert len(batch) == 1
        assert_identical(batch[0], scalar)

    @pytest.mark.parametrize("p", [0.01, 0.1])
    @pytest.mark.parametrize("theta_deg", [30.0, 150.0])
    def test_p_beamwidth_grid_bit_identical(self, p, theta_deg):
        config = make_config(
            scheme="DRTS-DCTS", theta_deg=theta_deg, p=p, seed=5
        )
        scalar = SlotModelEngine(config).run(500)
        batch = ReplayEngine(config).run(500)
        assert_identical(batch[0], scalar)

    def test_engine_cross_check_grid_bit_identical(self):
        """Every paper scheme at a light and a moderate load (N=3,
        60 deg, 1500 slots, seed 2003)."""
        for scheme in ("ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS"):
            for p in (0.02, 0.05):
                config = make_config(scheme=scheme, p=p, seed=2003)
                scalar = SlotModelEngine(config).run(1_500)
                (batch,) = ReplayEngine(config).run(1_500)
                assert scalar.initiations > 0, (scheme, p)
                assert_identical(batch, scalar)

    def test_oracle_on_shared_scalar_geometry(self):
        config = make_config(p=0.05, seed=3)
        import random

        geo = TorusGeometry(config, random.Random(config.seed))
        scalar = SlotModelEngine(config, geometry=geo).run(400)
        batch = ReplayEngine(config, geometry=geo).run(400)
        assert_identical(batch[0], scalar)

    def test_oracle_run_reuse_is_pure(self):
        config = make_config(p=0.05, seed=8)
        engine = ReplayEngine(config)
        first = engine.run(400)[0]
        second = engine.run(400)[0]
        assert_identical(first, second)

    def test_oracle_metrics_match_scalar_harvest(self):
        config = make_config(p=0.05, seed=2)
        scalar_metrics = MetricsRegistry()
        SlotModelEngine(config, metrics=scalar_metrics).run(400)
        batch_metrics = MetricsRegistry()
        ReplayEngine(config, metrics=batch_metrics).run(400)
        assert scalar_metrics.snapshot() == batch_metrics.snapshot()


class TestGeometry:
    """Layer 2: the array-form geometry tables are faithful."""

    def test_from_torus_adopts_neighbors(self):
        config = make_config(seed=4)
        import random

        geo = TorusGeometry(config, random.Random(config.seed))
        batch = batch_geometry(geo, config.params.beamwidth)
        assert batch.count == geo.count
        assert batch.mean_degree() == pytest.approx(geo.mean_degree())
        for k in range(geo.count):
            row = batch.nbr[k, : batch.deg[k]].tolist()
            assert row == geo.neighbors[k]

    def test_from_torus_coverage_matches_covers(self):
        config = make_config(theta_deg=70.0, seed=4)
        import random

        geo = TorusGeometry(config, random.Random(config.seed))
        theta = config.params.beamwidth
        batch = batch_geometry(geo, theta)
        for k in range(geo.count):
            row = geo.neighbors[k]
            for a, aimed in enumerate(row):
                for l, listener in enumerate(row):
                    assert batch.cov[k, a, l] == geo.covers(
                        k, aimed, listener, theta
                    )

    def test_rev_is_the_reverse_index(self):
        config = make_config(seed=9, torus_factor=8.0)
        geometry = BatchGeometry.generate(
            config,
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(0))),  # simlint: disable=SL001 -- test fixture stream
        )
        for k in range(geometry.count):
            for d in range(int(geometry.deg[k])):
                j = int(geometry.nbr[k, d])
                assert int(geometry.nbr[j, geometry.rev[k, d]]) == k

    def test_generate_matches_bruteforce_neighbors(self):
        """Cell-binned neighbor search equals the O(K^2) answer."""
        config = make_config(n=8.0, seed=13, torus_factor=7.0)
        geometry = BatchGeometry.generate(
            config,
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(7))),  # simlint: disable=SL001 -- test fixture stream
        )
        xs, ys, side = geometry.xs, geometry.ys, geometry.side
        assert xs is not None and ys is not None
        dx = np.mod(xs[None, :] - xs[:, None] + side / 2, side) - side / 2
        dy = np.mod(ys[None, :] - ys[:, None] + side / 2, side) - side / 2
        within = (dx * dx + dy * dy <= 1.0) & ~np.eye(xs.size, dtype=bool)
        for k in range(geometry.count):
            expected = np.nonzero(within[k])[0].tolist()
            assert geometry.nbr[k, : geometry.deg[k]].tolist() == expected

    def test_generate_mean_degree_near_target(self):
        config = make_config(n=5.0, seed=1, torus_factor=12.0)
        geometry = BatchGeometry.generate(
            config,
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(3))),  # simlint: disable=SL001 -- test fixture stream
        )
        # K = N * side^2 / pi nodes in side^2 area with unit-disk range:
        # E[degree] ~= N.
        assert geometry.mean_degree() == pytest.approx(5.0, rel=0.25)


class TestNumpyModeDeterminism:
    """Seed stability and batch-split invariance of the default mode."""

    def test_run_reuse_equals_fresh_engine(self):
        config = make_config(p=0.05, seed=21)
        engine = BatchSlotModelEngine(config, batch=3)
        first = engine.run(400)
        second = engine.run(400)
        fresh = BatchSlotModelEngine(config, batch=3).run(400)
        for a, b, c in zip(first, second, fresh):
            assert_identical(a, b)
            assert_identical(a, c)

    def test_batch_split_invariance(self):
        config = make_config(p=0.05, seed=6)
        whole = BatchSlotModelEngine(config, batch=4).run(300)
        front = BatchSlotModelEngine(config, batch=2).run(300)
        back = BatchSlotModelEngine(
            config, batch=2, replicate_offset=2
        ).run(300)
        for a, b in zip(whole, front + back):
            assert_identical(a, b)

    def test_replicates_differ(self):
        config = make_config(p=0.05, seed=6)
        results = BatchSlotModelEngine(config, batch=4).run(500)
        assert len({r.initiations for r in results}) > 1

    def test_geometry_stream_independent_of_batch(self):
        config = make_config(seed=17)
        a = BatchSlotModelEngine(config, batch=1)
        b = BatchSlotModelEngine(config, batch=5)
        assert np.array_equal(a.geometry.nbr, b.geometry.nbr)

    def test_payload_slots_are_exact_integers(self):
        config = make_config(p=0.05, seed=2)
        for r in BatchSlotModelEngine(config, batch=2).run(400):
            assert isinstance(r.payload_slots, int)
            assert r.payload_slots == r.successes * 100

    def test_metrics_harvest_sums_batch(self):
        config = make_config(p=0.05, seed=2)
        metrics = MetricsRegistry()
        results = BatchSlotModelEngine(config, batch=3, metrics=metrics).run(300)
        assert metrics.counter("slotsim.slots").value == 900
        assert metrics.counter("slotsim.successes").value == sum(
            r.successes for r in results
        )
        assert metrics.counter("slotsim.initiations").value == sum(
            r.initiations for r in results
        )


class TestValidation:
    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            BatchSlotModelEngine(make_config(), batch=0)

    def test_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            BatchSlotModelEngine(make_config(), replicate_offset=-1)

    def test_rejects_mismatched_coverage_tensor(self):
        narrow = make_config(scheme="DRTS-DCTS", theta_deg=30.0, seed=1)
        wide = make_config(scheme="DRTS-DCTS", theta_deg=150.0, seed=1)
        geometry = BatchSlotModelEngine(narrow).geometry
        with pytest.raises(ValueError):
            BatchSlotModelEngine(wide, geometry=geometry)

    def test_omni_scheme_accepts_any_tensor(self):
        # ORTS-OCTS never consults the directional tensor.
        narrow = make_config(scheme="ORTS-OCTS", theta_deg=30.0, seed=1)
        wide = make_config(scheme="ORTS-OCTS", theta_deg=150.0, seed=1)
        geometry = BatchSlotModelEngine(narrow).geometry
        BatchSlotModelEngine(wide, geometry=geometry)

    def test_rejects_bad_slots(self):
        with pytest.raises(ValueError):
            BatchSlotModelEngine(make_config()).run(0)


# The distributional cells the acceptance criteria require: >= 3
# (topology, p) cells, paired on identical geometry.
EQUIVALENCE_CELLS = [
    # (scheme, theta_deg, p, seed)
    ("ORTS-OCTS", 60.0, 0.02, 31),
    ("DRTS-DCTS", 30.0, 0.05, 32),
    ("DRTS-OCTS", 90.0, 0.08, 33),
]


class TestDistributionalEquivalence:
    """Layer 3: numpy-mode traffic on the scalar geometry agrees with
    scalar runs within combined-standard-error bounds."""

    @pytest.mark.parametrize("scheme,theta_deg,p,seed", EQUIVALENCE_CELLS)
    def test_cell_agrees_within_ci(self, scheme, theta_deg, p, seed):
        import random

        config = make_config(scheme=scheme, theta_deg=theta_deg, p=p, seed=seed)
        geometry = TorusGeometry(config, random.Random(config.seed))
        slots, reps = 1_200, 6

        scalar_runs = []
        for i in range(reps):
            cfg_i = SlotModelConfig(
                params=config.params,
                scheme=scheme,
                p=p,
                torus_factor=config.torus_factor,
                seed=seed + 1000 * (i + 1),
            )
            scalar_runs.append(
                SlotModelEngine(cfg_i, geometry=geometry).run(slots)
            )
        batch_runs = BatchSlotModelEngine(
            config,
            batch=reps,
            geometry=batch_geometry(geometry, config.params.beamwidth),
        ).run(slots)

        for metric in ("success_ratio", "throughput_per_node",
                       "mean_fail_duration"):
            a = np.array([getattr(r, metric) for r in scalar_runs])
            b = np.array([getattr(r, metric) for r in batch_runs])
            se = math.sqrt(
                a.var(ddof=1) / reps + b.var(ddof=1) / reps
            )
            # 4 combined standard errors: wide enough to be stable
            # across platforms, tight enough to catch systematic bias
            # (the oracle layer pins exactness; this layer guards the
            # numpy draw paths).
            assert abs(a.mean() - b.mean()) <= max(4.0 * se, 1e-12), (
                f"{metric}: scalar {a.mean():.5f} vs batch {b.mean():.5f} "
                f"(se {se:.5f})"
            )

    def test_randomized_small_worlds(self):
        """Randomized N<=32 sweep: oracle equivalence on tiny worlds
        across p and beamwidth (bit-exactness implies distributional
        agreement, so the sweep doubles as a fuzz of the array paths
        on degenerate geometries)."""
        for seed, p, theta in [
            (41, 0.03, 45.0),
            (42, 0.12, 120.0),
            (43, 0.3, 15.0),
            (44, 0.07, 179.0),
        ]:
            config = make_config(
                scheme="DRTS-OCTS", n=2.5, theta_deg=theta, p=p, seed=seed,
                torus_factor=3.0,
            )
            assert config.node_count <= 32
            scalar = SlotModelEngine(config).run(700)
            batch = ReplayEngine(config).run(700)
            assert_identical(batch[0], scalar)
