"""Bench: the three-fidelity ladder (closed form vs slot-sim).

Runs the analytical model's world honestly (fixed node draw, persistent
interference, checkpointed failure detection) and compares it with the
closed forms.  The reproduction claim being tested: the paper's
*qualitative* Fig. 5 conclusions survive the removal of the model's
independence assumptions, even though absolute throughput drops and the
truncated-geometric T_fail turns out optimistic.
"""

import math

from repro.core import PAPER_PARAMETERS, SCHEME_FACTORIES
from repro.slotsim import BatchSlotModelEngine, SlotModelConfig

SCHEMES = ("ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS")
P = 0.02
SLOTS = 30_000


def run_ladder():
    rows = []
    for scheme in SCHEMES:
        for theta_deg in (30.0, 150.0):
            params = PAPER_PARAMETERS.with_neighbors(3.0).with_beamwidth(
                math.radians(theta_deg)
            )
            engine = BatchSlotModelEngine(
                SlotModelConfig(params=params, scheme=scheme, p=P, seed=5)
            )
            (measured,) = engine.run(SLOTS)
            analytical_scheme = SCHEME_FACTORIES[scheme](params)
            rows.append(
                {
                    "scheme": scheme,
                    "theta": theta_deg,
                    "analytical": analytical_scheme.throughput(P),
                    "slot_sim": measured.throughput_per_node,
                    "t_fail_model": analytical_scheme.t_fail(P),
                    "t_fail_measured": measured.mean_fail_duration,
                }
            )
    return rows


def test_model_fidelity_ladder(benchmark):
    rows = benchmark.pedantic(run_ladder, rounds=1, iterations=1)

    print("\nModel-fidelity ladder (N=3, p=0.02): closed form vs slot-sim")
    print(
        "scheme      theta  Th(formula)  Th(slot-sim)   Tfail(formula)  Tfail(measured)"
    )
    for row in rows:
        print(
            f"{row['scheme']:10s}  {row['theta']:4.0f}  {row['analytical']:11.4f}  "
            f"{row['slot_sim']:12.4f}  {row['t_fail_model']:14.2f}  "
            f"{row['t_fail_measured']:15.2f}"
        )

    by_key = {(r["scheme"], r["theta"]): r for r in rows}

    # 1. The closed form is an upper bound everywhere (independence
    #    assumptions only ever flatter the protocol).
    for row in rows:
        assert row["slot_sim"] < row["analytical"]

    # 2. The Fig. 5 ordering at narrow beamwidth survives.
    assert (
        by_key[("DRTS-DCTS", 30.0)]["slot_sim"]
        > by_key[("ORTS-OCTS", 30.0)]["slot_sim"]
    )
    assert (
        by_key[("DRTS-OCTS", 30.0)]["slot_sim"]
        > by_key[("ORTS-OCTS", 30.0)]["slot_sim"]
    )

    # 3. DRTS-DCTS still degrades with beamwidth.
    assert (
        by_key[("DRTS-DCTS", 30.0)]["slot_sim"]
        > by_key[("DRTS-DCTS", 150.0)]["slot_sim"]
    )

    # 4. The model's T_fail is optimistic for the directional schemes:
    #    real failures are detected at checkpoints, never earlier.
    for scheme in ("DRTS-DCTS", "DRTS-OCTS"):
        row = by_key[(scheme, 30.0)]
        if row["t_fail_measured"] > 0:
            assert row["t_fail_measured"] > row["t_fail_model"]
