"""Bench: regenerate Fig. 7 (simulated average delay comparison).

Same campaign as Fig. 6, summarizing mean MAC service delay.  The
paper: "with a more aggressive way of channel access to achieve spatial
reuse, the DRTS-DCTS scheme also enjoys on average less delay than the
other two schemes, especially when N is large."
"""

import math

from repro.experiments import (
    GRID_STATISTICS,
    replicate_seed,
    replicate_topology,
    summarize_grid,
)
from repro.metrics import delay_percentiles
from repro.net import NetworkSimulation

from .conftest import mean_metric


def test_fig7_delay(benchmark, sim_grid):
    config, cells = sim_grid

    statistic = GRID_STATISTICS["fig7"]
    table = benchmark.pedantic(
        summarize_grid, args=(cells, statistic.metric), rounds=1, iterations=1
    )
    print("\nFig. 7: simulated mean MAC service delay")
    print(statistic.format(table))

    # Tail behaviour (not in the paper, useful context): delay
    # percentiles pooled over the inner nodes of each narrowest-beam
    # cell.  Campaign replicates keep only summary metrics, so each
    # cell's replicate 0 is rerun fresh for its per-node delays.
    narrow = min(config.beamwidths_deg)
    print("delay percentiles (pooled inner nodes, replicate 0, narrowest beam):")
    for cell in cells:
        if cell.beamwidth_deg != narrow:
            continue
        result = NetworkSimulation(
            replicate_topology(config.base_seed, cell.n, 0),
            cell.scheme,
            math.radians(narrow),
            seed=replicate_seed(config.base_seed, cell.n, 0),
            mac_params=config.mac_params,
            phy_params=config.phy_params,
            phy_config=config.phy_config,
        ).run(config.sim_time_ns)
        assert result.inner_mean_delay_s == cell.results[0].inner_mean_delay_s
        tails = delay_percentiles(
            result.stats, quantiles=(0.5, 0.9, 0.99), node_ids=result.inner_ids
        )
        if tails:
            print(
                f"  N={cell.n} {cell.scheme:10s} "
                f"p50={tails[0.5] * 1e3:7.1f}ms  "
                f"p90={tails[0.9] * 1e3:7.1f}ms  "
                f"p99={tails[0.99] * 1e3:7.1f}ms"
            )

    for cell in table:
        assert 0.0 < cell.summary.mean < 10.0  # sane seconds range

    if 8 in config.n_values:
        narrow = min(config.beamwidths_deg)
        drts = mean_metric(cells, 8, "DRTS-DCTS", narrow, "inner_mean_delay_s")
        orts = mean_metric(cells, 8, "ORTS-OCTS", narrow, "inner_mean_delay_s")
        assert drts < orts, (
            f"DRTS-DCTS delay ({drts * 1e3:.1f} ms) should undercut "
            f"ORTS-OCTS ({orts * 1e3:.1f} ms) at N=8"
        )

    # Delay advantage also holds at every configured density for the
    # narrowest beam (the paper's "less time in waiting").
    narrow = min(config.beamwidths_deg)
    for n in config.n_values:
        drts = mean_metric(cells, n, "DRTS-DCTS", narrow, "inner_mean_delay_s")
        orts = mean_metric(cells, n, "ORTS-OCTS", narrow, "inner_mean_delay_s")
        assert drts < 1.5 * orts  # never catastrophically worse
