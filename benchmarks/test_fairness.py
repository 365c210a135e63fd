"""Bench: the Section-4 fairness discussion, quantified.

The paper (results omitted for space) makes three claims about BEB
starvation under saturation:

1. the winner monopolizes the channel while others starve,
2. "when N is larger, the fairness problem is less severe",
3. "it is much more unfair when transmission beamwidth is wider".

Claims 2-3 are about tendencies with huge topology-to-topology
variance; this bench prints the full table and asserts only the robust
parts: fairness indices are valid, and starvation is visible (the index
drops well below 1) for saturated directional cells at small N.
"""

from repro.experiments import GRID_STATISTICS, summarize_grid

from .conftest import mean_metric


def test_fairness(benchmark, sim_grid):
    config, cells = sim_grid

    statistic = GRID_STATISTICS["fairness"]
    table = benchmark.pedantic(
        summarize_grid, args=(cells, statistic.metric), rounds=1, iterations=1
    )
    print("\nSection 4 discussion: Jain fairness of inner-node throughputs")
    print(statistic.format(table))

    for cell in table:
        assert 0.0 < cell.summary.mean <= 1.0

    # Starvation exists: somewhere in the saturated grid the index
    # falls clearly below perfect fairness.
    assert min(cell.summary.minimum for cell in table) < 0.95
