"""Bench: the Section-4 collision-ratio statistic.

The paper (figure omitted for space): "the DRTS-DCTS and DRTS-OCTS
schemes have higher collision occurrences than ORTS-OCTS ... because
both schemes are more aggressive in achieving spatial reuse and do not
force all the neighbors around the sending and receiving nodes to defer"
and "the collision ratio is still rather high" for large N.
"""

from repro.experiments import GRID_STATISTICS, summarize_grid

from .conftest import mean_metric


def test_collision_ratio(benchmark, sim_grid):
    config, cells = sim_grid

    statistic = GRID_STATISTICS["collision"]
    table = benchmark.pedantic(
        summarize_grid, args=(cells, statistic.metric), rounds=1, iterations=1
    )
    print("\nSection 4 statistic: collision ratio (ACK timeouts / data-stage handshakes)")
    print(statistic.format(table))

    for cell in table:
        assert 0.0 <= cell.summary.mean <= 1.0

    # Directional schemes pay for spatial reuse with more collisions,
    # at every density and beamwidth in the grid.
    for n in config.n_values:
        for beamwidth in config.beamwidths_deg:
            orts = mean_metric(cells, n, "ORTS-OCTS", beamwidth, "inner_collision_ratio")
            drts = mean_metric(cells, n, "DRTS-DCTS", beamwidth, "inner_collision_ratio")
            assert drts > orts, (
                f"N={n} {beamwidth}dg: DRTS-DCTS ratio {drts:.3f} should "
                f"exceed ORTS-OCTS {orts:.3f}"
            )
