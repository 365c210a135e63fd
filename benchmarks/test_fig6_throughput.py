"""Bench: regenerate Fig. 6 (simulated throughput comparison).

Runs the shared simulation campaign (N x scheme x beamwidth grid of
saturated ring topologies) and prints the paper-style table: mean
inner-node throughput with the min-max range over topologies.

Shape assertions target the paper's headline finding where it is
statistically robust at bench scale: in dense networks (N = 8) the
all-directional DRTS-DCTS clearly outperforms omni-directional IEEE
802.11.  (At N = 3 the schemes are within noise of each other at bench
replicate counts; the paper itself needed 50 topologies.)
"""

from repro.experiments import GRID_STATISTICS, summarize_grid

from .conftest import mean_metric


def test_fig6_throughput(benchmark, sim_grid):
    config, cells = sim_grid

    statistic = GRID_STATISTICS["fig6"]
    table = benchmark.pedantic(
        summarize_grid, args=(cells, statistic.metric), rounds=1, iterations=1
    )
    print("\nFig. 6: simulated saturation throughput")
    print(statistic.format(table))

    # Curve shapes per density, like the paper's figure.
    from repro.report import line_chart

    for n in sorted(config.n_values):
        series = {}
        for scheme in config.schemes:
            pts = [
                (c.beamwidth_deg, c.summary.mean / 1e6)
                for c in table
                if c.n == n and c.scheme == scheme
            ]
            if len(pts) >= 2:
                series[scheme] = sorted(pts)
        if series:
            print()
            print(
                line_chart(
                    series,
                    title=f"Fig. 6 shape (N = {n})",
                    x_label="beamwidth (deg)",
                    y_label="throughput (Mbps)",
                    height=12,
                )
            )

    # Every cell produced live traffic.
    for cell in table:
        assert cell.summary.mean > 0

    if 8 in config.n_values:
        narrow = min(config.beamwidths_deg)
        drts = mean_metric(cells, 8, "DRTS-DCTS", narrow, "inner_throughput_bps")
        orts = mean_metric(cells, 8, "ORTS-OCTS", narrow, "inner_throughput_bps")
        # The paper's headline: aggressive spatial reuse wins in dense
        # networks — by a clear margin, not a whisker.
        assert drts > 1.3 * orts, (
            f"DRTS-DCTS ({drts / 1e6:.3f} Mbps) should clearly beat "
            f"ORTS-OCTS ({orts / 1e6:.3f} Mbps) at N=8"
        )
