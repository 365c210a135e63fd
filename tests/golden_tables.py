"""Golden text of the grid tables, recorded before the grid printer was
shared across studies.

``CLI_STDOUT`` is the exact stdout of each grid subcommand run with
``CLI_ARGV``; ``SYNTHETIC`` is the rendering of :data:`SYNTHETIC_GRID`
(four cells, with missing (scheme, beamwidth) cells that take the blank
padding path) under the ``fig6`` and ``collision`` statistics.  Each
line is a separate literal so trailing padding survives editors.
"""

_SINGLE_HOP = [
    "--n-values", "3", "--beamwidths", "30,90",
    "--topologies", "1", "--sim-seconds", "0.2",
]

CLI_ARGV = {
    "fig6": ["fig6", *_SINGLE_HOP],
    "fig7": ["fig7", *_SINGLE_HOP],
    "collision": ["collision", *_SINGLE_HOP],
    "fairness": ["fairness", *_SINGLE_HOP],
    "multihop": [
        "multihop", "--scheme", "drts_octs", "--beamwidth", "90",
        "--n-values", "5", "--rings", "2", "--topologies", "1",
        "--sim-seconds", "0.1", "--seed", "0",
    ],
    "slotsim": [
        "slotsim", "--n-values", "3", "--beamwidths", "60",
        "--scheme", "orts_octs", "--topologies", "1", "--slots", "200",
    ],
}

CLI_STDOUT = {
    "fig6": (
        "N = 3  (throughput of inner 3 nodes, Mbps)\n"
        "  beamwidth                 DRTS-DCTS                 DRTS-OCTS                 ORTS-OCTS\n"
        "       30dg    0.642 [0.642,0.642]   0.584 [0.584,0.584]   0.234 [0.234,0.234]\n"
        "       90dg    0.467 [0.467,0.467]   0.993 [0.993,0.993]   0.234 [0.234,0.234]\n"
        "\n"
    ),
    "fig7": (
        "N = 3  (mean MAC service delay of inner nodes, ms)\n"
        "  beamwidth                 DRTS-DCTS                 DRTS-OCTS                 ORTS-OCTS\n"
        "       30dg     12.9 [ 12.9, 12.9]    18.5 [ 18.5, 18.5]    23.9 [ 23.9, 23.9]\n"
        "       90dg     20.4 [ 20.4, 20.4]    10.8 [ 10.8, 10.8]    23.9 [ 23.9, 23.9]\n"
        "\n"
    ),
    "collision": (
        "N = 3  (ACK-timeout fraction of data-stage handshakes)\n"
        "  beamwidth     DRTS-DCTS     DRTS-OCTS     ORTS-OCTS\n"
        "       30dg          0.500         0.091         0.429\n"
        "       90dg          0.556         0.261         0.429\n"
        "\n"
    ),
    "fairness": (
        "N = 3  (Jain fairness index of inner-node throughputs)\n"
        "  beamwidth     DRTS-DCTS     DRTS-OCTS     ORTS-OCTS\n"
        "       30dg          0.661         0.641         0.333\n"
        "       90dg          0.711         0.333         0.333\n"
        "\n"
    ),
    "multihop": (
        "Multi-hop study: router=greedy, 1 topologies, 0.1s simulated\n"
        "N = 5  (end-to-end goodput Mbps / mean delay ms, all flows)\n"
        "  beamwidth               DRTS-OCTS\n"
        "       90dg     0.117 /    32.45ms\n"
        "\n"
    ),
    "slotsim": (
        "Slot-model study (batch engine): p=0.05, 1 topologies x 200 slots\n"
        "N = 3  (throughput per node per slot / success ratio, engine: batch)\n"
        "  beamwidth           ORTS-OCTS\n"
        "       60dg     0.0000 /  0.0000\n"
        "\n"
    ),
}

#: (n, scheme, beamwidth_deg, mean, minimum, maximum) of a throughput
#: in bit/s; the collision rendering divides each value by 4e6.
SYNTHETIC_GRID = (
    (3, "DRTS-DCTS", 30.0, 1.25e6, 1.0e6, 1.5e6),
    (3, "DRTS-DCTS", 90.0, 0.75e6, 0.5e6, 1.0e6),
    (3, "ORTS-OCTS", 30.0, 0.25e6, 0.125e6, 0.375e6),
    (5, "ORTS-OCTS", 150.0, 0.5e6, 0.5e6, 0.5e6),
)

SYNTHETIC = {
    "fig6": (
        "N = 3  (throughput of inner 3 nodes, Mbps)\n"
        "  beamwidth                 DRTS-DCTS                 ORTS-OCTS\n"
        "       30dg    1.250 [1.000,1.500]   0.250 [0.125,0.375]\n"
        "       90dg    0.750 [0.500,1.000]                          \n"
        "\n"
        "N = 5  (throughput of inner 5 nodes, Mbps)\n"
        "  beamwidth                 DRTS-DCTS                 ORTS-OCTS\n"
        "      150dg                              0.500 [0.500,0.500]\n"
    ),
    "collision": (
        "N = 3  (ACK-timeout fraction of data-stage handshakes)\n"
        "  beamwidth     DRTS-DCTS     ORTS-OCTS\n"
        "       30dg          0.312         0.062\n"
        "       90dg          0.188              \n"
        "\n"
        "N = 5  (ACK-timeout fraction of data-stage handshakes)\n"
        "  beamwidth     DRTS-DCTS     ORTS-OCTS\n"
        "      150dg                        0.125\n"
    ),
}
