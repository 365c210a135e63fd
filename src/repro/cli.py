"""Command-line interface: regenerate any paper artifact from a shell.

Examples::

    python -m repro table1
    python -m repro fig5 --n 5
    python -m repro fig6 --n-values 3 --beamwidths 30,150 --topologies 2 \
        --sim-seconds 1
    python -m repro ablation
    python -m repro validate --scheme DRTS-DCTS --p 0.05
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from typing import Sequence

# The analytic core (scipy) and the slot model are imported inside the
# subcommands that run them, so ``--help`` and the simulation
# subcommands start without them.
from .dessim.units import seconds
from .experiments import (
    GRID_STATISTICS,
    SimStudyConfig,
    format_table1,
    normalize_scheme,
    run_campaign,
    summarize_grid,
)
from .experiments.config import SCHEMES
from .phy.reception import RECEPTION_MODELS

__all__ = ["main", "build_parser"]


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _float_tuple(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


def _str_tuple(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _add_sim_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n-values", type=_int_tuple, default=(3, 8),
        help="comma-separated densities N (default 3,8)",
    )
    parser.add_argument(
        "--beamwidths", type=_float_tuple, default=(30.0, 150.0),
        help="comma-separated beamwidths in degrees (default 30,150)",
    )
    parser.add_argument(
        "--topologies", type=int, default=2,
        help="random topologies per configuration (paper: 50)",
    )
    parser.add_argument(
        "--sim-seconds", type=float, default=1.0,
        help="simulated seconds per run",
    )
    parser.add_argument(
        "--retry-limit", type=int, default=7, help="802.11 retry limit"
    )
    parser.add_argument(
        "--capture", type=float, default=None,
        help="SNR capture threshold (linear ratio); omit for the paper's "
        "no-capture model",
    )
    _add_campaign_options(parser)


_CAMPAIGN_DIR_HELP = (
    "persist one JSON artifact per completed cell under DIR; "
    "rerunning with the same configuration skips finished cells"
)


def _add_campaign_options(
    parser: argparse.ArgumentParser, *, campaign_dir_help: str = _CAMPAIGN_DIR_HELP
) -> None:
    """``--seed``, ``--workers`` and ``--campaign-dir``: every campaign's flags."""
    parser.add_argument("--seed", type=int, default=2003, help="base seed")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="campaign worker processes (default: REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--campaign-dir", default=None, metavar="DIR", help=campaign_dir_help
    )


def _add_study_options(
    parser: argparse.ArgumentParser,
    *,
    topologies: int,
    campaign_dir_help: str = _CAMPAIGN_DIR_HELP,
) -> None:
    """The flags the ``multihop``/``slotsim``/``sinr`` studies share."""
    parser.add_argument(
        "--scheme", type=_str_tuple, default=None, metavar="LIST",
        help="comma-separated schemes, case/underscore-insensitive "
        "(e.g. drts_octs); default: the paper's three",
    )
    parser.add_argument(
        "--topologies", type=int, default=topologies,
        help="random topologies per configuration",
    )
    _add_campaign_options(parser, campaign_dir_help=campaign_dir_help)


def _schemes(args: argparse.Namespace) -> tuple[str, ...]:
    """``--scheme`` canonicalized, or the paper's three by default."""
    return tuple(normalize_scheme(s) for s in args.scheme) if args.scheme else SCHEMES


def _campaign_options(args: argparse.Namespace) -> dict:
    """Campaign execution options (worker count, store, progress)."""
    from .experiments import CampaignProgress

    return {
        "workers": args.workers,
        "directory": args.campaign_dir,
        "progress": CampaignProgress(),  # per-cell lines + ETA on stderr
    }


def _analytic_scheme(args: argparse.Namespace):
    """The analytic model of ``--scheme`` at ``--n`` and ``--beamwidth``."""
    from .core import PAPER_PARAMETERS, SCHEME_FACTORIES

    params = PAPER_PARAMETERS.with_neighbors(args.n).with_beamwidth(
        math.radians(args.beamwidth)
    )
    return SCHEME_FACTORIES[args.scheme](params)


def _sim_config(args: argparse.Namespace) -> SimStudyConfig:
    return SimStudyConfig(
        n_values=args.n_values,
        beamwidths_deg=args.beamwidths,
        topologies=args.topologies,
        sim_time_ns=seconds(args.sim_seconds),
        base_seed=args.seed,
        retry_limit=args.retry_limit,
        capture_threshold=args.capture,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Wang & Garcia-Luna-Aceves (ICDCS 2003): "
        "collision avoidance with directional antennas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table 1 configuration check")

    fig5 = sub.add_parser("fig5", help="analytical throughput vs beamwidth")
    fig5.add_argument(
        "--n", type=float, default=5.0, help="mean neighbor count N"
    )
    fig5.add_argument(
        "--chart", action="store_true", help="render an ASCII line chart too"
    )
    fig5.add_argument(
        "--measure", action="store_true",
        help="also re-measure each optimum with the slot-model engine",
    )
    fig5.add_argument(
        "--measure-beamwidths", type=_float_tuple, default=(30.0, 90.0, 150.0),
        metavar="LIST",
        help="beamwidths (degrees) measured with --measure (default 30,90,150)",
    )
    fig5.add_argument(
        "--slots", type=int, default=3_000,
        help="slots per measured replicate (--measure)",
    )
    fig5.add_argument(
        "--replicates", type=int, default=3,
        help="topology replicates per measured point (--measure)",
    )
    fig5.add_argument("--seed", type=int, default=2003, help="base seed (--measure)")

    for name, statistic in GRID_STATISTICS.items():
        _add_sim_options(sub.add_parser(name, help=statistic.help))

    multihop = sub.add_parser(
        "multihop",
        help="end-to-end multi-hop study: routed flows over the relay plane",
    )
    _add_study_options(multihop, topologies=2)
    multihop.add_argument(
        "--beamwidth", type=_float_tuple, default=(30.0, 90.0, 150.0),
        metavar="LIST", help="comma-separated beamwidths in degrees",
    )
    multihop.add_argument(
        "--router", choices=("greedy", "shortest-path"), default="greedy",
        help="next-hop strategy (default greedy geographic)",
    )
    multihop.add_argument(
        "--n-values", type=_int_tuple, default=(3,),
        help="comma-separated densities N (default 3)",
    )
    multihop.add_argument(
        "--rings", type=int, default=3,
        help="concentric rings in each topology (default 3)",
    )
    multihop.add_argument(
        "--sim-seconds", type=float, default=0.5,
        help="simulated seconds per run",
    )
    multihop.add_argument(
        "--flow-interval-ms", type=float, default=40.0,
        help="per-flow packet inter-arrival in milliseconds",
    )
    multihop.add_argument(
        "--min-hops", type=int, default=2,
        help="flow destinations are at least this many hops away",
    )
    multihop.add_argument(
        "--relay-queue", type=int, default=50, help="per-node relay-queue bound"
    )
    multihop.add_argument("--ttl", type=int, default=32, help="per-packet hop budget")

    sub.add_parser("ablation", help="design-choice ablations (analytical)")

    slotsim = sub.add_parser(
        "slotsim",
        help="slot-model Monte-Carlo study over the (N, scheme, beamwidth) "
        "grid on the batch slot engine",
    )
    slotsim.add_argument(
        "--n-values", type=_int_tuple, default=(3, 8),
        help="comma-separated densities N (default 3,8)",
    )
    slotsim.add_argument(
        "--beamwidths", type=_float_tuple, default=(30.0, 150.0),
        help="comma-separated beamwidths in degrees (default 30,150)",
    )
    _add_study_options(slotsim, topologies=3)
    slotsim.add_argument(
        "--p", type=float, default=0.05,
        help="per-slot handshake-initiation probability",
    )
    slotsim.add_argument(
        "--slots", type=int, default=5_000, help="slots per replicate"
    )
    slotsim.add_argument(
        "--torus-factor", type=float, default=6.0,
        help="torus side length in range units (>= 3)",
    )

    sinr = sub.add_parser(
        "sinr",
        help="SINR/capture reception study: capture threshold x beamwidth "
        "vs the unit-disk baseline (one campaign arm per threshold)",
    )
    sinr.add_argument(
        "--n-values", type=_int_tuple, default=(3,),
        help="comma-separated densities N (default 3)",
    )
    sinr.add_argument(
        "--beamwidths", type=_float_tuple, default=(30.0, 90.0, 150.0),
        help="comma-separated beamwidths in degrees (default 30,90,150)",
    )
    _add_study_options(
        sinr,
        topologies=2,
        campaign_dir_help="persist each study arm as a campaign under "
        "DIR/unitdisk and DIR/capture-<v>db; rerunning resumes finished cells",
    )
    sinr.add_argument(
        "--capture-db", type=_float_tuple, default=(3.0, 10.0),
        metavar="LIST",
        help="comma-separated capture thresholds in dB, one SINR "
        "campaign arm each (default 3,10)",
    )
    sinr.add_argument(
        "--pathloss-exponent", type=float, default=3.0,
        help="log-distance path-loss exponent (default 3.0)",
    )
    sinr.add_argument(
        "--shadowing-sigma-db", type=float, default=6.0,
        help="lognormal shadowing sigma in dB (0 disables; default 6)",
    )
    sinr.add_argument(
        "--sensitivity-dbm", type=float, default=-94.0,
        help="receiver sensitivity floor in dBm (default -94)",
    )
    sinr.add_argument(
        "--sim-seconds", type=float, default=0.5,
        help="simulated seconds per run",
    )

    baselines = sub.add_parser(
        "baselines",
        help="analytical ladder: CSMA / busy tone / RTS-CTS / directional",
    )
    baselines.add_argument("--n", type=float, default=5.0)
    baselines.add_argument("--beamwidth", type=float, default=30.0)

    topo = sub.add_parser("topology", help="generate and draw a ring topology")
    topo.add_argument("--n", type=int, default=3)
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument("--width", type=int, default=61)

    p0 = sub.add_parser(
        "p0",
        help="solve the p <-> p0 channel-feedback fixed point",
    )
    p0.add_argument(
        "--scheme", choices=sorted(SCHEMES), default="ORTS-OCTS"
    )
    p0.add_argument("--n", type=float, default=5.0)
    p0.add_argument("--beamwidth", type=float, default=30.0)
    p0.add_argument(
        "--p0", dest="p0_values", type=_float_tuple,
        default=(0.01, 0.05, 0.1, 0.2, 0.5),
        help="comma-separated offered-load probabilities",
    )

    curve = sub.add_parser(
        "curve",
        help="throughput vs p for one scheme (vectorized; ASCII chart)",
    )
    curve.add_argument(
        "--scheme", choices=sorted(SCHEMES), default="DRTS-DCTS"
    )
    curve.add_argument("--n", type=float, default=5.0)
    curve.add_argument("--beamwidth", type=float, default=30.0)
    curve.add_argument("--p-max", type=float, default=0.3)
    curve.add_argument("--points", type=int, default=120)

    fidelity = sub.add_parser(
        "fidelity",
        help="slot-level simulation of the model's world vs the closed forms",
    )
    fidelity.add_argument("--n", type=float, default=3.0)
    fidelity.add_argument("--beamwidth", type=float, default=30.0)
    fidelity.add_argument("--p", type=float, default=0.02)
    fidelity.add_argument("--slots", type=int, default=30_000)
    fidelity.add_argument("--seed", type=int, default=5)

    profile = sub.add_parser(
        "profile",
        help="host-time profile of one simulation cell: per-phase wall "
        "time plus events/sec (network kernel) or slots/sec (slotsim)",
    )
    profile.add_argument(
        "--kernel", choices=("network", "slotsim"), default="network",
        help="which substrate to profile (default network)",
    )
    profile.add_argument(
        "--scheme", choices=sorted(SCHEMES), default="ORTS-OCTS"
    )
    profile.add_argument("--n", type=int, default=3, help="density N")
    profile.add_argument(
        "--rings", type=int, default=3,
        help="concentric rings in the topology (network kernel); "
        "--n 8 --rings 5 is the ~200-node link-cache bench configuration",
    )
    profile.add_argument("--beamwidth", type=float, default=90.0)
    profile.add_argument(
        "--phy", choices=RECEPTION_MODELS, default="unitdisk",
        help="reception model (network kernel; default unitdisk); sinr "
        "uses the PhyConfig defaults",
    )
    profile.add_argument(
        "--sim-seconds", type=float, default=0.5,
        help="simulated seconds (network kernel)",
    )
    profile.add_argument(
        "--warmup-seconds", type=float, default=0.0,
        help="warm-up transient before the measured window (network kernel)",
    )
    profile.add_argument(
        "--slots", type=int, default=20_000, help="slot count (slotsim kernel)"
    )
    profile.add_argument(
        "--p", type=float, default=0.05,
        help="per-slot transmission probability (slotsim kernel)",
    )
    profile.add_argument(
        "--batch", type=int, default=1,
        help="replicates advanced in lockstep (slotsim kernel)",
    )
    profile.add_argument(
        "--torus-factor", type=float, default=6.0,
        help="torus side length in range units (slotsim kernel)",
    )
    profile.add_argument("--seed", type=int, default=2003)
    profile.add_argument(
        "--by-callback", action="store_true",
        help="per-callback-type breakdown of the event loop (network "
        "kernel): hooks the kernel dispatcher and times each fired "
        "callback, grouped by layer and method; the hooked loop is "
        "slower, so compare shares, not absolute seconds",
    )
    profile.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write a repro-profile-v1 JSON snapshot",
    )

    worker = sub.add_parser(
        "campaign-worker",
        help="join a campaign store as one worker shard; any number of "
        "these (across processes or hosts sharing the store) cooperate "
        "on the grid and survive each other's crashes",
    )
    worker.add_argument(
        "--store", required=True, metavar="DIR",
        help="campaign directory with a repro-campaign-v1 manifest; the "
        "worker rebuilds the study from it (no grid flags needed)",
    )
    worker.add_argument(
        "--shard-id", required=True, metavar="ID",
        help="this worker's identity in leases and the event stream",
    )
    worker.add_argument(
        "--lease-seconds", type=float, default=None, metavar="SECS",
        help="lease expiry before other shards may steal a cell "
        "(default 300)",
    )
    worker.add_argument(
        "--poll-seconds", type=float, default=0.2, metavar="SECS",
        help="idle rescan interval while waiting on other shards' cells",
    )
    worker.add_argument(
        "--attach", action="append", default=[], metavar="DIR",
        help="read-only sibling store with the same fingerprint; its "
        "finished cells are imported byte-for-byte instead of recomputed "
        "(repeatable)",
    )
    worker.add_argument(
        "--no-telemetry", action="store_true",
        help="skip per-cell telemetry lines (cell artifacts are "
        "identical either way)",
    )

    watch = sub.add_parser(
        "campaign-watch",
        help="tail a campaign's event stream: per-cell completion lines, "
        "progress fraction, and ETA while shards work the grid",
    )
    watch.add_argument(
        "--store", required=True, metavar="DIR",
        help="campaign directory whose events.jsonl to follow",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="print events seen so far and exit instead of following",
    )
    watch.add_argument(
        "--interval", type=float, default=0.2, metavar="SECS",
        help="poll interval while following (default 0.2)",
    )
    watch.add_argument(
        "--timeout", type=float, default=None, metavar="SECS",
        help="stop following after this many seconds even if unfinished",
    )

    validate = sub.add_parser(
        "validate",
        help="Monte-Carlo check of the closed-form P_ws and throughput",
    )
    validate.add_argument(
        "--scheme", choices=sorted(SCHEMES), default="DRTS-DCTS"
    )
    validate.add_argument("--n", type=float, default=5.0)
    validate.add_argument("--beamwidth", type=float, default=30.0)
    validate.add_argument("--p", type=float, default=0.05)
    validate.add_argument("--samples", type=int, default=30_000)
    return parser


def _run_profile(args: argparse.Namespace) -> int:
    """The ``repro profile`` subcommand: phases + throughput rates."""
    import json

    from .obs import (
        CallbackProfiler,
        MetricsRegistry,
        PhaseProfiler,
        format_callback_profile,
        format_profile,
    )

    metrics = MetricsRegistry()
    profiler = PhaseProfiler()
    callback_profiler = None
    rates: list[tuple[str, int, str]] = []
    if args.by_callback and args.kernel != "network":
        raise SystemExit("--by-callback requires --kernel network")
    if args.batch != 1 and args.kernel != "slotsim":
        raise SystemExit("--batch requires --kernel slotsim")
    if args.kernel == "network":
        from .experiments import replicate_seed, replicate_topology
        from .net.network import NetworkSimulation
        from .phy.reception import PhyConfig

        with profiler.phase("topology gen"):
            topology = replicate_topology(args.seed, args.n, 0, rings=args.rings)
        with profiler.phase("build"):
            simulation = NetworkSimulation(
                topology,
                args.scheme,
                math.radians(args.beamwidth),
                seed=replicate_seed(args.seed, args.n, 0),
                metrics=metrics,
                phy_config=PhyConfig(model=args.phy),
            )
        if args.by_callback:
            callback_profiler = CallbackProfiler()
            simulation.sim.dispatch_hook = callback_profiler
        simulation.run(
            seconds(args.sim_seconds),
            warmup_ns=seconds(args.warmup_seconds) if args.warmup_seconds else 0,
            profiler=profiler,
        )
        events = int(metrics.counter("dessim.events").value)
        rates.append(("events/sec", events, "event loop"))
        print(
            f"profile: network kernel, N={args.n}, rings={args.rings}, "
            f"{args.scheme}, {args.beamwidth:g}dg, {args.phy} phy, "
            f"{args.sim_seconds:g}s simulated ({events:,} events)"
        )
    else:
        from .core import PAPER_PARAMETERS
        from .slotsim import BatchSlotModelEngine, SlotModelConfig

        params = PAPER_PARAMETERS.with_neighbors(float(args.n)).with_beamwidth(
            math.radians(args.beamwidth)
        )
        config = SlotModelConfig(
            params=params,
            scheme=args.scheme,
            p=args.p,
            torus_factor=args.torus_factor,
            seed=args.seed,
        )
        with profiler.phase("build"):
            engine = BatchSlotModelEngine(config, batch=args.batch, metrics=metrics)
        with profiler.phase("event loop"):
            engine.run(args.slots)
        # The engine harvests slots * batch (one count per
        # replicate-slot), so the rate is comparable across batch sizes.
        slots = int(metrics.counter("slotsim.slots").value)
        rates.append(("slots/sec", slots, "event loop"))
        print(
            f"profile: slotsim kernel, N={args.n}, "
            f"{args.scheme}, {args.beamwidth:g}dg, p={args.p:g}, "
            f"{args.slots:,} slots x {args.batch} replicate(s)"
        )
    print(format_profile(profiler, rates))
    if callback_profiler is not None:
        print()
        print(format_callback_profile(callback_profiler))
    if args.json:
        payload = {
            "format": "repro-profile-v1",
            "kernel": args.kernel,
            **({"phy": args.phy} if args.kernel == "network" else {}),
            "phases": profiler.as_dict(),
            "rates": {
                name: profiler.rate(count, label) for name, count, label in rates
            },
            **(
                {"callbacks": callback_profiler.as_dict()}
                if callback_profiler is not None
                else {}
            ),
            **metrics.snapshot(),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return 0


def watch_campaign_cli(args: argparse.Namespace):
    """The ``repro campaign-watch`` subcommand body."""
    from .experiments.dispatch import watch_campaign

    return watch_campaign(
        args.store,
        follow=not args.once,
        poll_seconds=args.interval,
        timeout=args.timeout,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "table1":
        print(format_table1())
    elif args.command == "fig5":
        from .experiments import format_fig5_table, run_fig5

        print(f"Fig. 5 (N = {args.n:g}): max throughput vs beamwidth")
        rows = run_fig5(n_neighbors=args.n)
        print(format_fig5_table(rows))
        if args.chart:
            from .report import line_chart

            series = {
                scheme: [(r.beamwidth_deg, r.throughput[scheme]) for r in rows]
                for scheme in sorted(SCHEMES)
            }
            print()
            print(
                line_chart(
                    series,
                    title=f"Fig. 5 (N = {args.n:g})",
                    x_label="beamwidth (deg)",
                    y_label="max throughput",
                )
            )
        if args.measure:
            from .experiments import format_fig5_measured_table, run_fig5_measured

            print()
            print(
                f"Slot-model measurement at each optimum "
                f"(batch engine, {args.replicates} topologies x "
                f"{args.slots:,} slots):"
            )
            print(
                format_fig5_measured_table(
                    run_fig5_measured(
                        n_neighbors=args.n,
                        beamwidths=tuple(
                            math.radians(b) for b in args.measure_beamwidths
                        ),
                        slots=args.slots,
                        replicates=args.replicates,
                        base_seed=args.seed,
                    )
                )
            )
    elif args.command in GRID_STATISTICS:
        statistic = GRID_STATISTICS[args.command]
        cells = run_campaign(_sim_config(args), **_campaign_options(args))
        print(statistic.format(summarize_grid(cells, statistic.metric)))
    elif args.command == "multihop":
        from .dessim.units import milliseconds
        from .experiments.multihop import (
            MultihopStudyConfig,
            format_multihop_table,
            summarize_multihop,
        )

        config = MultihopStudyConfig(
            n_values=args.n_values,
            beamwidths_deg=args.beamwidth,
            schemes=_schemes(args),
            topologies=args.topologies,
            sim_time_ns=seconds(args.sim_seconds),
            base_seed=args.seed,
            router=args.router,
            flow_interval_ns=milliseconds(args.flow_interval_ms),
            min_flow_hops=args.min_hops,
            relay_queue=args.relay_queue,
            ttl=args.ttl,
            rings=args.rings,
        )
        print(
            f"Multi-hop study: router={args.router}, "
            f"{config.topologies} topologies, {args.sim_seconds:g}s simulated"
        )
        cells = run_campaign(config, **_campaign_options(args))
        print(format_multihop_table(summarize_multihop(cells)))
    elif args.command == "ablation":
        from .experiments import (
            format_fixed_p_table,
            format_tfail_table,
            run_fixed_p_ablation,
            run_tfail_ablation,
        )

        print("Fixed p vs optimised p (N=5, theta=30dg):")
        print(format_fixed_p_table(run_fixed_p_ablation()))
        print()
        print("DRTS-OCTS T_fail lower bound:")
        print(format_tfail_table(run_tfail_ablation()))
    elif args.command == "slotsim":
        from .experiments import (
            SlotStudyConfig,
            format_slotsim_table,
            summarize_slotsim,
        )

        config = SlotStudyConfig(
            n_values=args.n_values,
            beamwidths_deg=args.beamwidths,
            schemes=_schemes(args),
            topologies=args.topologies,
            base_seed=args.seed,
            p=args.p,
            slots=args.slots,
            torus_factor=args.torus_factor,
        )
        print(
            f"Slot-model study (batch engine): p={args.p:g}, "
            f"{config.topologies} topologies x {args.slots:,} slots"
        )
        cells = run_campaign(config, **_campaign_options(args))
        print(format_slotsim_table(summarize_slotsim(cells)))
    elif args.command == "sinr":
        from .experiments.sinr_study import (
            SinrStudyConfig,
            format_sinr_table,
            run_sinr_study,
        )

        config = SinrStudyConfig(
            n_values=args.n_values,
            beamwidths_deg=args.beamwidths,
            schemes=_schemes(args),
            topologies=args.topologies,
            sim_time_ns=seconds(args.sim_seconds),
            base_seed=args.seed,
            pathloss_exponent=args.pathloss_exponent,
            shadowing_sigma_db=args.shadowing_sigma_db,
            sensitivity_dbm=args.sensitivity_dbm,
        )
        print(
            f"SINR/capture study: thresholds {args.capture_db} dB, "
            f"sigma={args.shadowing_sigma_db:g} dB, "
            f"{config.topologies} topologies, {args.sim_seconds:g}s simulated"
        )
        print(
            format_sinr_table(
                run_sinr_study(
                    config,
                    capture_db_values=args.capture_db,
                    **_campaign_options(args),
                )
            )
        )
    elif args.command == "baselines":
        from .experiments import format_baseline_table, run_baseline_ladder

        rows = run_baseline_ladder(
            n_neighbors=args.n, beamwidth_deg=args.beamwidth
        )
        print(
            f"Baseline ladder (N={args.n:g}, theta={args.beamwidth:g}dg): "
            "max throughput vs data length"
        )
        print(format_baseline_table(rows))
    elif args.command == "topology":
        from .net import TopologyConfig, generate_ring_topology
        from .report import topology_map

        topology = generate_ring_topology(
            TopologyConfig(n=args.n), random.Random(args.seed)
        )
        print(topology_map(topology, width=args.width))
    elif args.command == "p0":
        from .core import attempt_probability

        scheme = _analytic_scheme(args)
        print(
            f"p = p0 * exp(-N*u(p)) for {args.scheme}, N={args.n:g}, "
            f"theta={args.beamwidth:g}dg"
        )
        print("      p0         p    idle-prob  throughput(p)")
        for p0_value in args.p0_values:
            fb = attempt_probability(scheme, p0_value)
            print(
                f"{fb.p0:8.4f}  {fb.p:8.5f}  {fb.idle_probability:9.4f}  "
                f"{scheme.throughput(fb.p):13.4f}"
            )
    elif args.command == "curve":
        import numpy as np

        from .core.fastpath import throughput_curve
        from .report import line_chart

        if not 0.0 < args.p_max < 1.0:
            raise SystemExit(f"--p-max must be in (0, 1), got {args.p_max}")
        scheme = _analytic_scheme(args)
        grid = np.linspace(args.p_max / args.points, args.p_max, args.points)
        values = throughput_curve(scheme, grid)
        best = int(values.argmax())
        print(
            line_chart(
                {args.scheme: list(zip(grid.tolist(), values.tolist()))},
                title=(
                    f"Th(p), N={args.n:g}, theta={args.beamwidth:g}dg "
                    f"(peak {values[best]:.4f} at p={grid[best]:.4f})"
                ),
                x_label="p (per-slot transmission probability)",
                y_label="throughput",
            )
        )
    elif args.command == "fidelity":
        from .core import PAPER_PARAMETERS, SCHEME_FACTORIES
        from .slotsim import BatchSlotModelEngine, SlotModelConfig

        print(
            f"Model-fidelity ladder (N={args.n:g}, theta={args.beamwidth:g}dg, "
            f"p={args.p:g}, {args.slots} slots)"
        )
        print("scheme      Th(formula)  Th(slot-sim)  Tfail(formula)  Tfail(measured)")
        for scheme_name in ("ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS"):
            params = PAPER_PARAMETERS.with_neighbors(args.n).with_beamwidth(
                math.radians(args.beamwidth)
            )
            engine = BatchSlotModelEngine(
                SlotModelConfig(
                    params=params, scheme=scheme_name, p=args.p, seed=args.seed
                )
            )
            (measured,) = engine.run(args.slots)
            analytical = SCHEME_FACTORIES[scheme_name](params)
            print(
                f"{scheme_name:10s}  {analytical.throughput(args.p):11.4f}  "
                f"{measured.throughput_per_node:12.4f}  "
                f"{analytical.t_fail(args.p):14.2f}  "
                f"{measured.mean_fail_duration:15.2f}"
            )
    elif args.command == "campaign-worker":
        from .experiments.dispatch import ShardRunner
        from .experiments.dispatch.queue import DEFAULT_LEASE_SECONDS

        runner = ShardRunner(
            args.store,
            shard_id=args.shard_id,
            telemetry=not args.no_telemetry,
            lease_seconds=(
                DEFAULT_LEASE_SECONDS
                if args.lease_seconds is None
                else args.lease_seconds
            ),
            poll_seconds=args.poll_seconds,
            attached=args.attach,
        )
        report = runner.run()
        if not args.no_telemetry:
            # run() returns only once the grid is complete, so this
            # worker folds the telemetry summary into the manifest on
            # its way out.  Workers exiting near-simultaneously are
            # last-writer-wins; any later merge (a resume, another
            # worker) recomputes the summary from the full JSONL.
            runner.store.merge_telemetry_summary()
        print(
            f"shard {report.shard}: {report.computed} computed, "
            f"{report.imported} imported, {report.skipped} skipped, "
            f"{report.steals} steals, {report.retries} retries "
            f"({report.cells_total} cells in grid)"
        )
    elif args.command == "campaign-watch":
        summary = watch_campaign_cli(args)
        if not summary.finished:
            return 1
    elif args.command == "profile":
        return _run_profile(args)
    elif args.command == "validate":
        from .core import estimate_p_ws, simulate_node_chain

        scheme = _analytic_scheme(args)
        estimate = estimate_p_ws(
            scheme, args.p, random.Random(1), samples=args.samples
        )
        closed = scheme.p_ws(args.p)
        walk = simulate_node_chain(scheme, args.p, random.Random(2))
        formula = scheme.throughput(args.p)
        agree = estimate.within(closed)
        print(f"scheme={args.scheme} N={args.n:g} theta={args.beamwidth:g}dg p={args.p:g}")
        print(
            f"  P_ws: closed-form {closed:.6f}  monte-carlo "
            f"{estimate.mean:.6f} +- {estimate.std_error:.6f}  "
            f"[{'OK' if agree else 'DISAGREE'}]"
        )
        print(f"  Th:   formula {formula:.6f}  chain-walk {walk:.6f}")
        if not agree:
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
