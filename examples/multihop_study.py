#!/usr/bin/env python3
"""End-to-end flows over the relay plane: greedy vs shortest-path.

The paper's Section-4 evaluation is single-hop: every destination is a
direct neighbor.  This example routes traffic instead — each node
originates one flow toward a destination at least two hops away, and
packets are relayed by the `repro.route` forwarding plane on top of
the unchanged directional MAC.  Greedy geographic forwarding (using
the paper's perfect-neighbor-protocol assumption) runs against the
idealized shortest-path baseline: the gap between them is geographic
dead ends, not MAC behaviour.

Run:  python examples/multihop_study.py   (takes ~1 minute)
"""

from repro.dessim import seconds
from repro.experiments import (
    MultihopStudyConfig,
    format_multihop_table,
    run_campaign,
    summarize_multihop,
)


def main() -> None:
    for router in ("greedy", "shortest-path"):
        print(f"=== router: {router}, N = 5, two rings ===")
        config = MultihopStudyConfig(
            n_values=(5,),
            beamwidths_deg=(30.0, 90.0, 150.0),
            schemes=("ORTS-OCTS", "DRTS-OCTS"),
            topologies=2,
            sim_time_ns=seconds(0.5),
            base_seed=7,
            router=router,
            rings=2,
        )
        print(format_multihop_table(summarize_multihop(run_campaign(config))))
    print("Reading: ORTS-OCTS ignores beamwidth (omni RTS/CTS), so its")
    print("column is flat; the directional scheme trades spatial reuse")
    print("against deafness along the relay path.  If greedy trails the")
    print("shortest-path baseline, the loss is geographic dead ends.")


if __name__ == "__main__":
    main()
