"""Beyond the paper: the extension mechanisms, side by side.

Two mini-studies using machinery the paper references but does not
evaluate:

1. **Vegas decomposition** (§1 / ref [8]) — is Vegas' gain really in
   its recovery techniques rather than its delay-based CA?
2. **ECN** — with marking instead of dropping at the RED gateway, how
   much recovery work disappears entirely?

Run:  python examples/beyond_the_paper.py
"""

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.experiments.vegas_decomposition import (
    VegasDecompositionConfig,
    format_report,
    run_vegas_decomposition,
)
from repro.net.red import RedParams, RedQueue
from repro.net.topology import DumbbellParams
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream
from repro.viz.ascii import format_table


def vegas_study() -> None:
    print("=" * 70)
    print(format_report(run_vegas_decomposition(VegasDecompositionConfig())))


def ecn_study() -> None:
    print("=" * 70)
    print("ECN at the RED gateway: marks replace early drops\n")
    rows = []
    for label, ecn in (("drop (classic RED)", False), ("mark (ECN RED)", True)):
        sim = Simulator()
        rng = RngStream(11, f"red-{ecn}")
        # Deep buffer + fast-moving average: congestion is signalled by
        # RED's early action, not by buffer overflow.
        params = RedParams(
            ecn=ecn, weight=0.05, min_th=5, max_th=15, max_p=0.1, limit=60
        )
        scenario = build_dumbbell_scenario(
            flows=[FlowSpec(variant="newreno", amount_packets=500)],
            params=DumbbellParams(n_pairs=1, buffer_packets=60),
            default_config=TcpConfig(ecn_enabled=ecn),
            bottleneck_queue_factory=lambda name: RedQueue(
                sim, params, rng.substream(name), name=name
            ),
            sim=sim,
        )
        scenario.sim.run(until=120.0)
        sender, stats = scenario.flow(1)
        queue = scenario.dumbbell.bottleneck_queue
        rows.append(
            [
                label,
                f"{sender.complete_time:.2f}",
                stats.drops_observed,
                queue.ecn_marks,
                sender.retransmits,
                sender.ecn_reactions,
            ]
        )
    print(format_table(
        ["gateway", "done at s", "drops", "marks", "rtx", "ECN backoffs"], rows
    ))
    print("\n(every mark row in the table is a congestion signal that cost"
          "\n zero retransmissions — the more of RED's action happens as"
          "\n marks, the less recovery work is left for RR to optimise)")


if __name__ == "__main__":
    vegas_study()
    ecn_study()
