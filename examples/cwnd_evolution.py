"""Congestion-window evolution around a loss burst.

Plots cwnd(t) for New-Reno and RR through the same engineered 6-drop
burst.  The visible difference is the paper's core idea: New-Reno's
cwnd gyrates through inflation/deflation during recovery, while RR
*freezes* cwnd (control belongs to actnum) and reassigns it once, at
the exit, to an accurate in-flight count.

Run:  python examples/cwnd_evolution.py
"""

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.metrics.throughput import loss_recovery_span
from repro.net.loss import DeterministicLoss
from repro.net.topology import DumbbellParams
from repro.viz.ascii import ascii_scatter


def run(variant: str):
    loss = DeterministicLoss([(1, 100 + i) for i in range(6)])
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=600)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        default_config=TcpConfig(receiver_window=64, initial_ssthresh=20.0),
        forward_loss=loss,
    )
    scenario.sim.run(until=8.0)
    return scenario.flow(1)


def main() -> None:
    for variant in ("newreno", "rr"):
        sender, stats = run(variant)
        span = loss_recovery_span(stats)
        window = [
            (t, cwnd)
            for t, cwnd in stats.cwnd_series
            if span and span[0] - 0.6 <= t <= span[1] + 1.5
        ]
        print(
            ascii_scatter(
                {"cwnd": window},
                title=f"--- {variant}: cwnd through the 6-drop burst ---",
                x_label="time (s)",
                y_label="cwnd (packets)",
                height=12,
            )
        )
        if span:
            print(f"recovery span: {span[0]:.2f}s .. {span[1]:.2f}s\n")
    print(
        "(New-Reno: inflation spikes and full deflations every partial ACK;"
        "\n RR: cwnd silent during recovery — actnum is in control — then one"
        "\n clean hand-over at exit)"
    )


if __name__ == "__main__":
    main()
