"""RED gateway dynamics: the Figure-6 experiment as a live demo.

Ten flows share a 0.8 Mb/s bottleneck behind a RED gateway configured
exactly as the paper's Table 4 (min 5, max 20, max_p 0.02, w_q 0.002,
buffer 25).  Each run uses one recovery scheme for every flow; flow 1's
sequence-number trace is plotted, New-Reno's stall and RR's steady ramp
side by side.

Run:  python examples/red_gateway_dynamics.py [seed]
"""

import sys

from repro.experiments.figure6 import Figure6Config, run_figure6
from repro.viz.ascii import ascii_scatter, format_table


def main(seed: int = 7) -> None:
    results = run_figure6(Figure6Config(seed=seed)).flows

    rows = []
    for variant, flow in results.items():
        rows.append(
            [
                variant,
                flow.final_ack,
                f"{flow.throughput_bps / 1000:.0f}",
                flow.timeouts,
                f"{flow.longest_stall:.2f}",
            ]
        )
    print(f"RED gateway, 10 flows, 6 s, seed={seed} (flow 1 shown)\n")
    print(format_table(
        ["scheme", "final packet", "kbps", "RTOs", "longest stall s"], rows
    ))

    for variant, flow in results.items():
        print()
        print(
            ascii_scatter(
                {
                    "send": flow.trace.sends,
                    "rtx": flow.trace.retransmits,
                    "ack": flow.trace.acks,
                },
                title=f"--- {variant} ---",
                x_label="time (s)",
                y_label="packet number",
                height=14,
            )
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
