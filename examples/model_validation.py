"""Validating the Mathis model against the simulator (Section 4).

Sweeps the uniform loss rate for a single RR flow with RTT = 200 ms,
then lines the measured throughput up against Mathis et al.'s
square-root law, BW = (MSS/RTT) * C/sqrt(p).  The law assumes no
timeouts, so it is an upper bound the measurements fall away from as
losses get heavy; a least-squares fit of C to the measured windows
shows by how much.

Run:  python examples/model_validation.py
"""

from repro.experiments.figure7 import Figure7Config, run_point
from repro.models.fit import estimate_mathis_c
from repro.models.mathis import mathis_window
from repro.viz.ascii import ascii_scatter, format_table

LOSS_RATES = (0.005, 0.01, 0.02, 0.05, 0.1)
RTT = 0.2
MSS = 1000


def main() -> None:
    config = Figure7Config(loss_rates=LOSS_RATES, duration=60.0, runs_per_point=2)
    rows = []
    measured = []
    for p in LOSS_RATES:
        point = run_point("rr", p, config)
        mathis = mathis_window(p) * MSS * 8 / RTT
        rows.append(
            [
                f"{p:.3f}",
                f"{point.throughput_bps / 1000:.0f}",
                f"{mathis / 1000:.0f}",
                f"{point.timeouts:.1f}",
            ]
        )
        measured.append((p, point.window))
    print("RR flow, RTT 200 ms, uniform random loss\n")
    print(format_table(["p", "measured kbps", "Mathis kbps", "RTOs/run"], rows))
    print(f"\nfitted C = {estimate_mathis_c(measured):.2f}"
          f" (the law's sqrt(3/2) = {mathis_window(1.0):.2f})\n")
    print(
        ascii_scatter(
            {
                "mathis-bound": [(p, mathis_window(p)) for p in LOSS_RATES],
                "measured": measured,
            },
            title="window vs loss rate (packets)",
            x_label="loss rate",
            y_label="W",
            height=14,
        )
    )
    print(
        "\nShape check (paper §4): measurements sit near the square-root law"
        "\nat small p and fall below it as timeouts appear."
    )


if __name__ == "__main__":
    main()
