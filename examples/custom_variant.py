"""Extending the library: build, run and evaluate your own variant.

The future-work question this answers: RR's probe sub-phase grows
``actnum`` by one packet per RTT — what if it probed more aggressively?
We define **RR-AI2** (additive increase of 2 per clean RTT) in ~15
lines, then race it against stock RR on the Figure-5 burst and on a
lossier channel to see both the upside (faster ramp) and the cost (more
self-inflicted drops on the probe path).

Run:  python examples/custom_variant.py
"""

from repro.config import TcpConfig
from repro.core.robust_recovery import RobustRecoverySender
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.metrics.throughput import goodput_bps, loss_recovery_span
from repro.net.loss import DeterministicLoss, GilbertElliott
from repro.net.topology import DumbbellParams
from repro.sim.rng import RngStream
from repro.viz.ascii import format_table


class RrAggressiveProbe(RobustRecoverySender):
    """RR whose clean probe boundaries grow actnum by 2 (one extra
    new packet beyond stock RR's one)."""

    variant = "rr-ai2"

    def _probe_rtt_boundary(self, ackno: int) -> None:
        clean = self.ndup >= min(self.actnum, self._sent_last_rtt)
        super()._probe_rtt_boundary(ackno)
        if clean and self._send_one_new():
            self._sent_this_rtt += 1
            self.actnum += 1  # the second increment


def burst_case(sender_cls):
    loss = DeterministicLoss([(1, 100 + i) for i in range(6)])
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant="rr", amount_packets=600)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        default_config=TcpConfig(receiver_window=64, initial_ssthresh=20.0),
        forward_loss=loss,
        sender_overrides={1: sender_cls} if sender_cls else None,
    )
    scenario.sim.run(until=60.0)
    sender, stats = scenario.flow(1)
    span = loss_recovery_span(stats)
    window = goodput_bps(stats, span[0], span[0] + 2.0) if span else 0.0
    return sender, stats, window


def lossy_case(sender_cls, seed=11):
    channel = GilbertElliott(
        RngStream(seed, "ge"), p_good_to_bad=0.02, p_bad_to_good=0.4, p_bad=0.5
    )
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant="rr", amount_packets=400)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        forward_loss=channel,
        sender_overrides={1: sender_cls} if sender_cls else None,
    )
    scenario.sim.run(until=300.0)
    return scenario.flow(1)


def main() -> None:
    rows = []
    for label, cls in (("rr (stock)", None), ("rr-ai2", RrAggressiveProbe)):
        sender, stats, window = burst_case(cls)
        lossy_sender, lossy_stats = lossy_case(cls)
        rows.append(
            [
                label,
                f"{window / 1000:.0f}",
                sender.timeouts,
                f"{lossy_sender.complete_time:.1f}",
                lossy_stats.drops_observed,
                lossy_sender.timeouts,
            ]
        )
    print("custom probe policy: additive increase of 2/RTT during recovery\n")
    print(
        format_table(
            [
                "variant",
                "burst 2s-window kbps",
                "burst RTOs",
                "lossy done at s",
                "lossy drops",
                "lossy RTOs",
            ],
            rows,
        )
    )
    print(
        "\n(faster probing buys nothing — it can even lose: the second"
        "\n growth packet goes out after the boundary retransmission, so its"
        "\n duplicate ACK lands behind the next partial ACK and reads as a"
        "\n further loss, shrinking actnum right back.  RR's accounting is"
        "\n delicately phase-aligned; the paper's +1/RTT, mirroring"
        "\n congestion avoidance, is the natural fixed point.)"
    )


if __name__ == "__main__":
    main()
