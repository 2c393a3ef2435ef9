"""Full scale: regenerate Figure 6 (sequence-number dynamics under RED
gateways, 10 flows, 6 seconds).

Paper reference (Fig. 6 panels, p. 205): New-Reno's trace flatlines
into a coarse timeout; RR and SACK keep the sequence ramp moving, with
RR finishing highest (~120 packets in 6 s vs ~50 for New-Reno).
"""

from repro.experiments.figure6 import Figure6Config, format_report, run_figure6


def test_fullscale_figure6():
    result = run_figure6(Figure6Config())
    print()
    print(format_report(result))

    newreno = result.flows["newreno"]
    sack = result.flows["sack"]
    rr = result.flows["rr"]

    # RR and SACK far ahead of New-Reno (paper: "significantly higher").
    assert rr.final_ack > 1.5 * newreno.final_ack
    assert sack.final_ack > 1.5 * newreno.final_ack
    # RR is SACK-class under RED (paper claims slightly ahead; we accept
    # a narrow band either way — see EXPERIMENTS.md).
    assert rr.final_ack > 0.8 * sack.final_ack
    # The New-Reno pathology is visible: a long ACK stall or a timeout.
    assert newreno.timeouts >= 1 or newreno.longest_stall > 1.0
    # RR may pay at most one RTO (a lost retransmission — the one case
    # RR explicitly leaves to the timer; the paper's own Fig. 6(c)
    # trace shows the same ~1 s gap around t=2.4-3.3 s).
    assert rr.timeouts <= 1
