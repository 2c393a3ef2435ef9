"""Full scale: regenerate Figure 5 (effective throughput during
recovery from 3/6 in-window losses, drop-tail gateways).

Paper reference values (read off Figure 5's bars, ICDCS'01 p. 204):
the ordering RR >= SACK > {Tahoe, New-Reno} in both panels, with
New-Reno worst and below Tahoe at 6 drops.
"""

from repro.experiments.figure5 import Figure5Config, format_report, run_figure5


def test_fullscale_figure5():
    result = run_figure5(Figure5Config())
    print()
    print(format_report(result))

    def kbps(variant, drops):
        return result.row(variant, drops).recovery_throughput_bps

    for drops in (3, 6):
        assert kbps("rr", drops) > kbps("newreno", drops), (
            f"RR must beat New-Reno at {drops} drops"
        )
        assert kbps("rr", drops) >= 0.9 * kbps("sack", drops), (
            f"RR must be at least SACK-class at {drops} drops"
        )
    assert kbps("tahoe", 6) > kbps("newreno", 6), (
        "paper: Tahoe more robust than New-Reno under heavy bursty loss"
    )
    # Nobody needed a retransmission timeout in the engineered scenarios
    # except (possibly) the weak baselines.
    assert result.row("rr", 6).timeouts == 0
    assert result.row("sack", 6).timeouts == 0
