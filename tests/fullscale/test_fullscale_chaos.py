"""Full scale: the full chaos campaign (docs/FAULTS.md).

Every variant vs. five seeded fault campaigns with the invariant suite
and watchdog engaged — the robustness gate at full scale.  Asserts the
hard contract (survival everywhere) and the paper's §2.3 shape: RR's
goodput fraction under mixed faults stays at least in New-Reno's
neighbourhood, because missing dup-ACKs cost RR a linear ``actnum``
shrink rather than a multiplicative cut.
"""

from repro.experiments.chaos import ChaosConfig, format_report, run_chaos


def test_fullscale_chaos():
    result = run_chaos(ChaosConfig())
    print()
    print(format_report(result))

    # Hard contract: every run survives with exactly-once delivery,
    # zero invariant violations and zero watchdog aborts.
    assert result.clean
    for run in result.runs:
        assert run.delivered == result.config.transfer_packets

    # The campaigns are not a no-op: faults measurably cost goodput
    # somewhere, and some run paid a retransmission timeout.
    summaries = {v: result.summary(v) for v in result.config.variants}
    assert any(s.goodput_vs_baseline < 0.999 for s in summaries.values())
    assert any(r.timeouts > 0 for r in result.runs)

    # Paper §2.3 shape under mixed fault load.
    assert summaries["rr"].goodput_vs_baseline >= 0.9 * summaries[
        "newreno"
    ].goodput_vs_baseline
