"""Full scale: ablation of RR's design choices (DESIGN.md §5,
ext-ablation).

Quantifies what each mechanism buys:

* removing the probe's linear growth costs recovery-period throughput;
* keeping the exponential retreat policy for the whole recovery
  reproduces the New-Reno decay the paper attacks;
* resetting actnum on further loss (instead of the linear shrink)
  over-reacts to noise;
* exiting with cwnd = ssthresh reintroduces the big-ACK burst.
"""

from repro.experiments.ablation import AblationConfig, format_report, run_ablation


def _row(result, name):
    return next(r for r in result.rows if r.name == name)


def test_fullscale_ablation():
    result = run_ablation(AblationConfig())
    print()
    print(format_report(result))

    full = _row(result, "rr")
    retreat_always = _row(result, "rr-retreat-always")
    burst_exit = _row(result, "rr-burst-exit")

    # The probe sub-phase's per-dup-ACK clocking is the big win: the
    # always-exponential variant collapses toward New-Reno performance.
    assert retreat_always.recovery_throughput_bps < 0.7 * full.recovery_throughput_bps

    # Exit accounting: the ssthresh-exit variant bursts at exit, the
    # real RR does not.
    assert burst_exit.max_burst_after_exit >= full.max_burst_after_exit

    # None of the ablations should break recovery outright.
    for row in result.rows:
        assert row.recovery_throughput_bps is not None
