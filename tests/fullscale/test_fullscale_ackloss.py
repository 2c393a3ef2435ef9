"""Full scale: the Section 2.3 ACK-loss study (extension experiment).

Paper claim (§2.3): RR "is more robust to ACK losses than New-Reno;
rare ACK losses cause only a slight negative effect" — an ACK loss can
only trigger a *linear* actnum shrink, never a multiplicative cut or
(directly) a timeout.
"""

from repro.experiments.ackloss import AckLossConfig, format_report, run_ackloss


def _cell(result, variant, rate):
    return next(
        r for r in result.rows if r.variant == variant and r.ack_loss_rate == rate
    )


def test_fullscale_ackloss():
    config = AckLossConfig()
    result = run_ackloss(config)
    print()
    print(format_report(result))

    rates = list(config.ack_loss_rates)
    clean, heavy = rates[0], rates[-1]

    # RR degrades gracefully: even at the heaviest ACK-loss rate it
    # keeps a substantial fraction of its clean-path goodput.
    rr_clean = _cell(result, "rr", clean).goodput_bps
    rr_heavy = _cell(result, "rr", heavy).goodput_bps
    assert rr_heavy > 0.25 * rr_clean

    # And it keeps beating New-Reno across the sweep.
    for rate in rates:
        rr = _cell(result, "rr", rate).goodput_bps
        newreno = _cell(result, "newreno", rate).goodput_bps
        assert rr > 0.9 * newreno, f"rate={rate}"

    # Every configuration still completed its transfer.
    for row in result.rows:
        assert row.completed_ratio == 1.0
