"""Full scale: the Gilbert-Elliott bursty-channel sweep (extension).

The paper's premise is that bursty in-window loss is the hard case for
TCP recovery; this test stresses the schemes on an inherently bursty
channel at a fixed average loss rate and checks that every scheme
remains functional and the strong recovery schemes stay competitive.
"""

from repro.experiments.burstchannel import (
    BurstChannelConfig,
    format_report,
    run_burstchannel,
)


def test_fullscale_burstchannel():
    config = BurstChannelConfig(runs_per_point=4)
    result = run_burstchannel(config)
    print()
    print(format_report(result))

    for row in result.rows:
        assert row.completed_ratio == 1.0, (
            f"{row.variant} failed to finish at burst {row.burst_length}"
        )

    # At the same stationary loss rate, longer bursts mean fewer loss
    # events: every scheme should do no worse at the longest bursts
    # than at isolated losses (within noise).
    for variant in config.variants:
        short = result.cell(variant, config.burst_lengths[0]).throughput_bps
        long = result.cell(variant, config.burst_lengths[-1]).throughput_bps
        assert long > 0.5 * short, variant

    # The partial-ACK/scoreboard schemes stay ahead of Reno once bursts
    # appear (burst length >= 2).
    for burst_length in config.burst_lengths[1:]:
        reno = result.cell("reno", burst_length).throughput_bps
        for strong in ("newreno", "sack", "rr"):
            assert result.cell(strong, burst_length).throughput_bps > 0.85 * reno
