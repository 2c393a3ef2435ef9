"""Full scale: the Vegas decomposition (paper §1 / Hengartner et al. [8]).

Asserts the claim the RR paper builds on: Vegas' edge over Reno comes
from its slow-start/recovery techniques, not the delay-based congestion
avoidance in isolation.
"""

from repro.experiments.vegas_decomposition import (
    VegasDecompositionConfig,
    format_report,
    run_vegas_decomposition,
)


def test_fullscale_vegas_decomposition():
    result = run_vegas_decomposition(VegasDecompositionConfig())
    print()
    print(format_report(result))

    reno = result.row("reno")
    vegas = result.row("vegas")
    ca_only = result.row("vegas-ca-only")
    rec_only = result.row("vegas-rec-only")

    for row in result.rows:
        assert row.complete_time is not None, f"{row.name} did not finish"

    # Vegas beats Reno outright.
    assert vegas.complete_time < reno.complete_time

    # The recovery-side techniques capture most of the gain...
    gain_full = reno.complete_time - vegas.complete_time
    gain_rec = reno.complete_time - rec_only.complete_time
    assert gain_rec >= 0.7 * gain_full

    # ...while the CA alone captures much less (the [8] conclusion).
    gain_ca = reno.complete_time - ca_only.complete_time
    assert gain_ca <= 0.5 * gain_full
