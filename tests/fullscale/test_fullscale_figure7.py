"""Full scale: regenerate Figure 7 (fitness to the Mathis square-root
model; window vs uniform loss rate, RR and SACK).

Paper reference (Fig. 7, p. 205): both schemes hug the bound at small
p; with increasing p both fall below it because retransmission losses
and tiny windows force timeouts; RR at least as close as SACK.
"""

from repro.experiments.figure7 import Figure7Config, format_report, run_figure7
from repro.models.mathis import mathis_window


def test_fullscale_figure7():
    result = run_figure7(Figure7Config())
    print()
    print(format_report(result))

    for variant in ("sack", "rr"):
        series = dict(result.series(variant))
        rates = sorted(series)
        # Monotone decreasing window with loss rate.
        values = [series[p] for p in rates]
        assert all(a >= b for a, b in zip(values, values[1:])), variant
        # Tracks the model at the smallest rate (within a 0.6x band).
        smallest = rates[0]
        assert series[smallest] >= 0.6 * mathis_window(smallest), variant
        # Falls clearly below the bound at the largest rate (timeouts).
        largest = rates[-1]
        assert series[largest] <= 0.8 * mathis_window(largest), variant

    # RR is SACK-class in fitness across the sweep.
    rr = dict(result.series("rr"))
    sack = dict(result.series("sack"))
    ratio = sum(rr[p] for p in rr) / sum(sack[p] for p in sack)
    assert ratio > 0.65
