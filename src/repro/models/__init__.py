"""Analytical TCP throughput models used in Section 4 of the paper."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "mathis": (
            "MATHIS_C_ACK_EVERY_PACKET",
            "mathis_bandwidth_bps",
            "mathis_window",
        ),
        "padhye": ("padhye_bandwidth_bps",),
        "fit": ("estimate_mathis_c", "fit_quality", "relative_errors"),
        "meanfield": (
            "MeanFieldParams",
            "MeanFieldPrediction",
            "OracleVerdict",
            "effective_drop_probability",
            "meanfield_fixed_point",
            "oracle_verdict",
            "red_drop_curve",
        ),
        "relentless": (
            "RelentlessModelParams",
            "RelentlessPrediction",
            "relentless_prediction",
            "relentless_window",
        ),
    },
)
