"""High-level analysis: run variant matrices over a scenario and
aggregate across seeds."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "compare": (
            "ComparisonConfig",
            "ComparisonResult",
            "compare_variants",
            "format_comparison",
        ),
    },
)
