"""Terminal visualization: ASCII scatter plots and aligned tables for
the experiment harnesses (no plotting dependency required)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ascii": ("ascii_scatter", "ascii_step_series", "format_table"),
    },
)
