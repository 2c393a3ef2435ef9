"""Application layer: traffic sources driving the TCP agents."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ftp": ("FtpSource",),
        "workload": (
            "FixedSize",
            "JitteredArrivals",
            "LognormalSizes",
            "OnOffSource",
            "ParetoSizes",
            "PoissonArrivals",
            "PoissonTransfers",
            "StaggeredArrivals",
            "TransferRecord",
        ),
    },
)
