"""The paper's primary contribution: the Robust Recovery (RR) TCP
congestion-recovery algorithm (Wang & Shin, ICDCS 2001)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "robust_recovery": ("RobustRecoverySender", "RrPhase"),
    },
)
