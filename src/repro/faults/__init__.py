"""Fault injection: declarative plans, seeded campaigns, tampering.

The chaos harness's offense half (see docs/FAULTS.md).  A
:class:`FaultPlan` is a data-only schedule of fault actions installable
onto any built topology; a :class:`CampaignRunner` samples plans from a
seeded stream within :class:`CampaignSpec` bounds.  The defense half —
invariant checking and the watchdog — lives in :mod:`repro.sim`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "campaign": ("CampaignRunner", "CampaignSpec"),
        "plan": (
            "AckLossEpisode",
            "BurstLossEpisode",
            "FaultAction",
            "FaultContext",
            "FaultPlan",
            "LinkFlap",
            "LinkOutage",
            "PacketCorruption",
            "PacketDuplication",
            "PeriodicDropEpisode",
            "RouterBlackout",
            "TimerSkew",
        ),
        "tamper": ("PacketTamperer",),
        "triage": ("TriageResult", "neutralize_faults", "triage_crash"),
    },
)
