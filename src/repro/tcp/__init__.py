"""TCP agents: the sender base machinery, the baseline variants the
paper compares against (Tahoe, Reno, New-Reno, SACK), two additional
recovery schemes the paper's introduction discusses (right-edge
recovery and Lin-Kung), and the receiver side.

The paper's contribution, Robust Recovery, lives in
:mod:`repro.core.robust_recovery` and plugs into the same base class.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": ("SenderObserver", "TcpSender"),
        "factory": (
            "VARIANTS",
            "make_connection",
            "receiver_class_for",
            "sender_class_for",
        ),
        "newreno": ("NewRenoSender",),
        "receiver": ("SackReceiver", "TcpReceiver"),
        "reno": ("RenoSender",),
        "rightedge": ("LinKungSender", "RightEdgeSender"),
        "rtt": ("RtoEstimator",),
        "sack": ("SackRfc3517Sender", "SackSender"),
        "scoreboard": ("Scoreboard",),
        "tahoe": ("TahoeSender",),
        "vegas": ("VegasSender",),
    },
)
