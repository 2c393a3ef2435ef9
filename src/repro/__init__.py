"""repro — a reproduction of "Robust TCP Congestion Recovery"
(Haining Wang & Kang G. Shin, ICDCS 2001).

The package bundles:

* :mod:`repro.core` — the paper's contribution, the Robust Recovery
  (RR) congestion-recovery algorithm;
* :mod:`repro.tcp` — the baselines it is evaluated against (Tahoe,
  Reno, New-Reno, SACK) on shared sender machinery;
* :mod:`repro.sim` / :mod:`repro.net` — a packet-level discrete-event
  network simulator (the ns-2 substitute): links, drop-tail and RED
  gateways, loss injection, the paper's dumbbell topology;
* :mod:`repro.models` — the Mathis square-root model (Section 4) and
  the mean-field RED oracle;
* :mod:`repro.metrics` / :mod:`repro.experiments` — measurement and
  the harnesses regenerating every table and figure in the paper.

Quickstart
----------
>>> from repro import Simulator, Dumbbell, DumbbellParams, make_connection, FtpSource
>>> sim = Simulator()
>>> bell = Dumbbell(sim, DumbbellParams(n_pairs=1))
>>> sender, _ = make_connection(sim, "rr", 1, bell.sender(1), bell.receiver(1))
>>> ftp = FtpSource(sim, sender, amount_packets=200)
>>> sim.run(until=30.0)
>>> sender.completed
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "app.ftp": ("FtpSource",),
        "config": ("TcpConfig",),
        "core.robust_recovery": ("RobustRecoverySender", "RrPhase"),
        "errors": (
            "CallbackError",
            "ConfigurationError",
            "InvariantViolation",
            "ProtocolError",
            "ReproError",
            "SchedulingError",
            "SimulationError",
            "TopologyError",
        ),
        "faults": ("CampaignRunner", "CampaignSpec", "FaultPlan"),
        "metrics.flowstats": ("FlowStats",),
        "net.loss": ("AckLoss", "DeterministicLoss", "UniformLoss"),
        "net.red": ("RedParams", "RedQueue"),
        "net.queues": ("DropTailQueue",),
        "net.topology": ("Dumbbell", "DumbbellParams"),
        "sim.engine": ("Simulator",),
        "tcp.factory": ("VARIANTS", "make_connection"),
    },
)
__all__.insert(0, "__version__")
