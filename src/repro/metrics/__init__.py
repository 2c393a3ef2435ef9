"""Measurement: per-flow statistics, effective throughput, recovery
episode analysis, sequence-number time series and fairness indices."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "flowstats": ("FlowStats", "LeanFlowStats", "RecoveryEpisode"),
        "throughput": (
            "effective_throughput_bps",
            "goodput_bps",
            "loss_recovery_span",
            "loss_recovery_throughput",
            "recovery_span_throughput",
        ),
        "fairness": ("jain_index",),
        "timeseries": ("SequenceTracer",),
        "export": ("NsTraceWriter", "flow_stats_to_csv", "rows_to_csv", "rows_to_json"),
        "queuemon": ("QueueMonitor",),
        "utilization": ("LinkMonitor",),
        "sync": (
            "cluster_loss_events",
            "loss_synchronization_index",
            "mean_flows_per_event",
        ),
    },
)
