"""Experiment harnesses: one module per table/figure of the paper's
evaluation, plus extension studies (ACK loss, ablations).

Every harness exposes:

* a ``*Config`` record with the paper's parameters as defaults,
* a ``run_*`` function returning a structured result object,
* a ``format_report`` function rendering the paper-vs-measured rows,
* a ``run_cli`` adapter from parsed command-line options to the report,

and is runnable from the command line via ``python -m repro.experiments
<id>`` (see :mod:`repro.experiments.cli`, which imports a harness when
its id is selected).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "chaos": ("ChaosConfig", "run_chaos"),
        "common": ("ScenarioResult", "build_dumbbell_scenario"),
        "figure5": ("Figure5Config", "run_figure5"),
        "figure6": ("Figure6Config", "run_figure6"),
        "figure7": ("Figure7Config", "run_figure7"),
        "manyflow": ("ManyflowConfig", "run_manyflow"),
        "table5": ("Table5Config", "run_table5"),
        "ackloss": ("AckLossConfig", "run_ackloss"),
        "ablation": ("AblationConfig", "run_ablation"),
        "replication": ("Summary", "replicate", "summarize"),
        "vegas_decomposition": ("VegasDecompositionConfig", "run_vegas_decomposition"),
    },
)
