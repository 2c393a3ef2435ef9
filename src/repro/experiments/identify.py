"""The ``identify`` harness: run the behavior-class oracle as a sweep.

For every (variant, loss-cell) in the chosen grid the harness runs the
scenario, extracts the flow's trace features, classifies them against
the committed reference model, and reports the confusion matrix plus
any divergence between declared and identified class.  Verdicts land
in the run manifest through :meth:`RunManifest.note_identity`, the
same pattern manyflow uses for its mean-field oracle: the manifest
records what each run *behaved like*, not just that it finished.

This is the CLI face of :mod:`repro.ident`; docs/IDENTIFICATION.md
walks through the workflow.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro._record import Record, field
from repro.errors import ConfigurationError
from repro.experiments.common import known_variants
from repro.ident.dataset import (
    HELDOUT_GRID,
    IDENT_VARIANTS,
    TRAINING_GRID,
    IdentScenario,
    collect_grid,
)
from repro.ident.features import FeatureVector
from repro.ident.oracle import (
    IdentityVerdict,
    identify_features,
    load_reference_classifier,
)

#: Grid spellings accepted by :attr:`IdentifyConfig.grid`.
GRIDS = {
    "heldout": lambda: HELDOUT_GRID,
    "training": lambda: TRAINING_GRID,
    "both": lambda: TRAINING_GRID + HELDOUT_GRID,
}


class IdentifyConfig(Record):
    """Sweep shape for the identification harness."""

    variants: Tuple[str, ...] = IDENT_VARIANTS
    #: Which scenario grid to sweep: "heldout" (default — the cells the
    #: reference model never saw), "training", or "both".
    grid: str = "heldout"

    def scenarios(self) -> Tuple[IdentScenario, ...]:
        try:
            return GRIDS[self.grid]()
        except KeyError:
            raise ConfigurationError(
                f"unknown ident grid {self.grid!r}; expected one of"
                f" {sorted(GRIDS)}"
            ) from None


class IdentifyRow(Record):
    """One (variant, cell) outcome."""

    variant: str
    key: str
    vector: FeatureVector
    verdict: IdentityVerdict

    @property
    def label(self) -> str:
        return f"{self.variant}/{self.key}"


class IdentifyResult(Record):
    config: IdentifyConfig
    model_digest: str
    rows: List[IdentifyRow] = field(default_factory=list)

    @property
    def confusion(self) -> Dict[str, Dict[str, int]]:
        """``{declared: {identified: count}}`` over the swept cells."""
        matrix: Dict[str, Dict[str, int]] = {
            v: {w: 0 for w in self.config.variants} for v in self.config.variants
        }
        for row in self.rows:
            matrix[row.variant].setdefault(row.verdict.identified, 0)
            matrix[row.variant][row.verdict.identified] += 1
        return matrix

    @property
    def diverged(self) -> List[IdentifyRow]:
        """Rows whose conclusive identification contradicts the
        declared variant."""
        return [row for row in self.rows if row.verdict.diverged]

    @property
    def inconclusive(self) -> List[IdentifyRow]:
        return [row for row in self.rows if not row.verdict.conclusive]


def run_identify(
    config: Optional[IdentifyConfig] = None,
    runner: Optional["SweepRunner"] = None,  # noqa: F821 - lazy type
    manifest: Optional["RunManifest"] = None,  # noqa: F821 - lazy type
) -> IdentifyResult:
    """Sweep the grid and classify every run's behavior."""
    config = config or IdentifyConfig()
    model = load_reference_classifier()
    if manifest is not None:
        manifest.describe_harness(
            "identify", config=config, model_digest=model.digest()
        )
    result = IdentifyResult(config=config, model_digest=model.digest())
    for variant, key, vector in collect_grid(
        config.scenarios(), variants=config.variants, runner=runner
    ):
        verdict = identify_features(vector, declared=variant, classifier=model)
        row = IdentifyRow(variant=variant, key=key, vector=vector, verdict=verdict)
        result.rows.append(row)
        if manifest is not None:
            manifest.note_identity(row.label, verdict)
    return result


def format_confusion(
    confusion: Dict[str, Dict[str, int]], variants: Sequence[str]
) -> str:
    """Render ``{declared: {identified: count}}`` as a fixed-width
    table (rows = declared, columns = identified)."""
    width = max(len(v) for v in variants)
    lines = [
        " " * (width + 2)
        + "".join(f"{v:>{width + 2}}" for v in variants)
        + "   (identified)"
    ]
    for declared in variants:
        row = confusion.get(declared, {})
        cells = "".join(f"{row.get(v, 0):>{width + 2}}" for v in variants)
        lines.append(f"  {declared:<{width}}{cells}")
    return "\n".join(lines)


def format_report(result: IdentifyResult) -> str:
    config = result.config
    lines = [
        "Trace-based variant identification"
        f" (grid={config.grid}, model {result.model_digest[:16]}…)",
        "",
        format_confusion(result.confusion, config.variants),
        "",
    ]
    for row in result.rows:
        lines.append(f"  {row.label:<28} {row.verdict.describe()}")
    diverged = result.diverged
    inconclusive = result.inconclusive
    lines.append("")
    if diverged:
        lines.append(
            f"DIVERGED: {len(diverged)}/{len(result.rows)} runs behave like a"
            " different variant than declared:"
        )
        for row in diverged:
            lines.append(f"  {row.label}: identified {row.verdict.identified}")
    else:
        lines.append(
            f"all {len(result.rows)} conclusive runs identified correctly"
            + (f" ({len(inconclusive)} inconclusive)" if inconclusive else "")
        )
    return "\n".join(lines)


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = IdentifyConfig()
    if args.variants:
        config.variants = known_variants(args.variants)
    if args.grid:
        config.grid = args.grid
    result = run_identify(config, runner=runner, manifest=manifest)
    report = format_report(result)
    if result.diverged:
        # The CI smoke step leans on this: a variant behaving unlike
        # its declaration must fail the invocation, not just print.
        raise RuntimeError(
            f"{len(result.diverged)}/{len(result.rows)} runs identified as"
            f" a different variant than declared\n{report}"
        )
    return report, None, None
