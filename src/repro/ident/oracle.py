"""The identification oracle: the committed reference model + verdicts.

The fitted reference classifier ships *inside the package*
(``src/repro/ident/reference_model.json``) so every consumer — the
``identify`` CLI harness, the chaos-campaign identity check, the
golden behavior-class test — loads the exact same bytes without a
fitting pass.  ``scripts/update_ident.py`` regenerates the file after
an intentional behavior change, and the runner's code fingerprint
hashes it so cached sweep results can never straddle two models.

A :class:`IdentityVerdict` is the manifest-facing record, mirroring
manyflow's ``OracleVerdict``: flat, JSON-ready, and explicit about
confidence — a run with too few loss events or a coin-flip margin is
reported as inconclusive rather than guessed at.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

from repro._record import Record
from repro.ident.classify import Classification, NearestCentroidClassifier
from repro.ident.features import FeatureVector, FlowTrace, extract_features

#: Below this relative margin the nearest-centroid call is treated as
#: inconclusive (the run sits between two behavior classes).
MIN_MARGIN = 0.05

#: A flow must have reacted to loss at least this many times for its
#: features to mean anything; a clean run matches every variant.
MIN_LOSS_RESPONSES = 1


def reference_model_path() -> Path:
    """Location of the committed reference classifier."""
    return Path(__file__).resolve().parent / "reference_model.json"


_CACHED: Optional[NearestCentroidClassifier] = None


def load_reference_classifier() -> NearestCentroidClassifier:
    """Load (and cache) the committed reference model."""
    global _CACHED
    if _CACHED is None:
        path = reference_model_path()
        _CACHED = NearestCentroidClassifier.from_json(
            path.read_text(encoding="utf-8")
        )
    return _CACHED


class IdentityVerdict(Record, frozen=True):
    """One flow's identification outcome.

    ``ok`` is None when no declared variant was supplied (pure
    identification) or when the verdict is inconclusive; otherwise it
    says whether the identified class matches the declaration.
    """

    identified: str
    declared: Optional[str]
    distance: float
    margin: float
    conclusive: bool
    ok: Optional[bool]

    @property
    def diverged(self) -> bool:
        """True when a conclusive identification contradicts the
        declared variant — the chaos-campaign flag condition."""
        return self.ok is False

    def as_dict(self) -> Dict[str, object]:
        """Flat manifest payload (see RunManifest.note_identity)."""
        return {
            "identified": self.identified,
            "declared": self.declared,
            "distance": self.distance,
            "margin": self.margin,
            "conclusive": self.conclusive,
            "ok": self.ok,
        }

    def describe(self) -> str:
        tag = "?" if self.ok is None else ("ok" if self.ok else "DIVERGED")
        declared = self.declared or "<undeclared>"
        return (
            f"declared={declared} identified={self.identified} "
            f"margin={self.margin:.3f} [{tag}]"
        )


def _verdict_from_classification(
    classification: Classification,
    declared: Optional[str],
    conclusive: bool,
) -> IdentityVerdict:
    ok: Optional[bool] = None
    if declared is not None and conclusive:
        ok = classification.label == declared
    return IdentityVerdict(
        identified=classification.label,
        declared=declared,
        distance=classification.distance,
        margin=classification.margin,
        conclusive=conclusive,
        ok=ok,
    )


def identify_features(
    vector: FeatureVector,
    declared: Optional[str] = None,
    classifier: Optional[NearestCentroidClassifier] = None,
    min_margin: float = MIN_MARGIN,
) -> IdentityVerdict:
    """Classify one feature vector against the reference model."""
    model = classifier if classifier is not None else load_reference_classifier()
    classification = model.classify(vector)
    return _verdict_from_classification(
        classification, declared, conclusive=classification.margin >= min_margin
    )


def identify_trace(
    trace: FlowTrace,
    declared: Optional[str] = None,
    classifier: Optional[NearestCentroidClassifier] = None,
    min_margin: float = MIN_MARGIN,
) -> IdentityVerdict:
    """Classify a raw flow trace, guarding on evidence volume.

    A flow that never reacted to loss (no recovery entries, no
    timeouts, no cwnd collapses) carries no identifying signal; its
    verdict is reported inconclusive regardless of margin.
    """
    vector = extract_features(trace)
    loss_responses = (
        vector["recovery_entry_rate"] + vector["timeout_rate"]
    )
    has_evidence = (
        len(trace.enters) + len(trace.timeouts) >= MIN_LOSS_RESPONSES
        or loss_responses > 0.0
        or vector["backoffs_per_loss_window"] > 0.0
    )
    model = classifier if classifier is not None else load_reference_classifier()
    classification = model.classify(vector)
    conclusive = has_evidence and classification.margin >= min_margin
    return _verdict_from_classification(classification, declared, conclusive)
