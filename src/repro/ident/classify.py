"""A dependency-free nearest-centroid classifier over feature vectors.

Deliberately tiny: with features engineered to separate the five
recovery algorithms (see :mod:`repro.ident.features`), a z-scored
nearest-centroid rule identifies held-out runs perfectly, serializes
to a few hundred bytes of canonical JSON, and is trivially
deterministic — no iterative fitting, no randomness, no external ML
dependency.

Determinism contract:

* :meth:`NearestCentroidClassifier.fit` reduces the training set with
  fixed-order sums over class labels sorted lexicographically, so the
  same labeled vectors (in any order) produce the same model.
* :meth:`to_json` emits sorted-key JSON with full ``repr`` float
  precision; :meth:`digest` hashes that text.  Two fits from identical
  data are byte- and digest-identical, which is what lets the
  committed reference model participate in the runner's code
  fingerprint.
* Instances are plain-attribute objects and pickle cleanly.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Mapping, Sequence, Tuple

from repro._record import Record
from repro.ident.features import FeatureVector

#: Floor for per-feature scale: a feature constant across the training
#: set still contributes (sharply) to distance instead of dividing by
#: zero.
MIN_SCALE = 1e-6


class Classification(Record, frozen=True):
    """The outcome of classifying one feature vector."""

    label: str
    #: z-space Euclidean distance to the winning centroid.
    distance: float
    #: Relative margin to the runner-up: ``(d2 - d1) / max(d2, eps)``,
    #: in ``[0, 1]``.  Near zero means the call was a coin flip.
    margin: float
    #: label -> z-space distance, every class.
    distances: Dict[str, float]


class NearestCentroidClassifier:
    """Nearest centroid over z-scored features.

    Fit once over labeled feature vectors; classify by Euclidean
    distance in the z-scored space.  The feature order is pinned at fit
    time and incoming vectors are reordered to match, so callers can
    hand over vectors built from any source that names its features.
    """

    def __init__(
        self,
        feature_names: Sequence[str],
        means: Sequence[float],
        scales: Sequence[float],
        centroids: Mapping[str, Sequence[float]],
    ) -> None:
        if len(means) != len(feature_names) or len(scales) != len(feature_names):
            raise ValueError("means/scales must match feature_names length")
        for label, centroid in centroids.items():
            if len(centroid) != len(feature_names):
                raise ValueError(f"centroid {label!r} has wrong arity")
        self.feature_names: Tuple[str, ...] = tuple(feature_names)
        self.means: Tuple[float, ...] = tuple(float(v) for v in means)
        self.scales: Tuple[float, ...] = tuple(float(v) for v in scales)
        self.centroids: Dict[str, Tuple[float, ...]] = {
            label: tuple(float(v) for v in centroids[label])
            for label in sorted(centroids)
        }
        if not self.centroids:
            raise ValueError("classifier needs at least one class centroid")

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(self.centroids)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls, samples: Sequence[Tuple[str, FeatureVector]]
    ) -> "NearestCentroidClassifier":
        """Fit from ``(label, vector)`` pairs.

        z-scoring parameters come from the pooled training set;
        centroids are per-class means in z-space.  Classes and samples
        are reduced in sorted order so the fit is permutation
        invariant.
        """
        if not samples:
            raise ValueError("cannot fit on an empty training set")
        names = samples[0][1].names
        rows: List[Tuple[str, Tuple[float, ...]]] = []
        for label, vector in samples:
            rows.append((label, vector.reordered(names).values))
        rows.sort()

        n = len(rows)
        dim = len(names)
        means = [0.0] * dim
        for _, values in rows:
            for i, v in enumerate(values):
                means[i] += v
        means = [m / n for m in means]
        variances = [0.0] * dim
        for _, values in rows:
            for i, v in enumerate(values):
                d = v - means[i]
                variances[i] += d * d
        scales = [max(math.sqrt(v / n), MIN_SCALE) for v in variances]

        by_label: Dict[str, List[Tuple[float, ...]]] = {}
        for label, values in rows:
            by_label.setdefault(label, []).append(values)
        centroids: Dict[str, Tuple[float, ...]] = {}
        for label in sorted(by_label):
            members = by_label[label]
            centroid = [0.0] * dim
            for values in members:
                for i, v in enumerate(values):
                    centroid[i] += (v - means[i]) / scales[i]
            centroids[label] = tuple(c / len(members) for c in centroid)
        return cls(names, means, scales, centroids)

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def _zscore(self, vector: FeatureVector) -> Tuple[float, ...]:
        values = vector.reordered(self.feature_names).values
        return tuple(
            (v - m) / s for v, m, s in zip(values, self.means, self.scales)
        )

    def classify(self, vector: FeatureVector) -> Classification:
        z = self._zscore(vector)
        distances: Dict[str, float] = {}
        for label, centroid in self.centroids.items():
            acc = 0.0
            for a, b in zip(z, centroid):
                d = a - b
                acc += d * d
            distances[label] = math.sqrt(acc)
        # Ties break toward the lexicographically first label: the
        # centroid dict is built sorted and `<` is strict.
        best_label = None
        best = second = math.inf
        for label, distance in distances.items():
            if distance < best:
                second = best
                best, best_label = distance, label
            elif distance < second:
                second = distance
        margin = 0.0
        if math.isfinite(second) and second > 0.0:
            margin = (second - best) / second
        assert best_label is not None
        return Classification(
            label=best_label, distance=best, margin=margin, distances=distances
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON (sorted keys, full float repr, 2-space
        indent so the committed artifact diffs readably)."""
        payload = {
            "format": 1,
            "kind": "nearest-centroid",
            "feature_names": list(self.feature_names),
            "means": list(self.means),
            "scales": list(self.scales),
            "centroids": {k: list(v) for k, v in self.centroids.items()},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "NearestCentroidClassifier":
        payload = json.loads(text)
        if payload.get("kind") != "nearest-centroid":
            raise ValueError(f"unknown classifier kind: {payload.get('kind')!r}")
        if payload.get("format") != 1:
            raise ValueError(f"unknown classifier format: {payload.get('format')!r}")
        return cls(
            feature_names=payload["feature_names"],
            means=payload["means"],
            scales=payload["scales"],
            centroids=payload["centroids"],
        )

    def digest(self) -> str:
        """Content digest of the canonical JSON form."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NearestCentroidClassifier):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __repr__(self) -> str:
        return (
            f"NearestCentroidClassifier(labels={list(self.centroids)}, "
            f"dim={len(self.feature_names)})"
        )
