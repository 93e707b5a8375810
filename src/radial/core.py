"""Domain types, distance metrics, and query-relative neighbor ordering.

Distances are computed in double precision by brute force; neighbor
ordering is a stable sort so that ties are broken by ascending original
index and repeated calls are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._dtw import warp_sqcost
from .errors import DimensionMismatch, DomainError

Metric = Callable[[np.ndarray, np.ndarray], float]


def as_covariate(values) -> np.ndarray:
    """Coerce ``values`` to a validated 1-d float64 covariate array."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DomainError("a covariate must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(x)):
        raise DomainError("covariate entries must be finite")
    x = x.copy()
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class LabeledPoint:
    """A covariate paired with a binary label."""

    x: np.ndarray
    y: int

    def __post_init__(self):
        object.__setattr__(self, "x", as_covariate(self.x))
        if self.y not in (0, 1):
            raise DomainError(f"label must be 0 or 1, got {self.y!r}")
        object.__setattr__(self, "y", int(self.y))


class Dataset:
    """Immutable ordered collection of labeled points, stored as arrays.

    ``covariates`` is an (n, d) array when every covariate has length d and
    a tuple of 1-d arrays otherwise (variable-length series); :attr:`dim` is
    d in the first case and ``None`` in the second. ``labels`` is an int64
    array. Iterating yields one :class:`LabeledPoint` per row.
    """

    __slots__ = ("covariates", "labels")

    def __init__(self, points: Iterable[LabeledPoint]):
        pts = tuple(points)
        self._store([p.x for p in pts], [p.y for p in pts])

    def _store(self, xs, y) -> None:
        """Keep validated covariates ``xs`` (a 2-d array or a list of 1-d
        arrays) with labels ``y``, each of which must equal 0 or 1."""
        if len(xs) == 0:
            raise DomainError("dataset must be nonempty")
        y = np.asarray(y)
        if np.any((y != 0) & (y != 1)):
            raise DomainError("labels must be 0 or 1")
        labels = y.astype(np.int64)
        if isinstance(xs, list):
            xs = np.stack(xs) if len({x.shape[0] for x in xs}) == 1 else tuple(xs)
        if isinstance(xs, np.ndarray):
            xs.setflags(write=False)
        labels.setflags(write=False)
        self.covariates = xs
        self.labels = labels

    @classmethod
    def from_arrays(cls, X, y) -> "Dataset":
        X = np.array(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise DimensionMismatch("X must be (n, d) with one label per row")
        if X.shape[1] < 1:
            raise DomainError("a covariate must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(X)):
            raise DomainError("covariate entries must be finite")
        data = cls.__new__(cls)
        data._store(X, y)
        return data

    @classmethod
    def from_sequences(cls, xs: Sequence, y) -> "Dataset":
        y = np.asarray(y)
        if len(xs) != y.shape[0]:
            raise DimensionMismatch("one label per covariate required")
        data = cls.__new__(cls)
        data._store([as_covariate(x) for x in xs], y)
        return data

    @property
    def dim(self) -> int | None:
        return self.covariates.shape[1] if isinstance(self.covariates, np.ndarray) else None

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __iter__(self):
        return (LabeledPoint(x, int(y)) for x, y in zip(self.covariates, self.labels))


@dataclass(frozen=True)
class NeighborProfile:
    """Query-relative view of a dataset: sorted radii with co-sorted labels.

    ``radii`` is nondecreasing, ``labels[i]`` is the label of the point at
    distance ``radii[i]``, and ``source_indices[i]`` is its original index
    in the dataset.
    """

    radii: np.ndarray
    labels: np.ndarray
    source_indices: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=np.float64)
        lab = np.asarray(self.labels)
        idx = np.asarray(self.source_indices, dtype=np.int64)
        if not (r.shape == lab.shape == idx.shape) or r.ndim != 1:
            raise DimensionMismatch("radii, labels, source_indices must be co-indexed 1-d arrays")
        if r.shape[0] and np.any(np.diff(r) < 0):
            raise DomainError("radii must be nondecreasing")
        for name, arr in (("radii", r), ("labels", lab), ("source_indices", idx)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.radii.shape[0]


def euclidean(a, b) -> float:
    """l2 distance between two equal-length covariates."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.linalg.norm(a - b))


def _series_pair(a, b, name: str) -> tuple[np.ndarray, np.ndarray]:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape[0] == 0 or b.shape[0] == 0:
        raise DomainError(f"{name} requires two nonempty 1-d sequences")
    return a, b


def dtw(a, b) -> float:
    """Time-warping distance: l2 norm of the best-aligned expanded vectors.

    The accumulated cost uses squared local differences with the symmetric
    three-way step pattern and no window; a single square root is applied
    at the end, so equal-length inputs satisfy ``dtw(a, b) <= euclidean(a, b)``.
    """
    a, b = _series_pair(a, b, "dtw")
    return float(dtw_pairs([a], [b])[0])


def idtw(a, b) -> float:
    """Time-warping distance after rescaling each series by its first element."""
    a, b = _series_pair(a, b, "idtw")
    return float(idtw_pairs([a], [b])[0])


def dtw_pairs(A: Sequence[np.ndarray], B: Sequence[np.ndarray]) -> np.ndarray:
    """``dtw(A[p], B[p])`` for every p, in one batched kernel call.

    The series must be nonempty 1-d float64 arrays; the values are bitwise
    equal to the one-pair calls.
    """
    return np.sqrt(warp_sqcost(A, B))


def idtw_pairs(A: Sequence[np.ndarray], B: Sequence[np.ndarray]) -> np.ndarray:
    """``idtw(A[p], B[p])`` for every p, in one batched kernel call."""
    # Each distinct series is rescaled once: a profile or a backtest month
    # pairs one series with many others.
    scaled = {id(s): s for s in (*A, *B)}
    for key, s in scaled.items():
        if s[0] == 0.0:
            raise DomainError("idtw is undefined when a first element is zero")
        scaled[key] = s / s[0]
    return dtw_pairs([scaled[id(a)] for a in A], [scaled[id(b)] for b in B])


METRICS: dict[str, Metric] = {
    "euclidean": euclidean,
    "dtw": dtw,
    "idtw": idtw,
}


def get_metric(name: str) -> Metric:
    try:
        return METRICS[name]
    except KeyError:
        raise DomainError(f"unknown metric {name!r}; choose from {sorted(METRICS)}") from None


def profile(data: Dataset, metric: Metric, query) -> NeighborProfile:
    """Order a dataset by distance from ``query`` under ``metric``.

    Euclidean distances on a fixed-dimension dataset, and ``dtw``/``idtw``
    on any dataset, are computed for all rows at once; any other metric is
    called once per row. Ties in distance are broken by ascending original
    index (stable sort), so the result is deterministic.
    """
    q = as_covariate(query)
    if metric is euclidean and data.dim is not None:
        if data.dim != q.shape[0]:
            raise DimensionMismatch(f"query has length {q.shape[0]}, data has dimension {data.dim}")
        dists = np.linalg.norm(data.covariates - q[None, :], axis=1)
    elif metric is dtw or metric is idtw:
        pairs = dtw_pairs if metric is dtw else idtw_pairs
        dists = pairs([q] * len(data), list(data.covariates))
    else:
        dists = np.array([metric(q, x) for x in data.covariates], dtype=np.float64)
    order = np.argsort(dists, kind="stable")
    return NeighborProfile(
        radii=dists[order],
        labels=data.labels[order],
        source_indices=order,
    )


def strict_floor(x: float) -> int:
    """Largest integer strictly below ``x`` (so ``strict_floor(3) == 2``).

    This intentionally differs from ``math.floor`` at integer arguments; it
    is used only by the theory-mode machinery. Values in (0, 1] map to 0.
    """
    if not math.isfinite(x) or x <= 0:
        raise DomainError(f"strict_floor requires a positive finite argument, got {x!r}")
    f = math.floor(x)
    return f - 1 if f == x else f
