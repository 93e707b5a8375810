"""Domain types, distance metrics, and query-relative neighbor ordering.

Distances are computed in double precision by brute force, Euclidean ones
by :func:`euclidean_distances` alone. Neighbor ordering is the order of a
stable sort, so ties are broken by ascending original index and repeated
calls are bit-identical; ``stable_argsort`` computes it exactly from
numpy's faster default sort.

:func:`read_csv` and :func:`write_csv` hold the CSV format of every table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._dtw import pad, warp_sqcost
from .errors import DimensionMismatch, DomainError, ParseError

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


class Dataset:
    """Immutable ordered collection of labeled points, stored as arrays.

    ``covariates`` is an (n, d) array when every covariate has length d and
    a tuple of 1-d arrays otherwise (variable-length series); :attr:`dim` is
    d in the first case and ``None`` in the second. ``labels`` is an int64
    array. Build one with :meth:`from_arrays` or :meth:`from_sequences`,
    which validate their inputs.
    """

    __slots__ = ("covariates", "labels")

    def __init__(self, *args, **kwargs):
        raise DomainError("build a Dataset with Dataset.from_arrays or Dataset.from_sequences")

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
        if not np.all(np.isfinite(r)):
            raise DomainError("radii must be finite")
        if r.shape[0] and np.any(np.diff(r) < 0):
            raise DomainError("radii must be nondecreasing")
        for name, arr in (("radii", r), ("labels", lab), ("source_indices", idx)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _frozen(cls, radii, labels, source_indices) -> "NeighborProfile":
        """The profile of co-sorted arrays that the caller has just built
        and holds no other reference to: they are frozen in place rather
        than copied, and their order is not checked again."""
        prof = object.__new__(cls)
        for name, arr in (("radii", radii), ("labels", labels), ("source_indices", source_indices)):
            arr.setflags(write=False)
            object.__setattr__(prof, name, arr)
        return prof

    def __len__(self) -> int:
        return self.radii.shape[0]


def euclidean(a, b) -> float:
    """l2 distance between two equal-length covariates."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(euclidean_distances(a[None, :], b[None, :])[0, 0])


def euclidean_distances(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The (m, n) Euclidean distances between the rows of ``Q`` (m, d) and
    ``X`` (n, d): the squared differences summed over coordinates in order,
    then one square root. That is scipy's ``cdist`` bit for bit, and
    ``np.linalg.norm(X - q, axis=1)`` bit for bit for d <= 7 (past that,
    numpy's pairwise sum rounds differently)."""
    sq = np.zeros((Q.shape[0], X.shape[0]))
    for j in range(X.shape[1]):
        diff = np.subtract.outer(Q[:, j], X[:, j])
        diff *= diff
        sq += diff
    return np.sqrt(sq, out=sq)


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
    return float(dtw_columns(a, *pad([b]))[0])


def idtw(a, b) -> float:
    """Time-warping distance after rescaling each series by its first element."""
    a, b = _series_pair(a, b, "idtw")
    return float(dtw_columns(rescale(a), *pad([rescale(b)]))[0])


def dtw_columns(a: np.ndarray, B: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``dtw(a, B[:lengths[p], p])`` for every column p of the zero-padded
    array ``B``, in one kernel call: ``a`` must be a nonempty 1-d float64
    array and every length positive. Bitwise equal to the one-pair calls."""
    return np.sqrt(warp_sqcost(a, B, lengths))


def rescale(series: np.ndarray) -> np.ndarray:
    """``series`` divided by its first element, as ``idtw`` compares series."""
    if series[0] == 0.0:
        raise DomainError("idtw is undefined when a first element is zero")
    return series / series[0]


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


def stable_argsort(values) -> np.ndarray:
    """The permutation of numpy's stable argsort along the last axis, bit
    for bit, at about the cost of its default (unstable) sort.

    The default sort orders the values but not the ties among them; the
    entries of each run of equal values (NaNs count as equal, as do -0.0
    and 0.0) are then put in ascending index order, by one sort of those
    entries alone keyed on (run, index). Values with few ties leave that
    sort nearly empty.
    """
    values = np.asarray(values)
    order = np.argsort(values, axis=-1)
    n = values.shape[-1]
    if n < 2:
        return order
    # One flat index: numpy's gather by a single index array is faster than
    # take_along_axis, or an index pair, on one long row and on many rows.
    perm = order.reshape(-1, n)
    ranked = values.reshape(-1)[perm + n * np.arange(len(perm))[:, None]]
    tie = ranked[:, 1:] == ranked[:, :-1]
    if ranked.dtype.kind == "f":
        nan = np.isnan(ranked)
        tie |= nan[:, 1:] & nan[:, :-1]
    if not tie.any():
        return order
    # Flattened positions in a run of ties, and which run each is in: a run
    # starts wherever a tied entry is not tied to the one before it.
    in_run = np.zeros(ranked.shape, dtype=bool)
    in_run[:, 1:] = tie
    in_run[:, :-1] |= tie
    starts = in_run.copy()
    starts[:, 1:] &= ~tie
    pos = np.flatnonzero(in_run)
    run = np.cumsum(starts.ravel()[pos])
    flat = order.reshape(-1)
    flat[pos] = np.sort(run * n + flat[pos]) % n
    return order


def profile(data: Dataset, metric: Metric, query) -> NeighborProfile:
    """Order a dataset by distance from ``query`` under ``metric``.

    Euclidean distances on a fixed-dimension dataset, and ``dtw``/``idtw``
    on any dataset, are computed for all rows at once; any other metric is
    called once per row. A distance that is not finite, such as one that
    overflows, raises ``DomainError``. The rows are ordered by
    ``stable_argsort``: ties in distance are broken by ascending original
    index, exactly as a stable sort breaks them, so the result is
    deterministic.
    """
    q = as_covariate(query)
    # A distance past the largest double overflows to inf, which is
    # reported below as an error rather than as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if metric is euclidean and data.dim is not None:
            if data.dim != q.shape[0]:
                raise DimensionMismatch(f"query has length {q.shape[0]}, data has dimension {data.dim}")
            dists = euclidean_distances(q[None, :], data.covariates)[0]
        elif metric is dtw or metric is idtw:
            rows = list(data.covariates)
            if metric is idtw:
                q, rows = rescale(q), [rescale(x) for x in rows]
            dists = dtw_columns(q, *pad(rows))
        else:
            dists = np.array([metric(q, x) for x in data.covariates], dtype=np.float64)
    if not np.isfinite(dists).all():
        i = int(np.flatnonzero(~np.isfinite(dists))[0])
        raise DomainError(f"the distance from the query to point {i} is {float(dists[i])!r}, "
                          "not a finite number")
    order = stable_argsort(dists)
    return NeighborProfile._frozen(dists[order], data.labels[order], order)


def read_csv(path, name: str) -> list[tuple[int, list[str]]]:
    """The (line number, fields) pairs of the nonblank records of the CSV
    file at ``path`` (UTF-8, optional byte-order mark), each numbered by the
    physical line it ends on. ``name`` says which file a ParseError is about."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            return [(reader.line_num, record) for record in reader
                    if len(record) > 1 or (record and record[0].strip())]
    except UnicodeDecodeError:
        raise ParseError(f"{name} is not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from None


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write ``header``, then ``rows``, to ``path`` as CSV. Every float
    (numpy's included) is written as ``repr(float(v))``, so doubles
    round-trip; None is written as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def strict_floor(x: float) -> int:
    """Largest integer strictly below ``x`` (so ``strict_floor(3) == 2``).

    This intentionally differs from ``math.floor`` at integer arguments; it
    is used only by the theory-mode machinery. Values in (0, 1] map to 0.
    """
    if not math.isfinite(x) or x <= 0:
        raise DomainError(f"strict_floor requires a positive finite argument, got {x!r}")
    f = math.floor(x)
    return f - 1 if f == x else f
