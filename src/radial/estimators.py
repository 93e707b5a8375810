"""Label-probability estimators over neighbor profiles, the classifier, and
the registry of named methods.

Every estimator is a local regression over the query's sorted neighbor
profile, read off at distance zero. Each has one batched kernel that fits
a :class:`ProfileBatch` of many profiles through the batched solvers of
:mod:`radial.localfit`. The per-query functions (:func:`knn`, :func:`lrr`,
...), :class:`EstimatorSpec` and the CLI run the kernel on a batch of one.
:data:`METHODS` is the only place a method name turns into code.

Every estimator returns an :class:`Estimate` whose ``value`` is the
estimated probability that the query's label is 1. Polynomial variants may
step outside [0, 1]; values are deliberately not clipped before
classification since thresholding alone decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import localfit
from .core import Dataset, NeighborProfile, as_covariate, stable_argsort
from .errors import DimensionMismatch, DomainError, EmptyWindowError, ParameterError
from .localfit import MultivariatePoly, RadialPoly


@dataclass(frozen=True)
class Diagnostics:
    used_points: int
    converged: bool = True
    fallback_applied: bool = False


@dataclass(frozen=True)
class Estimate:
    value: float
    diagnostics: Diagnostics

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ParameterError(f"estimate value must be finite, got {self.value!r}")


# ---------------------------------------------------------------------------
# Batches of neighbor profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileBatch:
    """Neighbor profiles of ``m`` queries as co-indexed (m, n) arrays.

    Row i holds the radii, labels (as floats) and dataset indices of query
    i's neighbors, nondecreasing in radius. ``covariates`` (the dataset's
    (N, d) array) and ``queries`` ((m, d)) are needed only by the local
    polynomial kernels. :meth:`of` builds the batch of one profile, and
    :meth:`by_distance` the batch of a matrix of distances.
    """

    radii: np.ndarray
    labels: np.ndarray
    index: np.ndarray | None = None
    covariates: np.ndarray | None = None
    queries: np.ndarray | None = None

    @classmethod
    def of(cls, profile: NeighborProfile, data: Dataset | None = None, query=None) -> "ProfileBatch":
        """The batch of one query: ``profile`` as (1, n) rows. The dataset's
        covariates and the query are kept when ``data`` has a fixed
        dimension."""
        covariates = queries = None
        if data is not None and data.dim is not None:
            covariates, queries = data.covariates, as_covariate(query)[None, :]
        labels = profile.labels[None, :].astype(np.float64)
        return cls(profile.radii[None, :], labels, profile.source_indices[None, :], covariates, queries)

    @classmethod
    def by_distance(cls, D, labels, covariates=None, queries=None) -> "ProfileBatch":
        """The batch of the (m, n) distances ``D`` from m queries to n points
        labeled ``labels``: each row ordered by ``stable_argsort``, so ties
        go to the lower column, and ``index`` that column order."""
        if not np.isfinite(D).all():
            raise DomainError("a distance is not a finite number")
        order = stable_argsort(D)
        # An index pair gathers faster than take_along_axis, at every size.
        radii = D[np.arange(len(order))[:, None], order]
        return cls(radii, np.asarray(labels, dtype=np.float64)[order], order, covariates, queries)


@dataclass(frozen=True)
class BatchEstimate:
    """A batched kernel's values, (m,) or (m, C) for a grid of C parameters;
    each diagnostic is an array or one value that broadcasts against them."""

    values: np.ndarray
    used_points: np.ndarray | int
    converged: np.ndarray | bool = True
    fallback_applied: np.ndarray | bool = False

    def __getitem__(self, i: int) -> Estimate:
        used, converged, fallback = (
            a[i] if getattr(a, "ndim", 0) else a
            for a in (self.used_points, self.converged, self.fallback_applied)
        )
        return Estimate(float(self.values[i]), Diagnostics(int(used), bool(converged), bool(fallback)))


# ---------------------------------------------------------------------------
# Weight functions for the local fits. A weight function maps (m, n) radii
# to (m, n) weights, and a row's window is where its weight is positive.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantOne:
    def __call__(self, radii: np.ndarray) -> np.ndarray:
        return np.ones_like(radii, dtype=np.float64)


@dataclass(frozen=True)
class InverseRadius:
    """w(r) = 1 / max(r, eps), eps tied to the row's largest radius.

    The cap keeps duplicates of the query (r = 0) finite while letting
    their weight dominate, which is the natural limit of 1/r weighting.
    """

    def __call__(self, radii: np.ndarray) -> np.ndarray:
        largest = radii.max(axis=-1, initial=0.0, keepdims=True)
        eps = 1e-12 * np.where(largest > 0, largest, 1.0)
        return 1.0 / np.maximum(radii, eps)


@dataclass(frozen=True)
class Boxcar:
    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ParameterError("bandwidth must be positive")

    def __call__(self, radii: np.ndarray) -> np.ndarray:
        return (radii <= self.h).astype(np.float64)


@dataclass(frozen=True)
class NearestCount:
    """w = 1 on each row's first ``k`` columns, its k nearest points when
    the row is sorted, and 0 after them."""

    k: int

    def __call__(self, radii: np.ndarray) -> np.ndarray:
        n = radii.shape[-1]
        if not 1 <= self.k <= n:
            raise ParameterError(f"k must be in [1, {n}], got {self.k}")
        return np.broadcast_to(np.arange(n) < self.k, radii.shape).astype(np.float64)


WeightFunction = ConstantOne | InverseRadius | Boxcar | NearestCount


# ---------------------------------------------------------------------------
# Batched kernels
# ---------------------------------------------------------------------------


def _local_fit(
    batch: ProfileBatch, weights, q: int, basis, features, logistic: bool, empty_message: str
) -> BatchEstimate:
    """Weighted local fit of each row's labels, read off at its intercept
    (the intercept's sigmoid for the logistic fit).

    A row's window is where ``weights`` is positive. Each row takes the
    highest degree <= ``q`` whose ``basis(degree)`` fits its window, and
    rows that share a degree go to the solver in one call, cut to the
    leading columns that hold all their windows. ``features(rows, width,
    basis)`` gives those rows' design.
    """
    if q < 0:
        raise ParameterError("degree must be >= 0")
    window = weights > 0
    used = window.sum(axis=1)
    if np.any(used == 0):
        raise EmptyWindowError(empty_message)
    q_eff = np.zeros_like(used)
    qq = 1
    while qq <= q and basis(qq).output_dim <= used.max():
        q_eff[used >= basis(qq).output_dim] = qq
        qq += 1
    values = np.empty(len(used))
    converged = np.ones(len(used), dtype=bool)
    for qq in np.unique(q_eff):
        group = q_eff == qq
        # A slice, when every row shares the degree, selects without copying.
        rows = slice(None) if group.all() else np.flatnonzero(group)
        # Windows that reach the last column (every radial weight but the
        # boxcar's) need no search for the width.
        in_any = window[rows].any(axis=0)
        width = len(in_any) if in_any[-1] else int(np.flatnonzero(in_any)[-1]) + 1
        design = features(rows, width, basis(int(qq)))
        targets, w = batch.labels[rows, :width], weights[rows, :width]
        if logistic:
            theta, converged[rows], _ = localfit.fit_logistic(design, targets, w)
            values[rows] = localfit.sigmoid(theta[:, 0])
        else:
            theta, _ = localfit.solve_wls(design, targets, w)
            values[rows] = theta[:, 0]
    return BatchEstimate(values, used, converged, q_eff < q)


def _ks(batch: ProfileBatch, h: float) -> BatchEstimate:
    if not h > 0:
        raise ParameterError("bandwidth must be positive")
    used = (batch.radii <= h).sum(axis=1)
    if np.any(used == 0):
        raise EmptyWindowError(f"no point within bandwidth {h}")
    # Rows are sorted, so the points within h are each row's first ones.
    counts = np.cumsum(batch.labels[:, :used.max()], axis=1)
    return BatchEstimate(counts[np.arange(len(used)), used - 1] / used, used)


def _knn(batch: ProfileBatch, k) -> BatchEstimate:
    """One k gives (m,) values, a grid of C gives (m, C); with 0/1 labels a running sum is exact."""
    n = batch.radii.shape[1]
    ks = np.asarray(k)
    bad = ks[(ks < 1) | (ks > n)]
    if bad.size:
        raise ParameterError(f"k must be in [1, {n}], got {bad.flat[0]}")
    counts = np.cumsum(batch.labels[:, :ks.max()], axis=1)
    # An index pair, since counts[:, ks - 1] comes out in Fortran order.
    rows = np.arange(len(counts)).reshape(-1, *[1] * ks.ndim)
    return BatchEstimate(counts[rows, ks - 1] / ks, ks)


def _local_poly(batch: ProfileBatch, h: float, q: int, logistic: bool) -> BatchEstimate:
    weights = Boxcar(h)(batch.radii)
    if batch.covariates is None or batch.covariates.shape[1] != batch.queries.shape[1]:
        raise DimensionMismatch("local polynomial fits need fixed-dimension covariates")
    d = batch.queries.shape[1]

    def offsets(rows, width, basis):
        return basis.expand(batch.covariates[batch.index[rows, :width]] - batch.queries[rows][:, None, :])

    return _local_fit(batch, weights, q, lambda qq: MultivariatePoly(qq, d), offsets,
                      logistic, f"no point within bandwidth {h}")


_MSKNN_LOSSES = {"poly": ("squared",), "logi": ("logistic", "logit_squared")}


def _logit(p):
    """log(p / (1 - p)) for p in (0, 1), by scipy's two-branch formula:
    log1p(s) - log1p(-s) = 2 atanh(s) with s = 2 (p - 1/2) for p in
    [0.3, 0.65], where the quotient would lose precision near 1/2, and the
    quotient elsewhere. One atanh costs less than two log1p."""
    s = 2.0 * (p - 0.5)
    return np.where((p >= 0.3) & (p <= 0.65), 2.0 * np.arctanh(s), np.log(p / (1.0 - p)))


def _msknn(batch: ProfileBatch, k_vec, q: int, regression: str, loss: str) -> BatchEstimate:
    """One ladder (J,) gives (m,) values, and a grid of C ladders, (C, J),
    gives (m, C); a bad ladder of a grid is named."""
    n = batch.radii.shape[1]
    grid = np.ndim(k_vec) == 2
    # Checked as Python ints, so a huge one is named rather than overflowing int64.
    ladders = [[int(k) for k in ladder] for ladder in (k_vec if grid else [k_vec])]
    for ladder in ladders:
        got = f", got {ladder}" if grid else ""
        if any(k2 <= k1 for k1, k2 in zip(ladder, ladder[1:])) or not ladder:
            raise ParameterError("k_vec must be strictly increasing and nonempty" + got)
        if ladder[0] < 1 or ladder[-1] > n:
            raise ParameterError(f"k_vec must lie within [1, {n}]" + got)
    ks = np.array(ladders if grid else ladders[0], dtype=np.int64)
    if ks.shape[-1] < q + 1:
        raise ParameterError(f"need at least q+1 = {q + 1} scales, got {ks.shape[-1]}")
    if loss not in _MSKNN_LOSSES.get(regression, ()):
        raise ParameterError(f"unsupported combination {(regression, loss)!r}")

    counts = np.cumsum(batch.labels[:, :ks.max()], axis=1)
    # (m, J) or (m, C, J) rungs by an index pair as in _knn; one solver call fits them all.
    at = (np.arange(len(counts)).reshape(-1, *[1] * ks.ndim), ks - 1)
    eta_hat = counts[at] / ks
    features = RadialPoly(q).expand(batch.radii[at])
    weights = np.ones_like(eta_hat)
    converged = True
    if loss == "logistic":
        theta, converged, _ = localfit.fit_logistic(features, eta_hat, weights)
    else:
        if loss == "logit_squared":
            lo = 1.0 / (2.0 * ks)
            eta_hat = _logit(np.clip(eta_hat, lo, 1.0 - lo))
        theta, _ = localfit.solve_wls(features, eta_hat, weights)
    values = theta[..., 0] if regression == "poly" else localfit.sigmoid(theta[..., 0])
    return BatchEstimate(values, ks[..., -1], converged)


def _lrr(
    batch: ProfileBatch, weight_fn: WeightFunction, q: int, loss: str = "squared", even: bool = False
) -> BatchEstimate:
    if loss not in ("squared", "logistic"):
        raise ParameterError(f"loss must be 'squared' or 'logistic', got {loss!r}")

    def radial(rows, width, basis):
        return localfit.RadialFeatures(batch.radii[rows, :width], basis)

    return _local_fit(batch, weight_fn(batch.radii), q, lambda qq: RadialPoly(qq, even), radial,
                      loss == "logistic", "the weights leave no usable point")


# ---------------------------------------------------------------------------
# Per-query estimators: each runs its kernel on a batch of one
# ---------------------------------------------------------------------------


def kernel_smoother(profile: NeighborProfile, h: float) -> Estimate:
    """Mean label over the ball of radius ``h`` around the query (boxcar)."""
    return _ks(ProfileBatch.of(profile), h)[0]


def knn(profile: NeighborProfile, k: int) -> Estimate:
    """Mean label of the k nearest points; the batched kernel also takes a grid of k."""
    return _knn(ProfileBatch.of(profile), k)[0]


def lpor(data: Dataset, profile: NeighborProfile, query, h: float, q: int) -> Estimate:
    """Local polynomial fit of the labels on covariate offsets; value at offset 0."""
    return _local_poly(ProfileBatch.of(profile, data, query), h, q, False)[0]


def lpolr(data: Dataset, profile: NeighborProfile, query, h: float, q: int) -> Estimate:
    """Logistic variant of :func:`lpor`; value is sigmoid of the intercept."""
    return _local_poly(ProfileBatch.of(profile, data, query), h, q, True)[0]


def msknn(
    profile: NeighborProfile,
    k_vec: Sequence[int],
    q: int,
    regression: str = "poly",
    loss: str = "squared",
) -> Estimate:
    """Fit a radial polynomial to k-NN estimates at several scales and
    extrapolate it to radius zero. The batched kernel also takes a grid of
    ladders.

    ``regression="poly"`` pairs with the squared loss and returns the raw
    intercept. ``regression="logi"`` returns sigmoid of the intercept and
    pairs with either the logistic loss on the fractional k-NN targets or
    the squared loss on their logit transforms (``loss="logit_squared"``).
    """
    return _msknn(ProfileBatch.of(profile), k_vec, q, regression, loss)[0]


def lrr(
    profile: NeighborProfile,
    weight_fn: WeightFunction,
    q: int,
    loss: str = "squared",
    even: bool = False,
) -> Estimate:
    """Radial regression of the raw labels on distance; value at distance 0.

    The fit's window is where ``weight_fn`` is positive. The squared loss
    gives the plain intercept; the logistic loss gives sigmoid of the
    intercept (the logistic variant of the method). With ``even=True`` the
    basis uses even powers 1, r^2, ..., r^(2q).
    """
    return _lrr(ProfileBatch.of(profile), weight_fn, q, loss, even)[0]


def classify(estimate):
    """Plug-in classification: 1 when the estimate reaches 1/2, else 0.

    Takes an :class:`Estimate` or a number, or an array of values, which
    gives an int64 array of classes.
    """
    value = estimate.value if isinstance(estimate, Estimate) else np.asarray(estimate, dtype=np.float64)
    if not np.all(np.isfinite(value)):
        raise ParameterError("cannot classify a non-finite estimate")
    out = np.asarray(value >= 0.5)
    return int(out) if out.ndim == 0 else out.astype(np.int64)


# ---------------------------------------------------------------------------
# The method registry
# ---------------------------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """A declared method parameter.

    ``parse`` turns a value, or its command-line text, into the value the
    method takes and raises ValueError, TypeError or KeyError when it
    cannot; ``what`` says what it accepts. ``default`` is given in the
    form ``parse`` takes.
    """

    name: str
    parse: Callable
    what: str
    default: object = _REQUIRED


def _integers(value) -> tuple[int, ...]:
    return tuple(int(v) for v in (value.split(":") if isinstance(value, str) else value))


def _choice(name: str, default: str, **options) -> Param:
    return Param(name, options.__getitem__, "one of " + ", ".join(options), default)


_H = Param("h", float, "a number")
_K = Param("k", int, "an integer")
_Q = Param("q", int, "an integer", 2)
_K_VEC = Param("k_vec", _integers, "integers separated by ':'")
_WEIGHT = _choice("weight", "constant_one", constant_one=ConstantOne(), inverse_r=InverseRadius())


@dataclass(frozen=True)
class Method:
    """A named estimator: its declared parameters and its batched kernel
    call ``batch(profile_batch, **params)``."""

    kind: str
    params: tuple[Param, ...]
    batch: Callable[..., BatchEstimate]

    def estimate(self, data: Dataset, profile: NeighborProfile, query, **params) -> Estimate:
        """One query's estimate, from parameters that :meth:`resolve`
        returned: the kernel run on the batch of one."""
        return self.batch(ProfileBatch.of(profile, data, query), **params)[0]

    def resolve(self, given: dict) -> dict:
        """The method's parameters from ``given`` (values or their text),
        with defaults filled in; ParameterError names a missing, unknown or
        malformed one."""
        names = [p.name for p in self.params]
        unknown = sorted(set(given) - set(names))
        if unknown:
            raise ParameterError(
                f"{self.kind} takes {', '.join(names)}; unknown parameter {', '.join(map(repr, unknown))}"
            )
        out = {}
        for p in self.params:
            raw = given.get(p.name, p.default)
            if raw is _REQUIRED:
                raise ParameterError(f"{self.kind} requires parameter {p.name}")
            try:
                out[p.name] = p.parse(raw)
            except (TypeError, ValueError, KeyError):
                raise ParameterError(f"{self.kind} parameter {p.name} must be {p.what}, got {raw!r}") from None
        return out

    def usage(self) -> str:
        """The parameters as ``name`` or ``name=default``."""
        return ", ".join(p.name if p.default is _REQUIRED else f"{p.name}={p.default}" for p in self.params)


METHODS: dict[str, Method] = {m.kind: m for m in (
    Method("ks", (_H,), _ks),
    Method("knn", (_K,), _knn),
    Method("lpor", (_H, _Q), lambda batch, h, q: _local_poly(batch, h, q, False)),
    Method("lpolr", (_H, _Q), lambda batch, h, q: _local_poly(batch, h, q, True)),
    Method("msknn-poly", (_K_VEC, _Q),
           lambda batch, k_vec, q: _msknn(batch, k_vec, q, "poly", "squared")),
    Method("msknn-logi", (_K_VEC, _Q, _choice("loss", "logistic", logistic="logistic", logit_squared="logit_squared")),
           lambda batch, k_vec, q, loss: _msknn(batch, k_vec, q, "logi", loss)),
    Method("lrr", (_WEIGHT, _Q), lambda batch, weight, q: _lrr(batch, weight, q)),
    Method("lrlr", (_WEIGHT, _Q), lambda batch, weight, q: _lrr(batch, weight, q, "logistic")),
)}


def get_method(kind: str) -> Method:
    try:
        return METHODS[kind]
    except KeyError:
        raise ParameterError(f"unknown estimator kind {kind!r}; choose from {', '.join(METHODS)}") from None


@dataclass(frozen=True)
class EstimatorSpec:
    """A registry method with its parameters, applied to one query."""

    kind: str
    params: dict = field(default_factory=dict)

    def apply(self, data: Dataset, profile: NeighborProfile, query) -> Estimate:
        method = get_method(self.kind)
        return method.estimate(data, profile, query, **method.resolve(self.params))
