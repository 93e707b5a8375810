"""Label-probability estimators over neighbor profiles, the classifier, and
the registry of named methods.

Every estimator is a local regression over the query's sorted neighbor
profile, read off at distance zero. Each has one batched kernel that fits
a :class:`ProfileBatch` of many profiles through the batched solvers of
:mod:`radial.localfit`; the per-query functions (:func:`knn`, :func:`lrr`,
...) run their kernel on a batch of one. :data:`METHODS` is the only place
a method name turns into code.

Every estimator returns an :class:`Estimate` whose ``value`` is the
estimated probability that the query's label is 1. Polynomial variants may
step outside [0, 1]; values are deliberately not clipped before
classification since thresholding alone decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit, logit

from . import localfit
from .core import Dataset, NeighborProfile, as_covariate
from .errors import DimensionMismatch, EmptyWindowError, ParameterError
from .localfit import LogisticConfig, MultivariatePoly, RadialEvenPoly, RadialPoly


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
    i's neighbors. Entries where ``valid`` is False pad shorter profiles to
    the common width and get zero weight; ``valid=None`` means no padding.
    Rows are nondecreasing in radius, except that a method with
    :attr:`Method.any_order` reads every point and takes rows in any order.
    ``covariates`` (the dataset's (N, d) array) and ``queries`` ((m, d))
    are needed only by the local polynomial kernels.
    """

    radii: np.ndarray
    labels: np.ndarray
    index: np.ndarray | None = None
    valid: np.ndarray | None = None
    covariates: np.ndarray | None = None
    queries: np.ndarray | None = None

    @classmethod
    def stack(cls, profiles: Sequence[NeighborProfile], covariates=None, queries=None) -> "ProfileBatch":
        """One row per profile; shorter rows are padded at the end with
        their largest radius and label 0, which keeps the rows sorted."""
        shape = (len(profiles), max(len(p) for p in profiles))
        radii, labels = np.zeros(shape), np.zeros(shape)
        index = np.zeros(shape, dtype=np.int64)
        valid = np.zeros(shape, dtype=bool)
        for i, p in enumerate(profiles):
            n = len(p)
            radii[i, :n], labels[i, :n], index[i, :n], valid[i, :n] = (
                p.radii, p.labels, p.source_indices, True
            )
            radii[i, n:] = p.radii[-1] if n else 0.0
        return cls(radii, labels, index, None if valid.all() else valid, covariates, queries)

    @property
    def counts(self) -> np.ndarray:
        """Number of real (unpadded) entries in each row."""
        if self.valid is None:
            return np.full(self.radii.shape[0], self.radii.shape[1])
        return self.valid.sum(axis=1)

    def mask(self, inside: np.ndarray) -> np.ndarray:
        """``inside`` with the padding entries cleared."""
        return inside if self.valid is None else inside & self.valid


@dataclass(frozen=True)
class BatchEstimate:
    """Per-row values of a batched kernel; each diagnostic is a per-row
    array or one value for every row."""

    values: np.ndarray
    used_points: np.ndarray | int
    converged: np.ndarray | bool = True
    fallback_applied: np.ndarray | bool = False

    def __getitem__(self, i: int) -> Estimate:
        used, converged, fallback = (
            np.broadcast_to(a, self.values.shape)[i]
            for a in (self.used_points, self.converged, self.fallback_applied)
        )
        return Estimate(float(self.values[i]), Diagnostics(int(used), bool(converged), bool(fallback)))


# ---------------------------------------------------------------------------
# Weight functions and scopes for the radial estimators. A weight function
# maps (m, n) radii and the in-scope mask to weights that are zero outside
# the mask; a scope maps (m, n) sorted radii to that mask.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantOne:
    def __call__(self, radii: np.ndarray, inside: np.ndarray) -> np.ndarray:
        return inside.astype(np.float64)


@dataclass(frozen=True)
class InverseRadius:
    """w(r) = 1 / max(r, eps), eps tied to the largest in-scope radius.

    The cap keeps duplicates of the query (r = 0) finite while letting
    their weight dominate, which is the natural limit of 1/r weighting.
    """

    def __call__(self, radii: np.ndarray, inside: np.ndarray) -> np.ndarray:
        largest = np.where(inside, radii, 0.0).max(axis=-1, initial=0.0, keepdims=True)
        eps = 1e-12 * np.where(largest > 0, largest, 1.0)
        return np.where(inside, 1.0 / np.maximum(radii, eps), 0.0)


@dataclass(frozen=True)
class Boxcar:
    h: float

    def __post_init__(self):
        if self.h <= 0:
            raise ParameterError("bandwidth must be positive")

    def __call__(self, radii: np.ndarray, inside: np.ndarray) -> np.ndarray:
        return (inside & (radii <= self.h)).astype(np.float64)


@dataclass(frozen=True)
class UniformInBall:
    """w(r) = 1/N inside radius ``r_tilde`` and 0 outside, N the inside count."""

    r_tilde: float

    def __post_init__(self):
        if self.r_tilde <= 0:
            raise ParameterError("cutoff radius must be positive")

    def __call__(self, radii: np.ndarray, inside: np.ndarray) -> np.ndarray:
        ball = inside & (radii <= self.r_tilde)
        n = ball.sum(axis=-1, keepdims=True)
        return ball / np.maximum(n, 1)


WeightFunction = ConstantOne | InverseRadius | Boxcar | UniformInBall


@dataclass(frozen=True)
class AllPoints:
    def select(self, radii: np.ndarray) -> np.ndarray:
        return np.ones(radii.shape, dtype=bool)


@dataclass(frozen=True)
class WithinRadius:
    h: float

    def select(self, radii: np.ndarray) -> np.ndarray:
        return radii <= self.h


@dataclass(frozen=True)
class NearestCount:
    k: int

    def select(self, radii: np.ndarray) -> np.ndarray:
        n = radii.shape[-1]
        if not 1 <= self.k <= n:
            raise ParameterError(f"k must be in [1, {n}], got {self.k}")
        return np.broadcast_to(np.arange(n) < self.k, radii.shape)


Scope = AllPoints | WithinRadius | NearestCount


# ---------------------------------------------------------------------------
# Batched kernels
# ---------------------------------------------------------------------------


def _reduce_degree(n_points: np.ndarray, degree: int, basis_dim) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the highest degree <= ``degree`` whose basis fits its
    ``n_points`` window, and whether that lowered the degree."""
    q_eff = np.zeros_like(n_points)
    qq = 1
    while qq <= degree and basis_dim(qq) <= n_points.max():
        q_eff[n_points >= basis_dim(qq)] = qq
        qq += 1
    return q_eff, q_eff < degree


def _extent(inside: np.ndarray) -> int:
    """Width of the leading columns that hold every in-scope entry."""
    return int(np.flatnonzero(inside.any(axis=0))[-1]) + 1


def _fit_by_degree(q_eff, design, logistic: bool, config):
    """One solver call per group of rows sharing an effective degree.

    ``design(rows, q)`` gives the (features, targets, weights) of those
    rows. Returns each row's intercept (its sigmoid for the logistic fit)
    and whether its fit converged.
    """
    values = np.empty(q_eff.shape[0])
    converged = np.ones(q_eff.shape[0], dtype=bool)
    for qq in np.unique(q_eff):
        rows = np.flatnonzero(q_eff == qq)
        features, targets, weights = design(rows, int(qq))
        if logistic:
            theta, converged[rows], _ = localfit.fit_logistic(features, targets, weights, config)
            values[rows] = expit(theta[:, 0])
        else:
            theta, _ = localfit.solve_wls(features, targets, weights)
            values[rows] = theta[:, 0]
    return values, converged


def _ks(batch: ProfileBatch, h: float) -> BatchEstimate:
    if h <= 0:
        raise ParameterError("bandwidth must be positive")
    inside = batch.mask(batch.radii <= h)
    used = inside.sum(axis=1)
    if np.any(used == 0):
        raise EmptyWindowError(f"no point within bandwidth {h}")
    return BatchEstimate(np.where(inside, batch.labels, 0.0).sum(axis=1) / used, used)


def _knn(batch: ProfileBatch, k: int) -> BatchEstimate:
    n = int(batch.counts.min())
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    return BatchEstimate(batch.labels[:, :k].sum(axis=1) / k, k)


def _local_poly(batch: ProfileBatch, h: float, q: int, logistic: bool, config=None) -> BatchEstimate:
    if h <= 0:
        raise ParameterError("bandwidth must be positive")
    if q < 0:
        raise ParameterError("degree must be >= 0")
    inside = batch.mask(batch.radii <= h)
    used = inside.sum(axis=1)
    if np.any(used == 0):
        raise EmptyWindowError(f"no point within bandwidth {h}")
    d = batch.queries.shape[1]
    q_eff, fallback = _reduce_degree(used, q, lambda qq: MultivariatePoly(qq, d).output_dim)

    def design(rows, qq):
        width = _extent(inside[rows])
        Z = batch.covariates[batch.index[rows, :width]] - batch.queries[rows][:, None, :]
        weights = inside[rows, :width].astype(np.float64)
        return MultivariatePoly(qq, d).expand(Z), batch.labels[rows, :width], weights

    values, converged = _fit_by_degree(q_eff, design, logistic, config)
    return BatchEstimate(values, used, converged, fallback)


_MSKNN_LOSSES = {"poly": ("squared",), "logi": ("logistic", "logit_squared")}


def _msknn(batch: ProfileBatch, k_vec, q: int, regression: str, loss: str, config=None) -> BatchEstimate:
    k_vec = [int(k) for k in k_vec]
    n = int(batch.counts.min())
    if any(k2 <= k1 for k1, k2 in zip(k_vec, k_vec[1:])) or not k_vec:
        raise ParameterError("k_vec must be strictly increasing and nonempty")
    if k_vec[0] < 1 or k_vec[-1] > n:
        raise ParameterError(f"k_vec must lie within [1, {n}]")
    if len(k_vec) < q + 1:
        raise ParameterError(f"need at least q+1 = {q + 1} scales, got {len(k_vec)}")
    if loss not in _MSKNN_LOSSES.get(regression, ()):
        raise ParameterError(f"unsupported combination {(regression, loss)!r}")

    ks = np.asarray(k_vec)
    eta_hat = np.cumsum(batch.labels, axis=1)[:, ks - 1] / ks
    features = RadialPoly(q).expand(batch.radii[:, ks - 1])
    weights = np.ones_like(eta_hat)
    converged = True
    if loss == "logistic":
        theta, converged, _ = localfit.fit_logistic(features, eta_hat, weights, config)
    else:
        if loss == "logit_squared":
            lo = 1.0 / (2.0 * ks)
            eta_hat = logit(np.clip(eta_hat, lo, 1.0 - lo))
        theta, _ = localfit.solve_wls(features, eta_hat, weights)
    values = theta[:, 0] if regression == "poly" else expit(theta[:, 0])
    return BatchEstimate(values, ks[-1], converged)


def _lrr(
    batch: ProfileBatch,
    weight_fn: WeightFunction,
    q: int,
    loss: str = "squared",
    scope: Scope = AllPoints(),
    even: bool = False,
    config=None,
) -> BatchEstimate:
    if loss not in ("squared", "logistic"):
        raise ParameterError(f"loss must be 'squared' or 'logistic', got {loss!r}")
    if q < 0:
        raise ParameterError("degree must be >= 0")
    inside = batch.mask(scope.select(batch.radii))
    weights = weight_fn(batch.radii, inside)
    n_pos = (weights > 0).sum(axis=1)
    if np.any(n_pos == 0):
        raise EmptyWindowError("scope and weights leave no usable point")

    def basis(qq):
        if even and qq >= 1:
            return RadialEvenPoly(qq)
        return RadialPoly(0 if even else qq)

    q_eff, fallback = _reduce_degree(n_pos, q, lambda qq: basis(qq).output_dim)

    def design(rows, qq):
        width = _extent(inside[rows])
        radii = batch.radii[rows, :width]
        return basis(qq).expand(radii), batch.labels[rows, :width], weights[rows, :width]

    values, converged = _fit_by_degree(q_eff, design, loss == "logistic", config)
    return BatchEstimate(values, n_pos, converged, fallback)


# ---------------------------------------------------------------------------
# Per-query estimators: each runs its kernel on a batch of one
# ---------------------------------------------------------------------------


def kernel_smoother(profile: NeighborProfile, h: float) -> Estimate:
    """Mean label over the ball of radius ``h`` around the query (boxcar)."""
    return _ks(ProfileBatch.stack([profile]), h)[0]


def knn(profile: NeighborProfile, k: int) -> Estimate:
    """Mean label of the k nearest points."""
    return _knn(ProfileBatch.stack([profile]), k)[0]


def _with_covariates(data: Dataset, profile: NeighborProfile, query) -> ProfileBatch:
    query = as_covariate(query)
    if data.dim is None or data.dim != query.shape[0]:
        raise DimensionMismatch("local polynomial fits need fixed-dimension covariates")
    return ProfileBatch.stack([profile], data.covariates, query[None, :])


def lpor(data: Dataset, profile: NeighborProfile, query, h: float, q: int) -> Estimate:
    """Local polynomial fit of the labels on covariate offsets; value at offset 0."""
    return _local_poly(_with_covariates(data, profile, query), h, q, False)[0]


def lpolr(
    data: Dataset,
    profile: NeighborProfile,
    query,
    h: float,
    q: int,
    config: LogisticConfig | None = None,
) -> Estimate:
    """Logistic variant of :func:`lpor`; value is sigmoid of the intercept."""
    return _local_poly(_with_covariates(data, profile, query), h, q, True, config)[0]


def msknn(
    profile: NeighborProfile,
    k_vec: Sequence[int],
    q: int,
    regression: str = "poly",
    loss: str = "squared",
    config: LogisticConfig | None = None,
) -> Estimate:
    """Fit a radial polynomial to k-NN estimates at several scales and
    extrapolate it to radius zero.

    ``regression="poly"`` pairs with the squared loss and returns the raw
    intercept. ``regression="logi"`` returns sigmoid of the intercept and
    pairs with either the logistic loss on the fractional k-NN targets or
    the squared loss on their logit transforms (``loss="logit_squared"``).
    """
    return _msknn(ProfileBatch.stack([profile]), k_vec, q, regression, loss, config)[0]


def lrr(
    profile: NeighborProfile,
    weight_fn: WeightFunction,
    q: int,
    loss: str = "squared",
    scope: Scope = AllPoints(),
    even: bool = False,
    config: LogisticConfig | None = None,
) -> Estimate:
    """Radial regression of the raw labels on distance; value at distance 0.

    The squared loss gives the plain intercept; the logistic loss gives
    sigmoid of the intercept (the logistic variant of the method). With
    ``even=True`` the basis uses even powers 1, r^2, ..., r^(2q).
    """
    return _lrr(ProfileBatch.stack([profile]), weight_fn, q, loss, scope, even, config)[0]


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
    """A named estimator: its declared parameters, the per-query call
    ``single(data, profile, query, **params)`` and the batched kernel call
    ``batch(profile_batch, **params)``.

    ``any_order`` marks methods that read every point of a profile, so
    their batch rows may come in any order.
    """

    kind: str
    params: tuple[Param, ...]
    single: Callable[..., Estimate]
    batch: Callable[..., BatchEstimate]
    any_order: bool = False

    def resolve(self, given: dict) -> dict:
        """The method's parameters from ``given`` (values or their text),
        with defaults filled in; ParameterError names a missing, unknown or
        malformed one."""
        names = [p.name for p in self.params]
        unknown = sorted(set(given) - set(names))
        if unknown:
            raise ParameterError(
                f"{self.kind} takes {', '.join(names)}; unknown parameter {', '.join(unknown)}"
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
    Method("ks", (_H,),
           lambda data, prof, query, h: kernel_smoother(prof, h), _ks),
    Method("knn", (_K,),
           lambda data, prof, query, k: knn(prof, k), _knn),
    Method("lpor", (_H, _Q),
           lambda data, prof, query, h, q: lpor(data, prof, query, h, q),
           lambda batch, h, q: _local_poly(batch, h, q, False)),
    Method("lpolr", (_H, _Q),
           lambda data, prof, query, h, q: lpolr(data, prof, query, h, q),
           lambda batch, h, q: _local_poly(batch, h, q, True)),
    Method("msknn-poly", (_K_VEC, _Q),
           lambda data, prof, query, k_vec, q: msknn(prof, k_vec, q, "poly", "squared"),
           lambda batch, k_vec, q: _msknn(batch, k_vec, q, "poly", "squared")),
    Method("msknn-logi", (_K_VEC, _Q, _choice("loss", "logistic", logistic="logistic", logit_squared="logit_squared")),
           lambda data, prof, query, k_vec, q, loss: msknn(prof, k_vec, q, "logi", loss),
           lambda batch, k_vec, q, loss: _msknn(batch, k_vec, q, "logi", loss)),
    Method("lrr", (_WEIGHT, _Q, _choice("loss", "squared", squared="squared", logistic="logistic")),
           lambda data, prof, query, weight, q, loss: lrr(prof, weight, q, loss),
           lambda batch, weight, q, loss: _lrr(batch, weight, q, loss), any_order=True),
    Method("lrlr", (_WEIGHT, _Q),
           lambda data, prof, query, weight, q: lrr(prof, weight, q, "logistic"),
           lambda batch, weight, q: _lrr(batch, weight, q, "logistic"), any_order=True),
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
        return method.single(data, profile, query, **method.resolve(self.params))
