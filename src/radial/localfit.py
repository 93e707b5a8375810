"""Weighted least-squares and weighted logistic solvers over polynomial bases.

Both solvers accept leading batch dimensions so that many small independent
local fits (one per query) can be driven through a single call; a single
problem is simply batch shape ``()``. Columns are standardized before
solving and the coefficients are mapped back, which keeps the normal
equations well conditioned when radii are far from unit scale.

The logistic solver's Newton step runs on BLAS: the Hessian of each
problem is the weighted Gram matrix X^T diag(c) X, formed by one batched
matmul over a transposed view of X, and the gradient and linear predictor
are matmuls as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import expit

from .errors import DimensionMismatch, DomainError, ParameterError

# A fit whose coefficient norm exceeds this is treated as separated and
# refit once with the escalated ridge.
SEPARATION_NORM = 1e3
SEPARATION_RIDGE = 1e-3

_MAX_HALVINGS = 30


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _monomial_exponents(degree: int, dim: int) -> np.ndarray:
    """Exponent rows for all monomials of total degree <= degree, constant first."""
    rows = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(dim), total):
            e = np.zeros(dim, dtype=np.int64)
            for j in combo:
                e[j] += 1
            rows.append(e)
    out = np.array(rows, dtype=np.int64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MultivariatePoly:
    """All monomials of total degree <= ``degree`` in ``dim`` variables."""

    degree: int
    dim: int

    def __post_init__(self):
        if self.degree < 0 or self.dim < 1:
            raise ParameterError("degree must be >= 0 and dim >= 1")

    @property
    def output_dim(self) -> int:
        return _monomial_exponents(self.degree, self.dim).shape[0]

    def expand(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"expected inputs of length {self.dim}, got {x.shape[-1]}")
        exps = _monomial_exponents(self.degree, self.dim)
        return np.prod(x[..., None, :] ** exps, axis=-1)


@dataclass(frozen=True)
class RadialPoly:
    """Basis 1, r, r^2, ..., r^degree of the radial distance."""

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ParameterError("degree must be >= 0")

    @property
    def output_dim(self) -> int:
        return self.degree + 1

    def expand(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return r[..., None] ** np.arange(self.degree + 1)


@dataclass(frozen=True)
class RadialEvenPoly:
    """Basis 1, r^2, r^4, ..., r^(2*order) of the radial distance."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ParameterError("order must be >= 1")

    @property
    def output_dim(self) -> int:
        return self.order + 1

    def expand(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        powers = np.concatenate(([0], 2 * np.arange(1, self.order + 1)))
        return r[..., None] ** powers


FeatureMap = MultivariatePoly | RadialPoly | RadialEvenPoly


def evaluate(feature_map: FeatureMap, theta, x) -> float | np.ndarray:
    """Basis expansion of ``x`` dotted with ``theta`` (no link function)."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[-1] != feature_map.output_dim:
        raise DimensionMismatch(
            f"theta has length {theta.shape[-1]}, basis has {feature_map.output_dim}"
        )
    phi = feature_map.expand(x)
    out = phi @ theta
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Problem containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedSample:
    """Rows of basis values with targets and nonnegative weights."""

    features: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.features, dtype=np.float64)
        t = np.asarray(self.targets, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if F.ndim != 2:
            raise DimensionMismatch("features must be a 2-d matrix")
        if t.shape != (F.shape[0],) or w.shape != (F.shape[0],):
            raise DimensionMismatch("targets and weights must have one entry per feature row")
        if np.any(w < 0):
            raise DomainError("weights must be nonnegative")
        if not np.any(w > 0):
            raise DomainError("at least one weight must be positive")
        object.__setattr__(self, "features", F)
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class FitResult:
    theta: np.ndarray
    converged: bool
    iterations: int
    condition_flag: bool


@dataclass(frozen=True)
class LogisticConfig:
    max_iter: int = 100
    tol: float = 1e-8
    ridge: float = 1e-8


# ---------------------------------------------------------------------------
# Column standardization
# ---------------------------------------------------------------------------


def _standardize(X: np.ndarray, weights: np.ndarray):
    """Center/scale non-constant columns; constants are left untouched.

    Moments are weighted so zero-weight rows (padding) cannot distort the
    scaling of the rows that actually enter the fit. Centering is applied
    only when column 0 is a constant nonzero column over the active rows
    (the feature-map convention puts the intercept first), so the removed
    offsets can be folded back into its coefficient.
    """
    totals = weights.sum(axis=-1, keepdims=True)
    wn = weights / np.where(totals > 0, totals, 1.0)
    mean = np.einsum("...n,...np->...p", wn, X)
    var = np.einsum("...n,...np->...p", wn, (X - mean[..., None, :]) ** 2)
    std = np.sqrt(np.maximum(var, 0.0))
    active = (weights > 0)[..., :, None]
    col_max = np.abs(np.where(active, X, 0.0)).max(axis=-2, initial=0.0)
    # Constancy is relative to the column's own magnitude: a column of
    # uniformly tiny but varying values still carries information.
    is_const = std <= 1e-12 * col_max
    scale = np.where(is_const, 1.0, std)
    has_intercept = is_const[..., 0] & (np.abs(mean[..., 0]) > 1e-12)
    center = np.where(is_const, 0.0, mean) * has_intercept[..., None]
    Xs = (X - center[..., None, :]) / scale[..., None, :]
    return Xs, scale, center, has_intercept, mean[..., 0]


def _destandardize(theta_s, scale, center, has_intercept, intercept_value):
    theta = theta_s / scale
    correction = -(theta_s * center / scale).sum(axis=-1)
    safe_v = np.where(has_intercept, intercept_value, 1.0)
    theta[..., 0] = theta[..., 0] + np.where(has_intercept, correction / safe_v, 0.0)
    return theta


# ---------------------------------------------------------------------------
# Weighted least squares
# ---------------------------------------------------------------------------


def solve_wls(features, targets, weights):
    """Minimize sum_i w_i (y_i - x_i . theta)^2 over leading batch dims.

    Parameters
    ----------
    features : (..., n, p) array
    targets : (..., n) array
    weights : (..., n) array of nonnegative weights

    Returns
    -------
    theta : (..., p) array
        Minimizer; the least-norm minimizer when the design is rank
        deficient.
    condition_flag : (...) bool array
        True where the standardized design was rank deficient.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n, p = X.shape[-2:]

    Xs, scale, center, has_intercept, v0 = _standardize(X, w)
    sw = np.sqrt(w)
    A = sw[..., :, None] * Xs
    b = sw * y

    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    cutoff = max(n, p) * np.finfo(np.float64).eps * s.max(axis=-1, keepdims=True)
    keep = s > cutoff
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    utb = np.einsum("...nk,...n->...k", U, b)
    theta_s = np.einsum("...kp,...k->...p", Vt, s_inv * utb)
    condition_flag = keep.sum(axis=-1) < p

    theta = _destandardize(theta_s, scale, center, has_intercept, v0)
    return theta, condition_flag


def wls_fit(sample: WeightedSample) -> FitResult:
    """Weighted least squares for a single problem."""
    theta, flag = solve_wls(sample.features, sample.targets, sample.weights)
    return FitResult(theta=theta, converged=True, iterations=0, condition_flag=bool(flag))


# ---------------------------------------------------------------------------
# Weighted logistic (damped Newton)
# ---------------------------------------------------------------------------


def _penalized_loglik(f, y, w, theta, ridge, pen):
    """Penalized log-likelihood of ``theta`` given its linear predictor
    ``f = X theta``, so a caller that already holds ``f`` never contracts
    ``X`` again."""
    # y*f - log(1 + e^f) is the pointwise Bernoulli log-likelihood, valid
    # for fractional targets in [0, 1]. log(1 + e^f) is spelled out as
    # max(f, 0) + log1p(e^-|f|), which is np.logaddexp(0, f) to within two
    # ulps at under half its cost: np.exp is vectorized, logaddexp is not.
    softplus = np.maximum(f, 0.0) + np.log1p(np.exp(-np.abs(f)))
    ll = (w * (y * f - softplus)).sum(axis=-1)
    return ll - 0.5 * ridge * ((theta**2) * pen).sum(axis=-1)


def _newton(X, y, w, ridge, pen, max_iter, tol):
    """Damped Newton ascent on the penalized weighted log-likelihood.

    Operates on a flattened batch (B, n, p). ``pen`` carries per-problem,
    per-coefficient penalty scales (zero at the intercept position) so the
    ridge acts on the destandardized coefficients.

    Every contraction over the n rows is a batched matmul, which numpy
    hands to BLAS one problem at a time: the Hessian is the weighted Gram
    matrix X^T diag(c) X. ``Xt`` is a transposed view, never a copy; BLAS
    reads it as a column-major matrix. The line search scores each halving
    from ``f + alpha * X step`` with ``f = X theta``, so it never contracts
    ``X`` itself. Problems leave the working set once converged, stalled or
    broken problems make up half of it; every per-problem result is the
    same as without that.
    """
    B, n, p = X.shape
    theta_out = np.zeros((B, p))
    converged = np.zeros(B, dtype=bool)
    iterations = np.full(B, max_iter, dtype=np.int64)
    # The working set: ``rows`` maps each of its problems to its output row.
    rows = np.arange(B)
    Xt = np.swapaxes(X, -1, -2)
    theta = np.zeros((B, p))
    active = np.ones(B, dtype=bool)
    obj = _penalized_loglik(np.zeros((B, n)), y, w, theta, ridge, pen)

    for it in range(1, max_iter + 1):
        f = (X @ theta[..., None])[..., 0]
        pr = expit(f)
        grad = (Xt @ (w * (y - pr))[..., None])[..., 0] - ridge * theta * pen
        gmax = np.abs(grad).max(axis=-1)

        finite = np.isfinite(gmax)
        done = active & finite & (gmax < tol)
        converged[rows[done]] = True
        iterations[rows[done]] = it - 1
        broken = active & ~finite
        iterations[rows[broken]] = it - 1
        active &= ~(done | broken)
        if not active.any():
            break
        if 2 * np.count_nonzero(active) <= active.size:
            # Drop finished problems once they are half the working set, so
            # the copy of X made here is at most half of it.
            theta_out[rows[~active]] = theta[~active]
            keep = np.flatnonzero(active)
            rows, X, y, w, pen, theta, f, obj, pr, grad, active = (
                a[keep] for a in (rows, X, y, w, pen, theta, f, obj, pr, grad, active)
            )
            Xt = np.swapaxes(X, -1, -2)

        curv = w * pr * (1.0 - pr)
        H = Xt @ (X * curv[..., None])
        H += ridge * pen[:, :, None] * np.eye(p)
        # Tiny jitter keeps the batched solve defined when a problem is
        # fully saturated; a useless step is rejected by the line search.
        diag_scale = np.einsum("bpp->b", H) / p
        H += (1e-12 * np.maximum(diag_scale, 1.0) + 1e-300)[:, None, None] * np.eye(p)
        try:
            step = np.linalg.solve(H, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = (np.linalg.pinv(H) @ grad[..., None])[..., 0]
        fstep = (X @ step[..., None])[..., 0]

        pending = active.copy()
        alpha = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            if not pending.any():
                break
            cand = theta[pending] + alpha * step[pending]
            cand_f = f[pending] + alpha * fstep[pending]
            cand_obj = _penalized_loglik(cand_f, y[pending], w[pending], cand, ridge, pen[pending])
            accept = cand_obj > obj[pending] - 1e-12 * (1.0 + np.abs(obj[pending]))
            accept &= np.isfinite(cand_obj)
            if accept.any():
                moved = np.flatnonzero(pending)[accept]
                theta[moved] = cand[accept]
                obj[moved] = cand_obj[accept]
                keep_pending = pending.copy()
                keep_pending[moved] = False
                pending = keep_pending
            alpha *= 0.5
        # A problem whose step never improved the objective has stalled.
        iterations[rows[pending]] = it
        active &= ~pending

    theta_out[rows] = theta
    return theta_out, converged, iterations


def fit_logistic(features, targets, weights, config: LogisticConfig | None = None):
    """Weighted Bernoulli maximum likelihood over leading batch dims.

    Maximizes sum_i w_i [y_i log s(f_i) + (1-y_i) log(1-s(f_i))] minus
    ``ridge/2 * |theta[1:]|^2`` by damped Newton iterations. Problems whose
    coefficient norm diverges (perfect separation) are refit once with the
    ridge raised to ``SEPARATION_RIDGE``.

    Returns ``(theta, converged, iterations)`` with the batch shape of the
    inputs.
    """
    if config is None:
        config = LogisticConfig()
    # einsum and BLAS pick their order of summation by memory layout; in C
    # order a problem's result does not depend on the layout or the batch
    # position it arrives in.
    X = np.ascontiguousarray(features, dtype=np.float64)
    y = np.ascontiguousarray(targets, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    batch_shape = X.shape[:-2]
    n, p = X.shape[-2:]

    Xs, scale, center, has_intercept, v0 = _standardize(X, w)
    Xf = Xs.reshape(-1, n, p)
    yf = y.reshape(-1, n)
    wf = w.reshape(-1, n)
    # The solver works on standardized columns where coefficient j is
    # scale_j times its destandardized value, so penalizing theta_s / scale
    # realizes the ridge on the returned coefficients (intercept excluded).
    pen = (1.0 / scale**2).reshape(-1, p).copy()
    pen[:, 0] = 0.0

    theta_s, converged, iterations = _newton(
        Xf, yf, wf, config.ridge, pen, config.max_iter, config.tol
    )

    norms = np.linalg.norm(theta_s / scale.reshape(-1, p), axis=-1)
    separated = np.isfinite(norms) & (norms > SEPARATION_NORM)
    if separated.any() and config.ridge < SEPARATION_RIDGE:
        t2, c2, i2 = _newton(
            Xf[separated], yf[separated], wf[separated],
            SEPARATION_RIDGE, pen[separated], config.max_iter, config.tol,
        )
        theta_s[separated] = t2
        converged[separated] = c2
        iterations[separated] = i2

    theta_s = theta_s.reshape(batch_shape + (p,))
    theta = _destandardize(theta_s, scale, center, has_intercept, v0)
    # Guard: never return non-finite coefficients; fall back to zero.
    bad = ~np.isfinite(theta).all(axis=-1)
    if np.any(bad):
        theta = np.where(bad[..., None], 0.0, theta)
        converged = converged.reshape(batch_shape) & ~bad
        converged = converged.reshape(-1)
    return (
        theta,
        converged.reshape(batch_shape),
        iterations.reshape(batch_shape),
    )


def logistic_fit(sample: WeightedSample, config: LogisticConfig | None = None) -> FitResult:
    """Weighted logistic maximum likelihood for a single problem."""
    if np.any(sample.targets < 0) or np.any(sample.targets > 1):
        raise DomainError("logistic targets must lie in [0, 1]")
    theta, converged, iterations = fit_logistic(
        sample.features, sample.targets, sample.weights, config
    )
    return FitResult(
        theta=theta,
        converged=bool(converged),
        iterations=int(iterations),
        condition_flag=False,
    )
