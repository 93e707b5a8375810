"""Weighted least-squares and weighted logistic solvers over polynomial bases.

The module holds the feature maps (``MultivariatePoly``, ``RadialPoly``,
and ``RadialFeatures``, which LRR and LRLR pass in), the column
standardization, the dense and radial designs that both solvers work on,
``solve_wls``, ``fit_logistic``, and ``sigmoid``, the program's only
sigmoid. Both solvers take leading batch dimensions, so many small local
fits run in one call. A call runs its batch in blocks of ``_BLOCK_POINTS``
points (at least one problem each), so its peak memory is bounded by the block,
not the batch; the budget was picked by a benchmark sweep, and no result
depends on it, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, prod

import numpy as np

from .errors import DimensionMismatch, ParameterError

# The logistic solver's Newton iteration cap, gradient tolerance and ridge.
MAX_ITER = 100
TOL = 1e-8
RIDGE = 1e-8

# A fit whose coefficient norm exceeds this is treated as separated and
# refit once with the escalated ridge.
SEPARATION_NORM = 1e3
SEPARATION_RIDGE = 1e-3

_MAX_HALVINGS = 30

# Least squares from the Gram matrix G = X^T W X loses about cond(G) eps, and
# a refinement step takes off a factor cond(G) eps of that; past this limit,
# it takes the SVD of W^(1/2) X.
GRAM_CONDITION_LIMIT = 1e4

# The most points (problems times n) in one block of a solver's batch.
_BLOCK_POINTS = 2**15


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


def _power(x: np.ndarray, e) -> np.ndarray:
    """``x ** e`` for an integer ``e >= 0``, elementwise as numpy's power
    loop computes it with an exponent array: the scalar ``x ** 2`` takes a
    squaring shortcut that rounds differently."""
    if e == 0:
        return np.ones_like(x)
    if e == 1:
        return x
    return np.power(x, np.full(x.shape, e, dtype=np.int64))


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
        powers = {
            (j, e): _power(x[..., j], e) for j in range(self.dim) for e in np.unique(exps[:, j]) if e
        }
        out = np.empty(x.shape[:-1] + (exps.shape[0],))
        for i, row in enumerate(exps):
            # Factors multiply left to right, as a product over the row would;
            # x^0 = 1 factors are exact and left out.
            col = None
            for j in np.flatnonzero(row):
                col = powers[j, row[j]] if col is None else col * powers[j, row[j]]
            out[..., i] = 1.0 if col is None else col
        return out


@dataclass(frozen=True)
class RadialPoly:
    """Basis 1, r, r^2, ..., r^degree of the radial distance, or with
    ``even`` set its even powers 1, r^2, r^4, ..., r^(2*degree)."""

    degree: int
    even: bool = False

    def __post_init__(self):
        if self.degree < 0:
            raise ParameterError("degree must be >= 0")

    @property
    def output_dim(self) -> int:
        return self.degree + 1

    @property
    def exponents(self) -> np.ndarray:
        return np.arange(self.degree + 1) * (2 if self.even else 1)

    def expand(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return r[..., None] ** self.exponents


@dataclass(frozen=True, eq=False)
class RadialFeatures:
    """The features ``basis.expand(radii)``, kept as the radii.

    ``fit_logistic`` and ``solve_wls`` fit them through the radial design,
    from power sums of the radius; ``solve_wls`` expands only the problems
    whose Gram matrix is too ill-conditioned (``GRAM_CONDITION_LIMIT``).
    Anything else reads them as the expanded (..., n, p) array:
    ``np.asarray`` expands them, and ``shape`` is that array's.
    """

    radii: np.ndarray
    basis: RadialPoly

    def __post_init__(self):
        object.__setattr__(self, "radii", np.ascontiguousarray(self.radii, dtype=np.float64))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.radii.shape + (self.basis.output_dim,)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.basis.expand(self.radii), dtype=dtype)


# ---------------------------------------------------------------------------
# Column standardization
# ---------------------------------------------------------------------------


def _moments(X: np.ndarray, weights: np.ndarray):
    """Each column's weighted mean and standard deviation, and its largest
    magnitude over the active rows.

    Moments are weighted so zero-weight rows (padding) cannot distort the
    scaling of the rows that actually enter the fit.
    """
    totals = weights.sum(axis=-1, keepdims=True)
    wn = weights / np.where(totals > 0, totals, 1.0)
    mean = np.einsum("...n,...np->...p", wn, X)
    var = np.einsum("...n,...np->...p", wn, (X - mean[..., None, :]) ** 2)
    std = np.sqrt(np.maximum(var, 0.0))
    active = (weights > 0)[..., :, None]
    col_max = np.abs(X).max(axis=-2, where=active, initial=0.0)
    return mean, std, col_max


def _column_scaling(mean, std, col_max):
    """Center/scale non-constant columns; constants are left untouched.

    Centering is applied only when column 0 is a constant nonzero column
    over the active rows (the feature-map convention puts the intercept
    first), so the removed offsets can be folded back into its coefficient.
    """
    # Constancy is relative to the column's own magnitude: a column of
    # uniformly tiny but varying values still carries information.
    is_const = std <= 1e-12 * col_max
    scale = np.where(is_const, 1.0, std)
    has_intercept = is_const[..., 0] & (np.abs(mean[..., 0]) > 1e-12)
    center = np.where(is_const, 0.0, mean) * has_intercept[..., None]
    return scale, center, has_intercept, mean[..., 0]


def _standardize(X: np.ndarray, weights: np.ndarray):
    scaling = _column_scaling(*_moments(X, weights))
    scale, center = scaling[:2]
    # Each problem's n*p entries as one row, so the elementwise loops run
    # along it rather than n times over p.
    n, p = X.shape[-2:]
    flat = X.reshape(X.shape[:-2] + (n * p,))
    Xs = (flat - np.tile(center, n)) / np.tile(scale, n)
    return (Xs.reshape(X.shape), *scaling)


def _destandardize(theta_s, scale, center, has_intercept, intercept_value):
    theta = theta_s / scale
    correction = -(theta_s * center / scale).sum(axis=-1)
    safe_v = np.where(has_intercept, intercept_value, 1.0)
    theta[..., 0] = theta[..., 0] + np.where(has_intercept, correction / safe_v, 0.0)
    return theta


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------


class _DenseDesign:
    """A flattened (B, n, p) standardized design held as it is.

    Every contraction over the n rows is a batched matmul, which numpy hands
    to BLAS one problem at a time: the Hessian is the weighted Gram matrix
    X^T diag(c) X. ``Xt`` is a transposed view, never a copy; BLAS reads it
    as a column-major matrix.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self.Xt = np.swapaxes(X, -1, -2)

    def dot(self, theta):
        """X theta, (B, n)."""
        return (self.X @ theta[..., None])[..., 0]

    def tdot(self, v):
        """X^T v, (B, p)."""
        return (self.Xt @ v[..., None])[..., 0]

    def gram(self, c):
        """X^T diag(c) X, (B, p, p)."""
        return self.Xt @ (self.X * c[..., None])

    def take(self, rows) -> _DenseDesign:
        return _DenseDesign(self.X[rows])


class _RadialDesign:
    """A flattened standardized design whose p columns are polynomials of
    degree <= E in one radius, held as the powers of that radius.

    With u = (r - m) / s the radius centered and scaled by its weighted mean
    and standard deviation, ``powers`` (B, 2E+1, n) holds u^0 ... u^2E and
    ``M`` (B, E+1, p) is the binomial change of basis with standardized
    design = U M, U the (n, E+1) matrix of u^0 ... u^E. So X theta is
    U (M theta), X^T v is M^T (U^T v), and X^T diag(c) X is M^T K M for the
    Hankel matrix K[i, j] = sum c u^(i+j) of the 2E+1 power sums
    ``powers @ c``.
    """

    def __init__(self, powers: np.ndarray, M: np.ndarray):
        self.powers = powers
        self.M = M
        self.Mt = np.swapaxes(M, -1, -2)
        k = M.shape[-2]
        self.hankel = np.add.outer(np.arange(k), np.arange(k))

    @property
    def low(self):
        return self.powers[:, : self.M.shape[-2]]

    def dot(self, theta):
        return (np.swapaxes(self.low, -1, -2) @ (self.M @ theta[..., None]))[..., 0]

    def tdot(self, v):
        return (self.Mt @ (self.low @ v[..., None]))[..., 0]

    def gram(self, c):
        sums = (self.powers @ c[..., None])[..., 0]
        return self.Mt @ sums[:, self.hankel] @ self.M

    def take(self, rows) -> _RadialDesign:
        return _RadialDesign(self.powers[rows], self.M[rows])


def _radial_design(features: RadialFeatures, weights: np.ndarray):
    """The ``_RadialDesign`` of ``features`` and its ``_column_scaling``.

    The column moments come from the power sums sum w u^k, k <= 2E, the
    same product ``powers @ w`` that the design's ``gram`` takes, so the
    expanded array is never formed. With mu_k those sums over sum w, and A
    the binomial matrix of r^e_j = sum_k A[k, j] u^k, column j has mean
    sum_k A[k, j] mu_k and variance A[1:, j]^T C A[1:, j] for
    C[k, l] = mu_(k+l) - mu_k mu_l. u is centered and of unit spread, so
    these sums do not cancel as sums of raw powers of r would.
    """
    r = features.radii
    exps = features.basis.exponents
    batch_shape, n = r.shape[:-1], r.shape[-1]
    totals = weights.sum(axis=-1)
    safe_totals = np.where(totals > 0, totals, 1.0)
    # Centering matters: powers of a radius far from 0 are nearly collinear.
    # These sums take numpy's pairwise loop over each whole row. A BLAS dot
    # would split a long one across its threads, and einsum a batch row
    # past its 8192-element buffer, each rounding differently.
    m = (weights * r).sum(axis=-1) / safe_totals
    u = r - m[..., None]
    s = np.sqrt((weights * (u * u)).sum(axis=-1) / safe_totals)
    s = np.where(s > 0, s, 1.0)
    u /= s[..., None]
    E = int(exps.max())
    powers = np.empty(batch_shape + (2 * E + 1, n))
    powers[..., 0, :] = 1.0
    for k in range(1, 2 * E + 1):
        np.multiply(powers[..., k - 1, :], u, out=powers[..., k, :])
    sums = (powers @ weights[..., None])[..., 0]

    # Powers by repeated products: numpy's power rounds a lone problem's
    # scalar differently from an array, and rows of a batch must not.
    m_pow, s_pow = [np.ones_like(m)], [np.ones_like(s)]
    for _ in range(E):
        m_pow.append(m_pow[-1] * m)
        s_pow.append(s_pow[-1] * s)
    A = np.zeros(batch_shape + (E + 1, exps.size))
    for j, e in enumerate(exps):
        # r^e = (m + s u)^e = sum_k C(e, k) m^(e-k) s^k u^k
        for k in range(e + 1):
            A[..., k, j] = comb(int(e), k) * m_pow[e - k] * s_pow[k]

    mu = sums / safe_totals[..., None]
    mean = (mu[..., None, : E + 1] @ A)[..., 0, :]
    k = np.arange(1, E + 1)
    C = mu[..., np.add.outer(k, k)] - mu[..., k, None] * mu[..., None, k]
    var = ((C @ A[..., 1:, :]) * A[..., 1:, :]).sum(axis=-2)
    r_max = np.abs(r).max(axis=-1, where=weights > 0, initial=0.0)
    col_max = np.power(r_max[..., None], exps)
    scaling = _column_scaling(mean, np.sqrt(np.maximum(var, 0.0)), col_max)
    scale, center = scaling[:2]

    A[..., 0, :] -= center
    A /= scale[..., None, :]
    design = _RadialDesign(powers.reshape(-1, 2 * E + 1, n), A.reshape(-1, E + 1, exps.size))
    return design, scaling


def _design(features, weights):
    """The design object of ``features`` over its flattened batch, and the
    ``_column_scaling`` of its columns in the batch shape."""
    if isinstance(features, RadialFeatures):
        return _radial_design(features, weights)
    # einsum and BLAS pick their order of summation by memory layout; in C
    # order a problem's result does not depend on the layout or the batch
    # position it arrives in.
    X = np.ascontiguousarray(features, dtype=np.float64)
    Xs, *scaling = _standardize(X, weights)
    return _DenseDesign(Xs.reshape((-1,) + X.shape[-2:])), scaling


# ---------------------------------------------------------------------------
# Weighted least squares
# ---------------------------------------------------------------------------


def _gram_solve(design, y, w):
    """The minimizer of sum w (y - X theta)^2 of each problem of a flattened
    design, (B, p), from the eigendecomposition of G = X^T diag(w) X and one
    refinement step, and which problems have cond(G) within the limit."""
    G, b = design.gram(w), design.tdot(w * y)
    lam, Q = np.linalg.eigh(G)
    solved = lam[:, 0] > lam[:, -1] / GRAM_CONDITION_LIMIT
    lam, Qt = np.where(solved[:, None], lam, 1.0), np.swapaxes(Q, -1, -2)
    solve = lambda b: (Q @ ((Qt @ b[..., None])[..., 0] / lam)[..., None])[..., 0]  # noqa: E731
    theta = solve(b)
    # The step's residual comes from X itself, whose condition is not squared.
    return theta + solve(design.tdot(w * (y - design.dot(theta)))), solved


def _svd_solve(X, y, w):
    """``solve_wls`` of the expanded (B, n, p) features ``X`` by the SVD of
    their standardized, weighted array, singular values up to max(n, p) eps
    s_max taken as zero: the least-norm minimizer, and whether any were."""
    n, p = X.shape[-2:]
    design, scaling = _design(X, w)
    sw = np.sqrt(w)
    U, s, Vt = np.linalg.svd(sw[..., None] * design.X, full_matrices=False)
    cutoff = max(n, p) * np.finfo(np.float64).eps * s.max(axis=-1, keepdims=True)
    keep = s > cutoff
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    utb = np.einsum("...nk,...n->...k", U, sw * y)
    theta_s = np.einsum("...kp,...k->...p", Vt, s_inv * utb)
    return _destandardize(theta_s, *scaling), keep.sum(axis=-1) < p


def _in_blocks(body, features, targets, weights):
    """``body`` over consecutive blocks of max(1, _BLOCK_POINTS // n) problems of the
    flattened batch, outputs concatenated into the batch shape."""
    *batch_shape, n, _ = np.shape(features)
    B, step = prod(batch_shape), max(1, _BLOCK_POINTS // n)
    radial = isinstance(features, RadialFeatures)
    X = features.radii if radial else np.asarray(features, dtype=np.float64)
    X = X.reshape((B,) + X.shape[len(batch_shape):])
    block = (lambda s: RadialFeatures(X[s], features.basis)) if radial else X.__getitem__
    y, w = (np.asarray(a, dtype=np.float64).reshape(B, n) for a in (targets, weights))
    # An empty batch is still one call, which gives its empty outputs.
    parts = [body(block(s), y[s], w[s]) for s in (slice(a, a + step) for a in range(0, max(B, 1), step))]
    return tuple(np.concatenate(out).reshape((*batch_shape, *out[0].shape[1:])) for out in zip(*parts))


def solve_wls(features, targets, weights):
    """Minimize sum_i w_i (y_i - x_i . theta)^2 over leading batch dims.

    Each problem is solved from the Gram matrix G = X^T W X of its
    standardized design and X^T W y (for ``RadialFeatures``, from the
    design's powers of the radius, as the logistic solver's Hessian is),
    and refined once from its residual; one with cond(G) past
    ``GRAM_CONDITION_LIMIT`` is solved by the SVD of its expanded, weighted
    array, whose rank test sees singular values down to the SVD's own
    cutoff.

    Parameters
    ----------
    features : (..., n, p) array, or ``RadialFeatures``
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
    return _in_blocks(_solve_wls, features, targets, weights)


def _solve_wls(features, targets, weights):
    y = np.ascontiguousarray(targets, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    batch_shape = y.shape[:-1]
    n, p = np.shape(features)[-2:]
    yf, wf = y.reshape(-1, n), w.reshape(-1, n)

    design, scaling = _design(features, w)
    theta_s, solved = _gram_solve(design, yf, wf)
    theta = _destandardize(theta_s.reshape(batch_shape + (p,)), *scaling).reshape(-1, p)
    condition_flag = np.zeros(len(yf), dtype=bool)
    if not solved.all():
        rest = ~solved
        X = (features.basis.expand(features.radii.reshape(-1, n)[rest])
             if isinstance(features, RadialFeatures)
             else np.ascontiguousarray(features, dtype=np.float64).reshape(-1, n, p)[rest])
        theta[rest], condition_flag[rest] = _svd_solve(X, yf[rest], wf[rest])
    return theta.reshape(batch_shape + (p,)), condition_flag.reshape(batch_shape)


# ---------------------------------------------------------------------------
# Weighted logistic (damped Newton)
# ---------------------------------------------------------------------------


def sigmoid(f, e=None):
    """1 / (1 + e^-f), elementwise, from one exp: the program's only sigmoid.

    With e = e^-|f|, it is 1 / (1 + e) where f >= 0 and e / (1 + e)
    elsewhere, which is scipy's ``expit`` to within four ulps; both reach
    1/2 at the same f, except for -3.3e-16 < f < -4.5e-17, where expit
    rounds up to 1/2 and this stays a few ulps below. It does not overflow:
    below f = -709.78, where expit's own exp(-f) overflows and it returns 0,
    this keeps the subnormal e^f. ``e``, when given, must be e^-|f|; it is
    overwritten.
    """
    if e is None:
        e = np.exp(-np.abs(f))
    # e <= 1, so this is 1 where f >= 0 and e elsewhere, without the
    # branches of a masked copy.
    s = np.maximum(e, f >= 0)
    e += 1.0
    s /= e
    return s


def _softplus_sigmoid(f):
    """log(1 + e^f) and ``sigmoid(f)``, elementwise, from one exp.

    With e = e^-|f|, the softplus is max(f, 0) + log1p(e), which is
    ``np.logaddexp(0, f)`` to within two ulps at under half its cost
    (np.exp is vectorized, logaddexp is not), and the same e gives
    ``sigmoid``, the program's only sigmoid. Neither overflows.
    """
    e = np.abs(f)
    np.negative(e, out=e)
    np.exp(e, out=e)
    softplus = np.log1p(e)
    softplus += np.maximum(f, 0.0)
    return softplus, sigmoid(f, e)


def _evaluate(f, y, w, theta, ridge, pen):
    """Penalized log-likelihood of ``theta`` given its linear predictor
    ``f = X theta``, and the probabilities s(f), so a caller that holds
    ``f`` never contracts ``X`` again.

    y*f - log(1 + e^f) is the pointwise Bernoulli log-likelihood, valid for
    fractional targets in [0, 1]. It is summed per row rather than as
    sum w y f - sum w log(1 + e^f): on saturated fits both of those sums
    are about sum w |f|, and their difference would lose that much to
    rounding.
    """
    softplus, prob = _softplus_sigmoid(f)
    ll = y * f
    ll -= softplus
    ll *= w
    return ll.sum(axis=-1) - 0.5 * ridge * ((theta**2) * pen).sum(axis=-1), prob


def _evaluate_at_zero(y, w, theta, ridge, pen):
    """``_evaluate`` at f = 0, bit for bit, in closed form: there the
    softplus is log1p(1) and the probability 1/2, so it takes no exp."""
    obj = (w * -np.log1p(1.0)).sum(-1) - 0.5 * ridge * ((theta**2) * pen).sum(-1)
    return obj, np.full(y.shape, 0.5)


def _newton(design, y, w, ridge, pen, max_iter, tol):
    """Damped Newton ascent on the penalized weighted log-likelihood.

    Operates on a flattened batch of B problems: ``design`` is a
    ``_DenseDesign`` or a ``_RadialDesign``, ``y`` and ``w`` are (B, n).
    ``pen`` carries per-problem, per-coefficient penalty scales (zero at the
    intercept position) so the ridge acts on the destandardized
    coefficients.

    Each candidate is scored from ``f + alpha * X step`` with ``f = X theta``
    in one pass over the rows, which reads the softplus of the objective
    and the probabilities of the next gradient from one exp
    (``_softplus_sigmoid``); the first, at alpha = 1, as ``f + X step``,
    which is the same sum. The accepted candidate's ``f`` and
    probabilities carry into the next iteration, so the loop contracts the
    design only for the gradient, the Hessian and the step. The ridge's
    diagonal of the Hessian is built once per call.

    The bookkeeping is cut to the common iteration, in which no problem
    stops and every problem accepts its full step: problems that converge
    or turn non-finite are found with one mask, whose scatters are skipped
    when it is empty, and the mask of problems still searching for a step
    is copied only once one of them rejects it. Problems leave the working
    set once converged, stalled or broken problems make up half of it;
    every per-problem result is the same as without that.
    """
    B, n = y.shape
    p = pen.shape[-1]
    eye = np.eye(p)
    ridge_diag = ridge * pen[:, :, None] * eye
    theta_out = np.zeros((B, p))
    converged = np.zeros(B, dtype=bool)
    iterations = np.full(B, max_iter, dtype=np.int64)
    # The working set: ``rows`` maps each of its problems to its output row.
    rows = np.arange(B)
    theta = np.zeros((B, p))
    active = np.ones(B, dtype=bool)
    f = np.zeros((B, n))
    obj, pr = _evaluate_at_zero(y, w, theta, ridge, pen)

    for it in range(1, max_iter + 1):
        resid = y - pr
        resid *= w
        grad = design.tdot(resid) - ridge * theta * pen
        gmax = np.abs(grad).max(axis=-1)

        # A problem stops once its gradient is below tol (converged) or
        # not finite (broken).
        finite = np.isfinite(gmax)
        stop = active & ~(finite & (gmax >= tol))
        if stop.any():
            converged[rows[stop]] = finite[stop]
            iterations[rows[stop]] = it - 1
            active &= ~stop
        # Stalls in the line search below shrink the working set too.
        if not active.any():
            break
        if 2 * np.count_nonzero(active) <= active.size:
            # Drop finished problems once they are half the working set, so
            # the copy of the design made here is at most half of it.
            theta_out[rows[~active]] = theta[~active]
            keep = np.flatnonzero(active)
            rows, y, w, pen, ridge_diag, theta, f, obj, pr, grad, active = (
                a[keep] for a in (rows, y, w, pen, ridge_diag, theta, f, obj, pr, grad, active)
            )
            design = design.take(keep)

        curv = w * pr
        curv *= 1.0 - pr
        H = design.gram(curv)
        H += ridge_diag
        # Tiny jitter keeps the batched solve defined when a problem is
        # fully saturated; a useless step is rejected by the line search.
        diag_scale = np.einsum("bpp->b", H) / p
        H += (1e-12 * np.maximum(diag_scale, 1.0) + 1e-300)[:, None, None] * eye
        try:
            step = np.linalg.solve(H, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = (np.linalg.pinv(H) @ grad[..., None])[..., 0]
        fstep = design.dot(step)

        # While the whole working set is pending (the first halving of
        # nearly every iteration) candidates are scored on the full arrays,
        # which a boolean gather would copy, and when all are accepted they
        # replace the old arrays without a scatter.
        pending = active
        whole = active.all()
        alpha = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            sel = slice(None) if whole else pending
            if alpha == 1.0:
                cand, cand_f = theta[sel] + step[sel], f[sel] + fstep[sel]
            else:
                cand, cand_f = theta[sel] + alpha * step[sel], f[sel] + alpha * fstep[sel]
            cand_obj, cand_pr = _evaluate(cand_f, y[sel], w[sel], cand, ridge, pen[sel])
            old = obj[sel]
            accept = cand_obj > old - 1e-12 * (1.0 + np.abs(old))
            accept &= np.isfinite(cand_obj)
            if whole and accept.all():
                theta, f, obj, pr = cand, cand_f, cand_obj, cand_pr
                break
            if pending is active:
                pending = active.copy()
            if accept.any():
                moved = np.flatnonzero(pending)[accept]
                theta[moved] = cand[accept]
                f[moved] = cand_f[accept]
                obj[moved] = cand_obj[accept]
                pr[moved] = cand_pr[accept]
                pending[moved] = False
                if not pending.any():
                    break
                whole = False
            alpha *= 0.5
        else:
            # A problem whose step never improved the objective has stalled.
            iterations[rows[pending]] = it
            active &= ~pending

    theta_out[rows] = theta
    return theta_out, converged, iterations


def fit_logistic(features, targets, weights):
    """Weighted Bernoulli maximum likelihood over leading batch dims.

    Maximizes sum_i w_i [y_i log s(f_i) + (1-y_i) log(1-s(f_i))] minus
    ``RIDGE/2 * |theta[1:]|^2`` by damped Newton iterations. Problems whose
    coefficient norm diverges (perfect separation) are refit once with the
    ridge raised to ``SEPARATION_RIDGE``. ``features`` is a (..., n, p)
    array, or ``RadialFeatures``, which are fitted from power sums of the
    radius.

    Returns ``(theta, converged, iterations)`` with the batch shape of the
    inputs.
    """
    return _in_blocks(_fit_logistic, features, targets, weights)


def _fit_logistic(features, targets, weights):
    y = np.ascontiguousarray(targets, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    design, scaling = _design(features, w)
    scale, center, has_intercept, v0 = scaling
    batch_shape = np.shape(features)[:-2]
    n, p = np.shape(features)[-2:]
    yf = y.reshape(-1, n)
    wf = w.reshape(-1, n)
    # The solver works on standardized columns where coefficient j is
    # scale_j times its destandardized value, so penalizing theta_s / scale
    # realizes the ridge on the returned coefficients (intercept excluded).
    pen = (1.0 / scale**2).reshape(-1, p).copy()
    pen[:, 0] = 0.0

    theta_s, converged, iterations = _newton(design, yf, wf, RIDGE, pen, MAX_ITER, TOL)

    norms = np.linalg.norm(theta_s / scale.reshape(-1, p), axis=-1)
    separated = np.isfinite(norms) & (norms > SEPARATION_NORM)
    if separated.any():
        t2, c2, i2 = _newton(
            design.take(separated), yf[separated], wf[separated],
            SEPARATION_RIDGE, pen[separated], MAX_ITER, TOL,
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

