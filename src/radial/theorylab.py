"""Closed-form machinery and Monte-Carlo experiments for the theory-mode
radial estimator.

The theory-mode estimator fits even-degree radial polynomials with uniform
weights inside a shrinking ball and falls back to 0 when the window is
either too small or too collinear (the guard event). Its intercept admits
a closed form as a weighted label average whose weights come from the
orthogonal projector onto the even-power design columns; this module
exposes both routes plus the convergence-rate and concentration
experiments built on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# indexed_map stays importable here: bench/radbench/layers.py traces the
# radial.theorylab.indexed_map binding.
from ._parallel import indexed_map  # noqa: F401
from .core import euclidean_distances, strict_floor, write_csv
from .errors import ConfigurationError, DimensionMismatch, ParameterError
from .estimators import Boxcar, ProfileBatch, _lrr
# solve_wls stays importable here: bench/radbench/layers.py traces the
# radial.theorylab.solve_wls binding.
from .localfit import solve_wls  # noqa: F401

# Treat the guard statistic as failed when the weight denominator would be
# this small relative to the window size; the closed-form weights would
# blow up numerically even if the nominal threshold still passes.
_DENOM_GUARD = 1e-9


def default_threshold(d: int) -> float:
    """Guard threshold valid for uniformly distributed covariates."""
    return uniform_ball_constants(d).phi


@dataclass(frozen=True)
class TheoryConfig:
    """Smoothness/window configuration for the theory-mode estimator.

    ``omega`` defaults to the strict floor of ``beta/2`` and must be at
    least 1; pass it explicitly for boundary smoothness (``beta <= 2``),
    where the default would degenerate to 0.
    """

    beta: float
    d: int
    r_tilde: float
    phi: float | None = None
    omega: int | None = None

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ParameterError("beta must be positive and finite")
        if self.d < 1:
            raise ParameterError("dimension must be >= 1")
        if not self.r_tilde > 0:
            raise ParameterError("cutoff radius must be positive")
        if self.phi is None:
            object.__setattr__(self, "phi", default_threshold(self.d))
        if not 0 < self.phi < 1:
            raise ParameterError("threshold phi must lie in (0, 1)")
        if self.omega is None:
            object.__setattr__(self, "omega", strict_floor(self.beta / 2))
        if self.omega < 1:
            raise ParameterError(
                f"even-degree order must be >= 1, got {self.omega} "
                f"(beta = {self.beta}); pass omega explicitly for beta <= 2"
            )


@dataclass(frozen=True)
class DesignState:
    """Window summary: even-power design, guard statistic, and weights.

    ``zeta`` is the quadratic form <1, P 1> with P the projector onto the
    design columns (None when fewer points than columns make it
    meaningless). ``rho`` holds the closed-form weights only when the
    guard event holds; they sum to 1 and are orthogonal to the design.
    """

    n_inside: int
    r_matrix: np.ndarray
    zeta: float | None
    rho: np.ndarray
    event_holds: bool


def design_state(radii, config: TheoryConfig) -> DesignState:
    """Build the even-power design over points within the cutoff radius."""
    radii = np.asarray(radii, dtype=np.float64)
    inside = radii[radii <= config.r_tilde]
    n = inside.shape[0]
    omega = config.omega
    r_matrix = inside[:, None] ** (2 * np.arange(1, omega + 1))

    if n == 0:
        return DesignState(0, r_matrix, None, np.empty(0), False)

    # Orthonormal basis of the column span; the even-power columns are
    # nearly collinear for small radii, so avoid explicit inverses.
    u, s, _ = np.linalg.svd(r_matrix, full_matrices=False)
    cutoff = max(n, omega) * np.finfo(np.float64).eps * (s.max() if s.size else 0.0)
    rank = int((s > cutoff).sum())
    q = u[:, :rank]

    if n < omega:
        zeta = None
    else:
        proj = q.T @ np.ones(n)
        zeta = float(proj @ proj)

    event = (
        n >= 1 + omega
        and zeta is not None
        and zeta <= config.phi * n
        and (n - zeta) > _DENOM_GUARD * n
    )
    if event:
        ones = np.ones(n)
        residual = ones - q @ (q.T @ ones)
        rho = residual / (n - zeta)
    else:
        rho = np.empty(0)
    return DesignState(n, r_matrix, zeta, rho, event)


def lrr_closed_form(state: DesignState, labels) -> float:
    """Weighted label average <rho, labels>; 0 when the guard event fails."""
    if not state.event_holds:
        return 0.0
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (state.n_inside,):
        raise DimensionMismatch(
            f"expected {state.n_inside} in-window labels, got {labels.shape}"
        )
    return float(state.rho @ labels)


def theory_lrr(radii, config: TheoryConfig, labels) -> float:
    """Intercept of the uniform-weight even-degree radial fit; 0 off-event.

    The fit is the batched estimator kernel of ``lrr(profile,
    Boxcar(r_tilde), omega, even=True)`` on a batch of one. It agrees
    with :func:`lrr_closed_form` to high precision whenever the guard event
    holds (the closed form is its algebraic identity).
    """
    radii = np.asarray(radii, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if radii.shape != labels.shape:
        raise DimensionMismatch("radii and labels must be co-indexed")
    if not design_state(radii, config).event_holds:
        return 0.0
    batch = ProfileBatch(radii[None, :], labels[None, :])
    return float(_lrr(batch, Boxcar(config.r_tilde), q=config.omega, even=True).values[0])


# ---------------------------------------------------------------------------
# Analytic constants for uniform covariates
# ---------------------------------------------------------------------------


def ball_moment(d: int, k: int, r_tilde: float) -> float:
    """E(r^k) = d/(d+k) * r_tilde^k for a uniform draw in a d-ball."""
    if d < 1 or k < 1:
        raise ParameterError("d and k must be >= 1")
    return d / (d + k) * r_tilde**k


@dataclass(frozen=True)
class UniformBallConstants:
    rho_star: float
    phi: float


def uniform_ball_constants(d: int) -> UniformBallConstants:
    """Limiting projector mass per point and a safe guard threshold.

    For uniform covariates, the per-point mass of the projection of the
    all-ones vector onto the radial column concentrates at
    ``1 - 1/(d+1)^2``; the threshold ``1 - 1/(2(d+1)^2)`` sits strictly
    above it, so the guard event holds with overwhelming probability.
    """
    if d < 1:
        raise ParameterError("dimension must be >= 1")
    rho_star = 1.0 - 1.0 / (d + 1) ** 2
    phi = 1.0 - 1.0 / (2 * (d + 1) ** 2)
    return UniformBallConstants(rho_star, phi)


def sample_ball_radii(rng: np.random.Generator, n: int, d: int, r_tilde: float) -> np.ndarray:
    """Radii of uniform draws from the d-ball of radius ``r_tilde``."""
    if d < 1:
        raise ParameterError("dimension must be >= 1")
    return r_tilde * rng.random(n) ** (1.0 / d)


# ---------------------------------------------------------------------------
# Monte-Carlo experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    sample_sizes: tuple[int, ...]
    risks: tuple[float, ...]
    risk_ses: tuple[float, ...]
    fitted_slope: float
    theoretical_slope: float
    excluded_sizes: tuple[int, ...] = ()


def default_eta(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Smooth bump ground truth, 0.8 at the query and 0.5 far away."""
    sq = ((x - center) ** 2).sum(axis=-1)
    return 0.5 + 0.3 * np.exp(-sq)


def rate_experiment(
    beta: float,
    d: int,
    sample_sizes: Sequence[int],
    reps: int = 200,
    rng_seed: int = 0,
    eta_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> RateReport:
    """Monte-Carlo pointwise squared risk of the theory-mode estimator.

    For each sample size n, draws ``reps`` datasets (covariates uniform on
    the cube [-1, 1]^d around the fixed query at the origin, labels
    Bernoulli of the ground truth), applies the estimator with cutoff
    radius ``n**(-1/(d+2*beta))``, and averages the squared error at the
    query. The fitted log-log slope is compared with ``-2*beta/(d+2*beta)``.
    The even-degree order is ``strict_floor(beta/2)``, or 1 for
    ``beta <= 2``, and the guard threshold is :func:`default_threshold`.
    """
    sizes = [int(n) for n in sample_sizes]
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ParameterError("need at least 3 strictly increasing sample sizes")
    if sizes[0] < 1:
        raise ParameterError("sample sizes must be >= 1")
    if d < 1:
        raise ParameterError("dimension must be >= 1")
    if not 0 < beta < math.inf:
        raise ParameterError("beta must be positive and finite")
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    if eta_fn is None:
        eta_fn = default_eta
    omega = strict_floor(beta / 2) if beta > 2 else 1
    if omega + 1 > sizes[-1]:
        raise ConfigurationError(
            f"beta = {beta} gives even-degree order {omega:g}, so the guard event needs more "
            f"than {omega:g} points, but the largest sample size is {sizes[-1]}"
        )

    center = np.zeros(d)
    eta_at_query = float(eta_fn(center[None, :], center)[0])
    errors = np.empty((len(sizes), reps))
    held = np.empty((len(sizes), reps), dtype=bool)
    seeds = iter(np.random.SeedSequence(rng_seed).spawn(len(sizes) * reps))
    for i, n in enumerate(sizes):
        config = TheoryConfig(beta=beta, d=d, r_tilde=n ** (-1.0 / (d + 2.0 * beta)), omega=omega)
        for rep in range(reps):
            rng = np.random.default_rng(next(seeds))
            x = rng.uniform(-1.0, 1.0, size=(n, d))
            y = (rng.random(n) < eta_fn(x, center)).astype(np.float64)
            radii = euclidean_distances(center[None, :], x)[0]
            inside = radii <= config.r_tilde
            state = design_state(radii[inside], config)
            errors[i, rep] = (eta_at_query - lrr_closed_form(state, y[inside])) ** 2
            held[i, rep] = state.event_holds

    risks = errors.mean(axis=1)
    ses = errors.std(axis=1, ddof=1) / math.sqrt(reps) if reps > 1 else np.zeros(len(sizes))
    usable = held.any(axis=1) & (risks > 0)
    excluded = tuple(int(sizes[i]) for i in np.flatnonzero(~usable))
    if usable.sum() < 2:
        raise ConfigurationError("guard event failed everywhere; cannot fit a slope")
    log_n = np.log(np.asarray(sizes, dtype=np.float64)[usable])
    log_r = np.log(risks[usable])
    slope = float(np.polyfit(log_n, log_r, 1)[0])

    return RateReport(
        sample_sizes=tuple(sizes),
        risks=tuple(float(v) for v in risks),
        risk_ses=tuple(float(v) for v in ses),
        fitted_slope=slope,
        theoretical_slope=-2.0 * beta / (d + 2.0 * beta),
        excluded_sizes=excluded,
    )


@dataclass(frozen=True)
class ConcentrationRow:
    n_points: int
    ratio_mean: float
    ratio_sd: float


def zeta_concentration(
    d: int,
    r_tilde: float,
    n_values: Sequence[int],
    reps: int = 200,
    rng_seed: int = 0,
) -> list[ConcentrationRow]:
    """Per-point mass of the all-ones projection onto the radial column.

    Draws N radii uniformly from the d-ball and records
    ``(sum r)^2 / (N * sum r^2)``, the statistic whose limit is the
    ``rho_star`` of :func:`uniform_ball_constants`. It is scale-free:
    ``r_tilde`` changes it only by rounding.
    """
    if reps < 2:
        raise ParameterError("reps must be >= 2 to report a standard deviation")
    if not 0 < r_tilde < math.inf:
        raise ParameterError("cutoff radius must be positive and finite")
    root = np.random.SeedSequence(rng_seed)
    rows = []
    for n, seed in zip(n_values, root.spawn(len(list(n_values)))):
        n = int(n)
        if n < 1:
            raise ParameterError("window sizes must be >= 1")
        rng = np.random.default_rng(seed)
        radii = sample_ball_radii(rng, n * reps, d, r_tilde).reshape(reps, n)
        ratios = radii.sum(axis=1) ** 2 / (n * (radii**2).sum(axis=1))
        rows.append(ConcentrationRow(n, float(ratios.mean()), float(ratios.std(ddof=1))))
    return rows


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def write_rate_csv(report: RateReport, path) -> None:
    write_csv(path, ["n", "risk_mean", "risk_se"], zip(report.sample_sizes, report.risks, report.risk_ses))


def write_zeta_csv(rows: Sequence[ConcentrationRow], path) -> None:
    write_csv(path, ["N", "zeta_over_N_mean", "zeta_over_N_sd"],
              ((r.n_points, r.ratio_mean, r.ratio_sd) for r in rows))
