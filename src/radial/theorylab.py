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

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._parallel import indexed_map
from .core import NeighborProfile, strict_floor
from .errors import ConfigurationError, DimensionMismatch, ParameterError
from .localfit import RadialEvenPoly, solve_wls

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
        if self.beta <= 0:
            raise ParameterError("beta must be positive")
        if self.d < 1:
            raise ParameterError("dimension must be >= 1")
        if self.r_tilde <= 0:
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
    rank_deficient: bool = False


def _radii_labels(profile_or_radii, labels=None):
    if isinstance(profile_or_radii, NeighborProfile):
        prof = profile_or_radii
        return prof.radii, prof.labels if labels is None else np.asarray(labels)
    radii = np.asarray(profile_or_radii, dtype=np.float64)
    return radii, None if labels is None else np.asarray(labels)


def design_state(profile_or_radii, config: TheoryConfig) -> DesignState:
    """Build the even-power design over points within the cutoff radius."""
    radii, _ = _radii_labels(profile_or_radii)
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
    rank_deficient = rank < min(n, omega)
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
    return DesignState(n, r_matrix, zeta, rho, event, rank_deficient)


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


def theory_lrr(profile_or_radii, config: TheoryConfig, labels=None) -> float:
    """Intercept of the uniform-weight even-degree radial fit; 0 off-event.

    Agrees with :func:`lrr_closed_form` to high precision whenever the
    guard event holds (the closed form is its algebraic identity).
    """
    radii, lab = _radii_labels(profile_or_radii, labels)
    if lab is None:
        raise ParameterError("labels are required (pass a profile or explicit labels)")
    if radii.shape != lab.shape:
        raise DimensionMismatch("radii and labels must be co-indexed")
    state = design_state(radii, config)
    if not state.event_holds:
        return 0.0
    inside = radii <= config.r_tilde
    r_in = radii[inside]
    y_in = lab[inside].astype(np.float64)
    features = RadialEvenPoly(config.omega).expand(r_in)
    weights = np.full(r_in.shape[0], 1.0 / r_in.shape[0])
    theta, _ = solve_wls(features, y_in, weights)
    return float(theta[0])


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
    omega: int | None = None,
    phi: float | None = None,
) -> RateReport:
    """Monte-Carlo pointwise squared risk of the theory-mode estimator.

    For each sample size n, draws ``reps`` datasets (covariates uniform on
    the cube [-1, 1]^d around the fixed query at the origin, labels
    Bernoulli of the ground truth), applies the estimator with cutoff
    radius ``n**(-1/(d+2*beta))``, and averages the squared error at the
    query. The fitted log-log slope is compared with ``-2*beta/(d+2*beta)``.
    """
    sizes = [int(n) for n in sample_sizes]
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ParameterError("need at least 3 strictly increasing sample sizes")
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    if eta_fn is None:
        eta_fn = default_eta
    if omega is None:
        omega = max(1, strict_floor(beta / 2)) if beta > 2 else 1

    center = np.zeros(d)
    eta_at_query = float(eta_fn(center[None, :], center)[0])
    root = np.random.SeedSequence(rng_seed)
    cells = [(i, rep) for i in range(len(sizes)) for rep in range(reps)]
    seeds = root.spawn(len(cells))

    def run_cell(args) -> tuple[float, bool]:
        (i, _rep), seed = args
        n = sizes[i]
        r_tilde = n ** (-1.0 / (d + 2.0 * beta))
        config = TheoryConfig(beta=beta, d=d, r_tilde=r_tilde, phi=phi, omega=omega)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=(n, d))
        eta = eta_fn(x, center)
        y = (rng.random(n) < eta).astype(np.float64)
        radii = np.linalg.norm(x, axis=1)
        inside = radii <= r_tilde
        state = design_state(radii[inside], config)
        estimate = lrr_closed_form(state, y[inside])
        return (eta_at_query - estimate) ** 2, state.event_holds

    results = indexed_map(run_cell, list(zip(cells, seeds)))
    errors = np.array([r[0] for r in results]).reshape(len(sizes), reps)
    held = np.array([r[1] for r in results]).reshape(len(sizes), reps)

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
    ``rho_star`` of :func:`uniform_ball_constants`.
    """
    if reps < 2:
        raise ParameterError("reps must be >= 2 to report a standard deviation")
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "risk_mean", "risk_se"])
        for n, risk, se in zip(report.sample_sizes, report.risks, report.risk_ses):
            writer.writerow([n, repr(risk), repr(se)])


def write_zeta_csv(rows: Sequence[ConcentrationRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "zeta_over_N_mean", "zeta_over_N_sd"])
        for row in rows:
            writer.writerow([row.n_points, repr(row.ratio_mean), repr(row.ratio_sd)])
