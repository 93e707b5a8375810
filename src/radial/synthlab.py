"""Synthetic benchmark: bimodal ground truth, trial generation, and the
concordance evaluation of all estimators at their benchmark settings.

The per-trial evaluation runs each registry method's batched kernel over
all test queries at once (one fit per method per trial); the per-query
estimators run the same kernels on batches of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import estimators, localfit
from ._parallel import indexed_map
from .core import euclidean_distances, write_csv
from .errors import DimensionMismatch, EmptyWindowError, ParameterError

# Not called here (the kernels call localfit's solvers); the benchmark's
# tracer wraps the bindings radial.synthlab.fit_logistic and .solve_wls.
from .localfit import fit_logistic, solve_wls  # noqa: F401

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SyntheticConfig:
    n_train: int = 500
    n_test: int = 500
    noise_sd: float = 0.05
    train_range: tuple[float, float] = (-1.0, 1.0)
    test_range: tuple[float, float] = (-0.7, 0.7)
    reps: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.n_train, self.n_test, self.reps) < 1 or not self.noise_sd >= 0:
            raise ParameterError("sizes must be positive and noise_sd nonnegative")
        for lo, hi in (self.train_range, self.test_range):
            if not lo < hi:
                raise ParameterError("ranges must be well ordered")


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _additive_quadratic(x: np.ndarray) -> np.ndarray:
    """Degree-2 features without interactions: 1, x_j, x_j^2.

    The global logistic baseline uses this additive basis; with cross
    terms it could carve out both bumps of the ground truth and would no
    longer behave like the weak parametric reference it is meant to be.
    """
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), x, x**2], axis=-1)


def eta_true(x) -> float | np.ndarray:
    """Bimodal ground-truth label probability on R^3.

    Two Gaussian-product bumps centered at (1/2, 1/2, 1/2) and its mirror
    image; the value stays within [0, 1] over the sampling cube.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 3:
        raise DimensionMismatch("the ground truth is defined on R^3")
    out = 15.0 * np.prod(_normal_pdf(2.0 * (x - 0.5)), axis=-1)
    out = out + 15.0 * np.prod(_normal_pdf(2.0 * (x + 0.5)), axis=-1)
    return float(out) if out.ndim == 0 else out


def clip01(z):
    """Nearest point of [0, 1]."""
    return np.minimum(np.maximum(z, 0.0), 1.0)


def concordance(pred, ref) -> float:
    """Fraction of agreeing positions between two label lists."""
    pred = np.asarray(pred)
    ref = np.asarray(ref)
    if pred.shape != ref.shape or pred.ndim != 1 or pred.shape[0] == 0:
        raise DimensionMismatch("label lists must be nonempty and equally long")
    return float((pred == ref).mean())


@dataclass(frozen=True)
class TrialArrays:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    test_eta: np.ndarray


def _draw_trial(config: SyntheticConfig, rng: np.random.Generator) -> TrialArrays:
    lo, hi = config.train_range
    train_x = rng.uniform(lo, hi, size=(config.n_train, 3))
    noise = rng.normal(0.0, config.noise_sd, size=config.n_train)
    p_train = clip01(eta_true(train_x) + noise)
    train_y = (rng.random(config.n_train) < p_train).astype(np.int64)

    lo, hi = config.test_range
    test_x = rng.uniform(lo, hi, size=(config.n_test, 3))
    test_eta = eta_true(test_x)
    test_y = (rng.random(config.n_test) < test_eta).astype(np.int64)
    return TrialArrays(train_x, train_y, test_x, test_y, test_eta)


# ---------------------------------------------------------------------------
# Method suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchMethod:
    name: str
    kind: str
    params: dict = field(default_factory=dict)


def default_method_suite() -> tuple[BenchMethod, ...]:
    """The benchmark's twelve method configurations."""
    methods = [
        BenchMethod("random", "random"),
        BenchMethod("logistic", "logistic", {"q": 2}),
    ]
    methods += [BenchMethod(f"knn_k{k}", "knn", {"k": k}) for k in (10, 20, 30, 40, 50)]
    methods += [
        BenchMethod("msknn_logi", "msknn-logi", {"k_vec": (10, 20, 30, 40, 50), "q": 2}),
        BenchMethod("lpor_h0.4", "lpor", {"h": 0.4, "q": 2}),
        BenchMethod("lpolr_h0.4", "lpolr", {"h": 0.4, "q": 2}),
        BenchMethod("lrlr_w1", "lrlr", {"weight": "constant_one", "q": 2}),
        BenchMethod("lrlr_winv", "lrlr", {"weight": "inverse_r", "q": 2}),
    ]
    return tuple(methods)


def _random(arrays: TrialArrays, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, arrays.test_x.shape[0]).astype(np.float64)


def _global_logistic(arrays: TrialArrays, rng: np.random.Generator) -> np.ndarray:
    theta, _, _ = localfit.fit_logistic(
        _additive_quadratic(arrays.train_x),
        arrays.train_y.astype(np.float64),
        np.ones(arrays.train_x.shape[0]),
    )
    return localfit.sigmoid(_additive_quadratic(arrays.test_x) @ theta)


# The two baselines that are not local estimators; every other kind is a
# method of the estimator registry.
_BASELINES = {"random": _random, "logistic": _global_logistic}


def trial_estimates(
    config: SyntheticConfig,
    rng: np.random.Generator,
    methods: Sequence[BenchMethod] | None = None,
):
    """Run one trial and return (arrays, {method name -> estimates}).

    Estimates are on the probability scale for the logistic variants and
    raw fitted values for the polynomial ones; the random baseline reports
    its coin flips as 0/1 estimates.
    """
    if methods is None:
        methods = default_method_suite()
    arrays = _draw_trial(config, rng)

    batch = None
    if any(m.kind not in _BASELINES for m in methods):
        D = euclidean_distances(arrays.test_x, arrays.train_x)
        batch = estimators.ProfileBatch.by_distance(D, arrays.train_y, arrays.train_x, arrays.test_x)

    estimates: dict[str, np.ndarray] = {}
    for method in methods:
        baseline = _BASELINES.get(method.kind)
        if baseline is not None:
            estimates[method.name] = baseline(arrays, rng)
            continue
        entry = estimators.get_method(method.kind)
        try:
            estimates[method.name] = entry.batch(batch, **entry.resolve(method.params)).values
        except EmptyWindowError as exc:
            warnings.warn(f"method {method.name} skipped for this trial: {exc}")
            estimates[method.name] = np.full(arrays.test_x.shape[0], np.nan)
    return arrays, estimates


# ---------------------------------------------------------------------------
# Benchmark driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkRow:
    method: str
    criterion: str
    mean: float
    se: float
    reps: int
    seed: int


def run_benchmark(
    config: SyntheticConfig,
    methods: Sequence[BenchMethod] | None = None,
) -> list[BenchmarkRow]:
    """Concordance of every method with the test labels and with the
    classifier under the true label probability, averaged over trials.

    Deterministic given ``config.rng_seed``: each trial owns a spawned RNG
    stream and results are reduced by trial index.
    """
    if methods is None:
        methods = default_method_suite()
    names = [m.name for m in methods]
    seeds = np.random.SeedSequence(config.rng_seed).spawn(config.reps)

    def run_trial(seed) -> np.ndarray:
        rng = np.random.default_rng(seed)
        out = np.full((len(methods), 2), np.nan)
        arrays, estimates = trial_estimates(config, rng, methods)
        bayes = estimators.classify(arrays.test_eta)
        for i, name in enumerate(names):
            est = estimates[name]
            if np.isnan(est).any():  # method skipped for this trial
                continue
            pred = estimators.classify(est)
            out[i, 0] = concordance(pred, arrays.test_y)
            out[i, 1] = concordance(pred, bayes)
        return out

    per_trial = np.stack(indexed_map(run_trial, list(seeds)))

    rows = []
    for i, name in enumerate(names):
        for j, criterion in enumerate(("labels", "bayes")):
            vals = per_trial[:, i, j]
            vals = vals[np.isfinite(vals)]
            n = vals.shape[0]
            mean = float(vals.mean()) if n else float("nan")
            se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            rows.append(BenchmarkRow(name, criterion, mean, se, n, config.rng_seed))
    return rows


def write_benchmark_csv(rows: Sequence[BenchmarkRow], path) -> None:
    write_csv(path, ["method", "criterion", "mean", "se", "reps", "seed"],
              ((r.method, r.criterion, r.mean, r.se, r.reps, r.seed) for r in rows))


def write_estimates_csv(test_eta, estimates: dict, path) -> None:
    """Per-query estimate columns for one trial (for external plotting)."""
    write_csv(path, ["eta_true", *estimates], np.column_stack([test_eta, *estimates.values()]))
