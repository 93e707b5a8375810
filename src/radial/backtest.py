"""Walk-forward month-end direction backtest on variable-length price months.

Pipeline: ingest a (date, close) CSV, segment by calendar month, label each
month by whether the next month-end close strictly rises, then walk forward
through the test period. For each test month the hyperparameter maximizing
accuracy on the trailing validation months is selected (training on the
window before them), and the final prediction uses the full trailing
training window. Neighborhoods use the first-element-rescaled warping
distance, so months of different lengths are comparable.
"""

from __future__ import annotations

import datetime as dt
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from . import estimators
# idtw stays importable here: bench/radbench/layers.py traces the
# radial.backtest.idtw binding.
from .core import dtw_columns, idtw, read_csv, rescale, write_csv  # noqa: F401
from .errors import ConfigurationError, DomainError, ParameterError, ParseError

MonthId = tuple[int, int]


@dataclass(frozen=True)
class PriceSeries:
    dates: tuple[dt.date, ...]
    closes: np.ndarray

    def __post_init__(self):
        closes = np.asarray(self.closes, dtype=np.float64)
        if len(self.dates) != closes.shape[0] or closes.ndim != 1 or closes.shape[0] == 0:
            raise DomainError("a price series needs one close per date")
        if np.any(closes <= 0) or not np.all(np.isfinite(closes)):
            raise DomainError("closes must be positive and finite")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise DomainError("dates must be strictly increasing")
        closes = closes.copy()
        closes.setflags(write=False)
        object.__setattr__(self, "closes", closes)

    def __len__(self) -> int:
        return self.closes.shape[0]


@dataclass(frozen=True)
class MonthBlock:
    """Daily closes of one calendar month, in date order."""

    month_id: MonthId
    closes: np.ndarray

    def __post_init__(self):
        closes = np.asarray(self.closes, dtype=np.float64)
        if closes.ndim != 1 or closes.shape[0] < 1:
            raise DomainError("a month must contain at least one close")
        closes = closes.copy()
        closes.setflags(write=False)
        object.__setattr__(self, "closes", closes)

    @property
    def month_end_close(self) -> float:
        return float(self.closes[-1])

    @property
    def n_days(self) -> int:
        return self.closes.shape[0]


@dataclass(frozen=True)
class LabeledMonth:
    """A month block with its realized direction label.

    ``label`` is 1 when the next month-end close strictly exceeds this
    month's; ``next_close`` carries that successor close so returns can be
    scored without reaching past the labeled list.
    """

    block: MonthBlock
    label: int
    next_close: float

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DomainError("label must be 0 or 1")
        expected = 1 if self.next_close > self.block.month_end_close else 0
        if expected != self.label:
            raise DomainError("label contradicts the stored successor close")


@dataclass(frozen=True)
class WalkForwardConfig:
    """The training and validation windows, in months, and the k_max grid
    of the multiscale k-NN ladders ``msknn_kvec(5, k_max, 5)``."""

    n_train: int = 192
    validation_window: int = 24
    msknn_kmax_grid: tuple[int, ...] = (20, 30, 50, 80, 120)

    def __post_init__(self):
        if self.validation_window < 1:
            raise ParameterError("validation window must be >= 1 month")
        if self.n_train <= self.validation_window:
            raise ParameterError("training window must exceed the validation window")
        if not self.msknn_kmax_grid:
            raise ParameterError("the k_max grid must be nonempty")


@dataclass(frozen=True)
class BacktestLedger:
    months: tuple[MonthId, ...]
    predictions: tuple[int, ...]
    labels: tuple[int, ...]
    chosen_params: tuple[int | None, ...]
    returns: tuple[float, ...]
    cumulative: tuple[float, ...]
    method: str


# Each local method is a registry estimator with fixed parameters; its
# k (k-NN) or k_vec (multiscale k-NN) is tuned, see _candidates.
LOCAL_METHODS = {
    "knn": ("knn", {}),
    "msknn-poly": ("msknn-poly", {"q": 2}),
    "msknn-logi": ("msknn-logi", {"q": 2, "loss": "logit_squared"}),
    "lrlr-w1": ("lrlr", {"weight": "constant_one", "q": 2}),
    "lrlr-winv": ("lrlr", {"weight": "inverse_r", "q": 2}),
}
# The k-NN tuning grid.
KNN_GRID = tuple(range(1, 31))
# Baselines that read no market data: hold the index, or flip a coin.
_BASELINES = {
    "buy": lambda rng: 1,
    "random": lambda rng: int(rng.integers(0, 2)),
}
METHODS = (*LOCAL_METHODS, *_BASELINES)


# ---------------------------------------------------------------------------
# Ingestion and segmentation
# ---------------------------------------------------------------------------


def ingest_csv(path) -> PriceSeries:
    """Read (ISO-8601 date, close) rows through ``core.read_csv``; the
    first nonblank record may be a header.

    Rows are sorted by date (with a warning when the input was unsorted);
    duplicate dates and nonpositive closes are rejected.
    """
    rows: list[tuple[dt.date, float]] = []
    for i, (lineno, record) in enumerate(read_csv(path, "input")):
        if len(record) != 2:
            raise ParseError(f"expected 2 columns, got {len(record)}", line=lineno)
        date_text, close_text = (f.strip() for f in record)
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            if i == 0:  # header
                continue
            raise ParseError(f"bad date {date_text!r}", line=lineno) from None
        try:
            close = float(close_text)
        except ValueError:
            raise ParseError(f"bad close {close_text!r}", line=lineno) from None
        if not math.isfinite(close) or close <= 0:
            raise ParseError(f"nonpositive close {close_text!r}", line=lineno)
        rows.append((date, close))
    if not rows:
        raise ParseError("no data rows")
    dates = [r[0] for r in rows]
    if len(set(dates)) != len(dates):
        dup = next(d for i, d in enumerate(dates) if d in dates[:i])
        raise ParseError(f"duplicate date {dup.isoformat()}")
    if any(b < a for a, b in zip(dates, dates[1:])):
        warnings.warn("input rows were not sorted by date; sorting")
        rows.sort(key=lambda r: r[0])
    return PriceSeries(tuple(r[0] for r in rows), np.array([r[1] for r in rows]))


def segment_months(series: PriceSeries) -> list[MonthBlock]:
    """One block per calendar month present, closes in date order."""
    blocks: list[MonthBlock] = []
    current: MonthId | None = None
    closes: list[float] = []
    for date, close in zip(series.dates, series.closes):
        month = (date.year, date.month)
        if month != current:
            if current is not None:
                blocks.append(MonthBlock(current, np.array(closes)))
            current, closes = month, []
        closes.append(float(close))
    blocks.append(MonthBlock(current, np.array(closes)))
    return blocks


def label_months(blocks: Sequence[MonthBlock]) -> list[LabeledMonth]:
    """Direction labels for every month with a successor (strict increase)."""
    if len(blocks) < 2:
        raise DomainError("need at least two months to label")
    out = []
    for block, successor in zip(blocks, blocks[1:]):
        nxt = successor.month_end_close
        out.append(LabeledMonth(block, 1 if nxt > block.month_end_close else 0, nxt))
    return out


def msknn_kvec(k1: int, kmax: int, J: int) -> tuple[int, ...]:
    """Arithmetic neighbor-count ladder from k1 to kmax in J steps.

    Uses the ordinary floor so the ladder actually ends at ``kmax``.
    """
    if k1 >= kmax or J < 2:
        raise ParameterError("need k1 < kmax and J >= 2")
    return tuple(k1 + math.floor((j - 1) * (kmax - k1) / (J - 1)) for j in range(1, J + 1))


# ---------------------------------------------------------------------------
# Returns and reports
# ---------------------------------------------------------------------------


def monthly_return(prediction: int, e_t: float, e_t1: float) -> float:
    """Virtual-trading return: long the move when predicting a rise, short otherwise."""
    if e_t <= 0:
        raise DomainError("month-end price must be positive")
    change = (e_t1 - e_t) / e_t
    return 1.0 + change if prediction == 1 else 1.0 - change


def cumulative_return(returns: Sequence[float]) -> list[float]:
    """Running product of monthly returns."""
    out: list[float] = []
    acc = 1.0
    for r in returns:
        acc *= r
        out.append(acc)
    return out


def accuracy_report(ledger: BacktestLedger) -> float:
    if not ledger.months:
        raise DomainError("empty ledger")
    hits = sum(p == y for p, y in zip(ledger.predictions, ledger.labels))
    return hits / len(ledger.months)


# ---------------------------------------------------------------------------
# Walk-forward engine
# ---------------------------------------------------------------------------


class _WalkDistances:
    """Rescaled-warping distances from each month of one walk to the months
    before it: row i of ``dist`` holds them from some month on, all filled
    in one kernel call, and is NaN elsewhere. A month's label and
    ``rescale``-d closes are read on first use, the closes into column i of
    one zero-padded (most days, months) array.
    """

    def __init__(self, months):
        self.months = months
        self.dist = np.full((len(months), len(months)), np.nan)
        self.closes = np.zeros((0, len(months)))
        self.lengths = np.zeros(len(months), dtype=np.int64)
        self.labels = np.zeros(len(months))

    def read(self, i: int) -> None:
        if not self.lengths[i]:
            month = self.months[i]
            closes = rescale(month.block.closes)
            if len(closes) > len(self.closes):
                self.closes = np.pad(self.closes, ((0, len(closes) - len(self.closes)), (0, 0)))
            self.closes[:len(closes), i] = closes
            self.lengths[i], self.labels[i] = len(closes), month.label

    def batch(self, queries: range, pool: range) -> estimators.ProfileBatch:
        """The profiles of months ``queries`` over the earlier months ``pool``.

        A query month whose row does not reach back to the pool fills it
        from there; each row is then sorted stably, so ties go to the
        earlier month, and ``index`` holds positions in the pool.
        """
        s = pool.start
        for i in queries.start + np.flatnonzero(np.isnan(self.dist[queries.start:queries.stop, s])):
            for j in s + np.flatnonzero(self.lengths[s:i + 1] == 0):
                self.read(int(j))
            a = self.closes[:self.lengths[i], i]
            self.dist[i, s:i] = dtw_columns(a, self.closes[:, s:i], self.lengths[s:i])
        block = self.dist[queries.start:queries.stop, s:pool.stop]
        return estimators.ProfileBatch.by_distance(block, self.labels[s:pool.stop])


def _candidates(method: estimators.Method, fixed: dict, config: WalkForwardConfig):
    """(ledger value, resolved parameters) of each candidate in grid order,
    and the parameters that score them all in one kernel call, the tuned one
    being the array of every candidate's value; a method that tunes nothing
    has the single candidate value None and no grid."""
    names = {p.name for p in method.params}
    if "k" in names:
        name, grid = "k", [(k, k) for k in KNN_GRID]
    elif "k_vec" in names:
        name, grid = "k_vec", [(kmax, msknn_kvec(5, kmax, 5)) for kmax in config.msknn_kmax_grid]
    else:
        return [(None, method.resolve(fixed))], None
    candidates = [(value, method.resolve({**fixed, name: tuned})) for value, tuned in grid]
    return candidates, {**candidates[0][1], name: np.array([params[name] for _, params in candidates])}


def walk_forward_predict(
    labeled: Sequence[LabeledMonth],
    test_start: MonthId,
    test_end: MonthId,
    method: str,
    config: WalkForwardConfig | None = None,
    rng_seed: int = 0,
    phase_hook: Callable[[str, int], None] | None = None,
) -> BacktestLedger:
    """Walk the test months, tuning on the trailing validation window.

    For test month t, each candidate parameter predicts the validation
    months t-V..t-1 against the fixed pool t-T..t-V-1 and the accuracy
    maximizer wins (ties to the smallest candidate); the final prediction
    for t uses the chosen parameter over the full pool t-T..t-1. The grid is
    scored in one kernel call; methods that tune nothing skip this stage.

    ``phase_hook(stage, t)`` is invoked before the tune / query / predict /
    score stages of each test month, which lets tests assert that tuning
    and prediction never read months at or beyond t.
    """
    if config is None:
        config = WalkForwardConfig()
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")

    ids = [m.block.month_id for m in labeled]
    try:
        start_idx = ids.index(tuple(test_start))
        end_idx = ids.index(tuple(test_end))
    except ValueError as exc:
        raise ConfigurationError(f"test month not present in the labeled history: {exc}") from None
    if start_idx > end_idx:
        raise ConfigurationError("test_start must not come after test_end")
    if start_idx < config.n_train:
        raise ConfigurationError(
            f"need {config.n_train} months of history before the first test month, "
            f"have {start_idx}"
        )

    entry, candidates, grid = None, [(None, {})], None
    if method in LOCAL_METHODS:
        kind, fixed = LOCAL_METHODS[method]
        entry = estimators.get_method(kind)
        candidates, grid = _candidates(entry, fixed, config)
    # A candidate's ledger value is its k, or its ladder's k_max.
    largest = max((value for value, _ in candidates if value is not None), default=0)
    tuning = config.n_train - config.validation_window
    if largest > tuning:
        raise ConfigurationError(
            f"a training window of {config.n_train} months less a validation window of "
            f"{config.validation_window} leaves {tuning} tuning months, fewer than the "
            f"largest candidate k of {method}, {largest}"
        )
    walk = _WalkDistances(labeled)
    rng = np.random.default_rng(rng_seed)
    hook = phase_hook if phase_hook is not None else (lambda stage, t: None)

    months_out: list[MonthId] = []
    predictions: list[int] = []
    labels_out: list[int] = []
    chosen_out: list[int | None] = []
    returns: list[float] = []

    for t in range(start_idx, end_idx + 1):
        chosen, params = candidates[0]
        if grid is not None:
            hook("tune", t)
            validation = range(t - config.validation_window, t)
            batch = walk.batch(validation, range(t - config.n_train, validation.start))
            # (V, C) classes: validation month v under candidate c.
            preds = estimators.classify(entry.batch(batch, **grid).values)
            hits = np.count_nonzero(preds == walk.labels[validation.start:t, None], axis=0)
            # argmax takes the first maximum: ties go to the smallest candidate.
            chosen, params = candidates[int(np.argmax(hits))]
        chosen_out.append(chosen)

        hook("query", t)
        if entry is not None:
            walk.read(t)

        hook("predict", t)
        if entry is None:
            pred = _BASELINES[method](rng)
        else:
            batch = walk.batch(range(t, t + 1), range(t - config.n_train, t))
            pred = int(estimators.classify(entry.batch(batch, **params).values)[0])

        hook("score", t)
        month = labeled[t]
        months_out.append(month.block.month_id)
        predictions.append(pred)
        labels_out.append(month.label)
        returns.append(monthly_return(pred, month.block.month_end_close, month.next_close))

    return BacktestLedger(
        months=tuple(months_out),
        predictions=tuple(predictions),
        labels=tuple(labels_out),
        chosen_params=tuple(chosen_out),
        returns=tuple(returns),
        cumulative=tuple(cumulative_return(returns)),
        method=method,
    )


# ---------------------------------------------------------------------------
# Bundled fixture and CSV output
# ---------------------------------------------------------------------------


def bundled_fixture_path() -> str:
    """Path of the synthetic price CSV shipped with the package."""
    return str(resources.files("radial").joinpath("data/synthetic_index.csv"))


def write_ledger_csv(ledger: BacktestLedger, path) -> None:
    months = (f"{year:04d}-{month:02d}" for year, month in ledger.months)
    write_csv(path, ["month", "prediction", "label", "chosen_param", "return", "cumulative"],
              zip(months, ledger.predictions, ledger.labels, ledger.chosen_params,
                  ledger.returns, ledger.cumulative))
