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

import csv
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
from .core import idtw, idtw_pairs  # noqa: F401
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
    n_train: int = 192
    validation_window: int = 24
    knn_grid: tuple[int, ...] = tuple(range(1, 31))
    msknn_kmax_grid: tuple[int, ...] = (20, 30, 50, 80, 120)
    msknn_k1: int = 5
    msknn_J: int = 5
    poly_degree: int = 2

    def __post_init__(self):
        if self.n_train <= self.validation_window:
            raise ParameterError("training window must exceed the validation window")
        if not self.knn_grid or not self.msknn_kmax_grid:
            raise ParameterError("parameter grids must be nonempty")


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
    "msknn-poly": ("msknn-poly", {}),
    "msknn-logi": ("msknn-logi", {"loss": "logit_squared"}),
    "lrlr-w1": ("lrlr", {"weight": "constant_one"}),
    "lrlr-winv": ("lrlr", {"weight": "inverse_r"}),
}
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
    """Read (ISO-8601 date, close) rows of UTF-8 text; the header row is
    optional and a leading byte-order mark is ignored.

    Rows are sorted by date (with a warning when the input was unsorted);
    duplicate dates and nonpositive closes are rejected.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            records = list(csv.reader(fh))
    except UnicodeDecodeError:
        raise ParseError("input is not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from None
    rows: list[tuple[dt.date, float]] = []
    for lineno, record in enumerate(records, start=1):
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        if len(record) != 2:
            raise ParseError(f"expected 2 columns, got {len(record)}", line=lineno)
        date_text, close_text = (f.strip() for f in record)
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            if lineno == 1:  # header
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
    """Rescaled-warping distances between the months of one walk.

    ``dist`` is a symmetric matrix over every labeled month, NaN until the
    pair is first needed; a month's closes and label are read from the
    history on first use.
    """

    def __init__(self, months):
        self.months = months
        self.dist = np.full((len(months), len(months)), np.nan)
        self.closes: list[np.ndarray | None] = [None] * len(months)
        self.labels = np.zeros(len(months))

    def read(self, i: int) -> None:
        if self.closes[i] is None:
            month = self.months[i]
            self.closes[i], self.labels[i] = month.block.closes, month.label

    def batch(self, queries: range, pool: range) -> estimators.ProfileBatch:
        """The profiles of months ``queries`` over the months ``pool``.

        The missing distances are computed in one kernel call; each row is
        then sorted stably, so ties go to the earlier month.
        """
        for i in (*queries, *pool):
            self.read(i)
        block = self.dist[queries.start:queries.stop, pool.start:pool.stop]
        rows, cols = np.nonzero(np.isnan(block))
        if rows.size:
            rows, cols = rows + queries.start, cols + pool.start
            values = idtw_pairs([self.closes[i] for i in rows], [self.closes[j] for j in cols])
            self.dist[rows, cols] = self.dist[cols, rows] = values
        order = np.argsort(block, axis=1, kind="stable")
        return estimators.ProfileBatch(
            radii=np.take_along_axis(block, order, axis=1),
            labels=self.labels[pool.start:pool.stop][order],
            index=order + pool.start,
        )


def _candidates(method: estimators.Method, fixed: dict, config: WalkForwardConfig):
    """(ledger value, resolved parameters) of each tuning candidate in grid
    order; a method that tunes nothing has the single candidate value None."""
    names = {p.name for p in method.params}
    base = dict(fixed, q=config.poly_degree) if "q" in names else dict(fixed)
    if "k" in names:
        grid = [(k, {"k": k}) for k in config.knn_grid]
    elif "k_vec" in names:
        grid = [(kmax, {"k_vec": msknn_kvec(config.msknn_k1, kmax, config.msknn_J)})
                for kmax in config.msknn_kmax_grid]
    else:
        grid = [(None, {})]
    return [(value, method.resolve({**base, **tuned})) for value, tuned in grid]


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
    for t uses the chosen parameter over the full pool t-T..t-1. Methods
    without a tunable parameter skip the validation stage.

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

    entry = None
    candidates = [(None, {})]
    if method in LOCAL_METHODS:
        kind, fixed = LOCAL_METHODS[method]
        entry = estimators.get_method(kind)
        candidates = _candidates(entry, fixed, config)
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
        if chosen is not None:
            hook("tune", t)
            validation = range(t - config.validation_window, t)
            batch = walk.batch(validation, range(t - config.n_train, validation.start))
            v_labels = walk.labels[validation.start:t]
            best_hits = -1
            for value, candidate in candidates:
                preds = estimators.classify(entry.batch(batch, **candidate).values)
                hits = int(np.count_nonzero(preds == v_labels))
                if hits > best_hits:
                    best_hits, chosen, params = hits, value, candidate
        chosen_out.append(chosen)

        hook("query", t)
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
# Synthetic fixture and CSV output
# ---------------------------------------------------------------------------


def synthetic_price_series(
    n_months: int = 420,
    seed: int = 20240809,
    start_year: int = 1990,
    start_month: int = 1,
    daily_drift: float = 2e-4,
    daily_vol: float = 9e-3,
) -> PriceSeries:
    """Deterministic geometric random walk sampled on weekdays.

    Stands in for proprietary index data so the pipeline can be exercised
    end to end; one row per weekday of each calendar month.
    """
    rng = np.random.default_rng(seed)
    dates: list[dt.date] = []
    year, month = start_year, start_month
    for _ in range(n_months):
        day = dt.date(year, month, 1)
        while day.month == month:
            if day.weekday() < 5:
                dates.append(day)
            day += dt.timedelta(days=1)
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    log_returns = rng.normal(daily_drift, daily_vol, size=len(dates))
    closes = 100.0 * np.exp(np.cumsum(log_returns))
    return PriceSeries(tuple(dates), closes)


def write_series_csv(series: PriceSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "close"])
        for date, close in zip(series.dates, series.closes):
            writer.writerow([date.isoformat(), repr(float(close))])


def bundled_fixture_path() -> str:
    """Path of the synthetic price CSV shipped with the package."""
    return str(resources.files("radial").joinpath("data/synthetic_index.csv"))


def write_ledger_csv(ledger: BacktestLedger, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["month", "prediction", "label", "chosen_param", "return", "cumulative"])
        for month, pred, label, param, ret, cum in zip(
            ledger.months,
            ledger.predictions,
            ledger.labels,
            ledger.chosen_params,
            ledger.returns,
            ledger.cumulative,
        ):
            writer.writerow(
                [
                    f"{month[0]:04d}-{month[1]:02d}",
                    pred,
                    label,
                    "" if param is None else param,
                    repr(ret),
                    repr(cum),
                ]
            )
