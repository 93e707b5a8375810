"""Deterministic inputs for the tests: synthetic price series, the price CSV
writer, and benchmark trials as datasets.

``write_series_csv(synthetic_price_series())`` regenerates the bundled
``radial/data/synthetic_index.csv`` byte for byte.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from radial import synthlab
from radial.backtest import PriceSeries
from radial.core import Dataset, write_csv


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
    write_csv(path, ["date", "close"], zip((d.isoformat() for d in series.dates), series.closes))


def generate_trial(config: synthlab.SyntheticConfig, rng: np.random.Generator):
    """One benchmark trial as (train Dataset, test Dataset, test_eta).

    Training labels are Bernoulli draws of the noise-perturbed (and
    clipped) ground truth; test labels are noise-free Bernoulli draws.
    """
    arrays = synthlab._draw_trial(config, rng)
    train = Dataset.from_arrays(arrays.train_x, arrays.train_y)
    test = Dataset.from_arrays(arrays.test_x, arrays.test_y)
    return train, test, arrays.test_eta
