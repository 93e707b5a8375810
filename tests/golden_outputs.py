"""Golden outputs: the files every CLI command writes at fixed seeds, and
how a rerun is compared with the committed copies under ``tests/golden/``.

Run from the repository root, at one worker thread:

    RADIAL_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden_outputs.py

to rewrite every file under ``tests/golden/``. Do that only for a change
that moves an output on purpose, and report what moved: the comparison of
``tests/test_golden.py`` names each file, its largest change and how many
values moved.

The runs are:

- ``bench-synthetic --reps 10 --seed 2``: its CSV, stdout and
  ``--predictions-out``;
- ``backtest --input builtin`` for every method: each ledger and stdout;
- ``rate`` and ``zeta`` at ``--reps 50 --seed 0``: each CSV and stdout;
- ``estimate`` for all eight methods (msknn-logi under both losses) on the
  committed training file ``estimate-train.csv``: each stdout.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from radial import backtest
from radial.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
TRAIN = "estimate-train.csv"

# A float must match its golden value to within ATOL + RTOL * |golden|.
# The files are written on one machine, and numpy's exp and log may round
# differently on another CPU; every other token must match exactly.
ATOL = 1e-9
RTOL = 1e-9

# Files of estimated probabilities, whose classes (value >= 1/2) must match.
CLASS_FILES = {"bench-synthetic-predictions.csv"}

# (stdout file label, method, --params) of each estimate run.
ESTIMATES = [
    ("ks", "ks", "h=0.5"),
    ("knn", "knn", "k=10"),
    ("lpor", "lpor", "h=0.9,q=2"),
    ("lpolr", "lpolr", "h=0.9,q=2"),
    ("msknn-poly", "msknn-poly", "k_vec=10:20:30:40:50"),
    ("msknn-logi", "msknn-logi", "k_vec=10:20:30:40:50"),
    ("msknn-logi-logit_squared", "msknn-logi", "k_vec=10:20:30:40:50,loss=logit_squared"),
    ("lrr", "lrr", "weight=inverse_r"),
    ("lrlr", "lrlr", "weight=constant_one"),
]


def runs(directory: Path) -> list[tuple[str, list[str]]]:
    """(stdout file name, argv) of every run; files named by ``--out`` and
    ``--predictions-out`` go to ``directory``."""
    out = lambda name: ["--out", str(directory / name)]  # noqa: E731
    calls = [("bench-synthetic.stdout",
              ["bench-synthetic", "--reps", "10", "--seed", "2", *out("bench-synthetic.csv"),
               "--predictions-out", str(directory / "bench-synthetic-predictions.csv")])]
    calls += [(f"backtest-{m}.stdout",
               ["backtest", "--input", "builtin", "--method", m, *out(f"backtest-{m}.csv")])
              for m in backtest.METHODS]
    calls += [(f"{cmd}.stdout", [cmd, "--reps", "50", "--seed", "0", *out(f"{cmd}.csv")])
              for cmd in ("rate", "zeta")]
    calls += [(f"estimate-{label}.stdout",
               ["estimate", "--train", str(GOLDEN / TRAIN), "--query", "0.1,-0.2",
                "--method", method, "--params", params])
              for label, method, params in ESTIMATES]
    return calls


def generate(directory: Path) -> dict[str, str]:
    """Run every command in-process; the text of each file it writes, by name."""
    texts = {}
    for stdout_name, argv in runs(directory):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"radial {' '.join(argv)} exited {code}")
        texts[stdout_name] = stdout.getvalue()
    for path in directory.iterdir():
        texts[path.name] = read(path)
    return texts


def read(path: Path) -> str:
    """The text of ``path`` with its line endings as written: CSV rows end
    in CR LF."""
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b)")


@dataclass
class Comparison:
    """How one regenerated file differs from its golden copy."""

    name: str
    values: int = 0
    moved: int = 0
    largest: float = 0.0
    beyond_tolerance: int = 0
    exact_mismatches: int = 0
    class_flips: int = 0
    layout: str = ""

    @property
    def ok(self) -> bool:
        return not (self.layout or self.beyond_tolerance or self.exact_mismatches or self.class_flips)

    def __str__(self) -> str:
        if self.layout:
            return f"{self.name}: {self.layout}"
        return (f"{self.name}: {self.moved} of {self.values} values moved, largest change "
                f"{self.largest:.3g}; {self.beyond_tolerance} beyond tolerance, "
                f"{self.exact_mismatches} integers changed, {self.class_flips} classes flipped")


def compare(name: str, want: str, got: str) -> Comparison:
    """Compare ``got`` with the golden ``want`` token by token: text between
    numbers and every integer must match exactly, and each float to within
    ``ATOL + RTOL * |golden|``."""
    result = Comparison(name)
    want_parts, got_parts = _NUMBER.split(want), _NUMBER.split(got)
    if len(want_parts) != len(got_parts):
        result.layout = f"{len(got_parts) // 2} values where the golden file has {len(want_parts) // 2}"
        return result
    for i, (a, b) in enumerate(zip(want_parts, got_parts)):
        if i % 2 == 0:
            if a != b:
                result.layout = f"text {b!r} where the golden file has {a!r}"
                return result
            continue
        result.values += 1
        if not any(c in a + b for c in ".eEni"):
            if int(a) != int(b):
                result.moved += 1
                result.exact_mismatches += 1
                result.largest = max(result.largest, abs(int(a) - int(b)))
            continue
        x, y = float(a), float(b)
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        change = abs(x - y)
        result.moved += 1
        result.largest = max(result.largest, change) if not math.isnan(change) else math.inf
        if not change <= ATOL + RTOL * abs(x):
            result.beyond_tolerance += 1
        if name in CLASS_FILES and (x >= 0.5) != (y >= 0.5):
            result.class_flips += 1
    return result


def write_training_file(path: Path) -> None:
    """80 labeled points in [-1, 1]^2, each written as repr(float)."""
    rng = np.random.default_rng(20211227)
    x = rng.uniform(-1.0, 1.0, size=(80, 2))
    eta = 1.0 / (1.0 + np.exp(-(2.0 * x[:, 0] - x[:, 1] + 1.5 * x[:, 0] * x[:, 1])))
    y = (rng.random(80) < eta).astype(int)
    path.write_text("".join(f"{a!r},{b!r},{c}\n" for (a, b), c in zip(x.tolist(), y)))


def rewrite() -> None:
    """Rewrite every golden file from the program as it is, at one worker thread."""
    os.environ["RADIAL_THREADS"] = "1"
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.glob("*"):
        if path.name not in (TRAIN, ".gitattributes"):
            path.unlink()
    write_training_file(GOLDEN / TRAIN)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in generate(Path(tmp)).items():
            (GOLDEN / name).write_text(text, encoding="utf-8", newline="")


if __name__ == "__main__":
    rewrite()
