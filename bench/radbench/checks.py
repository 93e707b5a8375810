"""Output checks: a tally of checks attempted and failed, and a tolerant
comparison of nested outputs."""

from __future__ import annotations

import math


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def close(got, want, rel: float = 0.0, abs: float = 0.0) -> bool:
    """Equal structure; floats within ``abs + rel * |want|``, all else exact."""
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(close(g, w, rel, abs) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close(got[k], want[k], rel, abs) for k in want))
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return False
        return math.isclose(float(got), float(want), rel_tol=rel, abs_tol=abs)
    return got == want
