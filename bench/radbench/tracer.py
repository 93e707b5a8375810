"""Time a program's functions by wrapping them where their callers look them up.

A binding is an attribute of a module or class, or a key of a dict, that
callers read at call time (``synthlab.fit_logistic``, ``core.METRICS["idtw"]``).
:class:`Tracer` replaces each binding with a timing wrapper and puts the
original back on exit, so the program itself is never edited. Each thread
keeps its own call stack, which makes a span's self time (its duration minus
the time of the traced calls it made on the same thread) exact even when
worker threads trace concurrently. A binding that no longer exists is
reported as absent instead of failing, so the benchmark outlives refactors
that delete or rename functions.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

_MISSING = object()


@dataclass
class SpanStats:
    """Everything recorded for one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    self_by_thread: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[np.ndarray]] = field(default_factory=dict)

    def sample(self, key: str) -> np.ndarray:
        parts = self.samples.get(key)
        return np.concatenate(parts) if parts else np.empty(0)


# An observer reads the value a traced call returned and gives counters to
# add up (numbers) or distributions to keep (arrays).
Observer = Callable[[Any, tuple, dict], dict]


class Tracer:
    """Wraps bindings on :meth:`wrap`, restores them all on :meth:`restore`.

    Use as a context manager so that the originals come back even when the
    traced code raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[Any, str, Any]] = []
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self.unreadable: dict[str, str] = {}

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- bindings ---------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str | Callable[[tuple], str],
        observe: Observer | None = None,
        item_name: str | None = None,
        where: str | None = None,
    ) -> bool:
        """Replace ``owner.attr`` (or ``owner[attr]``) with a timed wrapper.

        ``name`` is the span name, or a function of the call's arguments that
        returns one. With ``item_name``, the first argument is a function
        that the wrapped call maps over items (``indexed_map``); each call
        of it becomes a span of that name, and the number of threads that ran
        them is kept as the ``workers`` sample. Returns False, and records the
        binding (described by ``where``) as absent, when ``owner`` is None
        or has no such binding.
        """
        raw = _read(owner, attr)
        if raw is _MISSING:
            self.absent.append(where or attr)
            return False
        target = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        timed = self._timed(target, name, observe, item_name)
        if isinstance(raw, (classmethod, staticmethod)):
            timed = type(raw)(timed)
        _write(owner, attr, timed)
        self._originals.append((owner, attr, raw))
        return True

    def restore(self) -> None:
        """Put back every original binding, newest first."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            _write(owner, attr, raw)

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, target, name, observe, item_name):
        @functools.wraps(target)
        def timed(*args, **kwargs):
            span = name(args) if callable(name) else name
            workers: set[int] = set()
            if item_name is not None and args:
                def note_worker(result, a, k):
                    workers.add(threading.get_ident())
                    return {}

                args = (self._timed(args[0], item_name, note_worker, None),) + args[1:]
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
            # Reading the result is tracing cost: keep it out of the
            # caller's self time by booking it as a child.
            observed = {"workers": np.array([len(workers)])} if workers else {}
            observe_s = 0.0
            if observe is not None:
                t0 = time.perf_counter()
                observed.update(self._observe(span, observe, result, args, kwargs))
                observe_s = time.perf_counter() - t0
            if stack:
                stack[-1][0] += elapsed + observe_s
            self._record(span, elapsed, elapsed - frame[0], observed)
            return result

        return timed

    def _observe(self, span, observe, result, args, kwargs) -> dict:
        # A later version of the program may return something else; report
        # the counter as unreadable rather than stop the run.
        try:
            return observe(result, args, kwargs)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError) as exc:
            with self._lock:
                self.unreadable.setdefault(span, f"{type(exc).__name__}: {exc}")
            return {}

    def _record(self, span: str, elapsed: float, self_time: float, observed: dict) -> None:
        thread = threading.current_thread().name
        with self._lock:
            stats = self.stats.get(span)
            if stats is None:
                stats = self.stats[span] = SpanStats()
            stats.calls += 1
            stats.total_s += elapsed
            stats.self_s += self_time
            stats.durations.append(elapsed)
            stats.self_by_thread[thread] = stats.self_by_thread.get(thread, 0.0) + self_time
            for key, value in observed.items():
                if isinstance(value, np.ndarray):
                    stats.samples.setdefault(key, []).append(value.ravel())
                else:
                    stats.counters[key] = stats.counters.get(key, 0.0) + float(value)

    # -- reading ----------------------------------------------------------

    def get(self, span: str) -> SpanStats:
        return self.stats.get(span) or SpanStats()

    def matching(self, prefix: str) -> dict[str, SpanStats]:
        return {k: v for k, v in self.stats.items() if k.startswith(prefix)}


def _read(owner, attr: str):
    if owner is None:
        return _MISSING
    if isinstance(owner, dict):
        return owner.get(attr, _MISSING)
    if isinstance(owner, type):
        # The raw class attribute, so that classmethods are restored as such.
        return vars(owner).get(attr, _MISSING)
    return getattr(owner, attr, _MISSING)


def _write(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
