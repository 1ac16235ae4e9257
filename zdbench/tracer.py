"""Span tracing from outside the program, at the public calls into each module.

`Tracer.install()` replaces every public function of the `zdsi.*` modules, and
every public method of the classes they define, with a wrapper.  The wrapper
is bound in every module namespace that holds the function, so call sites
that did `from .x import y` are caught as well.  While `recording` is false a
wrapper only forwards the call; while it is true it appends one span
(name, start, end, parent, job) to flat in-memory arrays.  Generator
functions get one span per `next()`, and count the items they yield.

Self time of a span is its duration minus the durations of its direct child
spans, minus the calibrated cost a traced call adds: outside its own span to
its caller (`child_cost`) and inside its span to itself (`inside_cost`).  The benchmark records its own job and set-up spans
under the `bench.` prefix, so the self times of all spans plus those
corrections add up to the traced time.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from array import array
from collections import Counter

import numpy as np

MODULES = (
    "probability",
    "graphs",
    "ri_codes",
    "quantizers",
    "multiterminal",
    "streaming",
    "sequential",
    "cli",
    "fixtures",
)


# Called once per branch-and-bound candidate word (2.3M calls in one
# zd-envelope pass): a wrapper there more than doubles solve_ri's time, so it
# stays unwrapped and its time counts in solve_ri's self time.
UNWRAPPED = frozenset({"ri_codes.codewords_conflict"})


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self, hooks=None):
        # hooks: span name -> f(args, kwargs, result) -> {counter: amount}
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.job_id = -1
        self.recording = False
        self.errors: Counter = Counter()
        # work counts from hooks and generators, for timed jobs and for set-up
        self.counters: Counter = Counter()
        self.setup_counters: Counter = Counter()
        # seconds a traced call adds outside its own span (charged to the
        # caller) and inside it (charged to itself); measured by calibrate()
        self.child_cost = 0.0
        self.inside_cost = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _count(self) -> Counter:
        return self.counters if self.job_id >= 0 else self.setup_counters

    def calibrate(self, calls: int = 20000) -> None:
        """Measure the per-call cost a wrapper adds outside its span."""

        def noop(a, b):
            return None

        wrapped = self._wrap(noop, "bench.calibrate")
        recording, self.recording = self.recording, True
        mark = len(self.start)
        t0 = time.perf_counter()
        for k in range(calls):
            noop(k, None)
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for k in range(calls):
            wrapped(k, None)
        traced = time.perf_counter() - t0
        inside = sum(e - s for s, e in zip(self.start[mark:], self.end[mark:]))
        for column in (self.name, self.start, self.end, self.parent, self.job):
            del column[mark:]
        self.recording = recording
        self.child_cost = max(0.0, (traced - plain - inside) / calls)
        self.inside_cost = max(0.0, (inside - plain) / calls)

    def _wrap(self, fn, name: str):
        hook = self.hooks.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                return self._traced_gen(gen, name) if self.recording else gen

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.close(idx)
            if hook is not None:
                self._count().update(hook(args, kwargs, result))
            return result

        return wrapper

    def _traced_gen(self, gen, name: str):
        while True:
            idx = self.open(name)
            try:
                item = next(gen)
            except StopIteration:
                self.close(idx)
                return
            except BaseException:
                self.errors[name] += 1
                self.close(idx)
                raise
            self.close(idx)
            self._count()[name + ".items"] += 1
            yield item

    def install(self, package) -> None:
        """Wrap the public callables of every `package.<module>` namespace."""
        modules = [getattr(package, m) for m in MODULES] + [package]
        wrapped: dict[int, object] = {}
        classes = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                owner = getattr(value, "__module__", "") or ""
                if not owner.startswith(package.__name__ + "."):
                    continue
                if isinstance(value, types.FunctionType):
                    name = f"{owner.rsplit('.', 1)[1]}.{value.__qualname__}"
                    if name in UNWRAPPED:
                        continue
                    if id(value) not in wrapped:
                        wrapped[id(value)] = self._wrap(value, name)
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
                elif isinstance(value, type) and value not in classes:
                    classes.append(value)
        for cls in classes:
            short = cls.__module__.rsplit(".", 1)[1]
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                self._restore.append((cls, attr, value))
                setattr(cls, attr, self._wrap(value, f"{short}.{value.__qualname__}"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with per-span duration and self time."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        job = np.frombuffer(self.job, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        children = np.bincount(parent[has_parent], minlength=len(dur))
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "job": job,
            "dur": dur,
            "self": dur - child - children * self.child_cost - self.inside_cost,
            "correction": children * self.child_cost + self.inside_cost,
        }

    def write(self, path) -> None:
        spans = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            **{k: spans[k] for k in ("name", "start", "end", "parent", "job")},
        )
