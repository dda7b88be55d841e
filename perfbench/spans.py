"""Callers that the workloads route every call into spisep through.

``Untraced`` is the path the end-to-end metrics are measured on.
``Tracer.call`` records a span per call (name, size, start, end, parent
item, failure flag) in memory.  For the layers in ``MEMORY_LAYERS`` it wraps
the first call at each size in tracemalloc: that call is the cold one, so it
shows what caches keep.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

MEMORY_LAYERS = frozenset(
    {"sssp.has_sssp_rank", "sssp.has_sssp_nullspace", "sssp.continuation_realize"}
)
ITEM = "item"


class Untraced:
    """The same interface as :class:`Tracer`, recording nothing."""

    @staticmethod
    def call(name, size, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    @contextmanager
    def item():
        yield


class Tracer:
    """Spans kept in parallel lists of plain values, so that recording them
    creates no objects for the garbage collector to scan."""

    FIELDS = ("name", "size", "start", "end", "parent", "fail")

    def __init__(self):
        self.cols: dict[str, list] = {f: [] for f in self.FIELDS}
        self.memory: dict[int, tuple[int, int]] = {}  # span -> (peak, retained) bytes
        self._parent: int | None = None
        self._mem_seen: set[tuple[str, int | None]] = set()

    def _open(self, name, size) -> int:
        c = self.cols
        c["name"].append(name)
        c["size"].append(size)
        c["parent"].append(self._parent)
        c["fail"].append(False)
        c["end"].append(0.0)
        c["start"].append(time.perf_counter())
        return len(c["start"]) - 1

    @contextmanager
    def item(self):
        """A root span; the layer calls made inside it become its children."""
        index = self._open(ITEM, None)
        self._parent = index
        try:
            yield
        except Exception:
            self.cols["fail"][index] = True
            raise
        finally:
            self.cols["end"][index] = time.perf_counter()
            self._parent = None

    def call(self, name, size, fn, *args, **kwargs):
        measure = name in MEMORY_LAYERS and (name, size) not in self._mem_seen
        if measure:
            self._mem_seen.add((name, size))
            tracemalloc.start()
        index = self._open(name, size)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.cols["fail"][index] = True
            raise
        finally:
            self.cols["end"][index] = time.perf_counter()
            if measure:
                retained, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.memory[index] = (peak, retained)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({**self.cols, "memory": self.memory}, fh)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy and self time, failures, memory, per-size medians.

        Self time is a span's duration minus the durations of its children;
        the benchmark's spans never overlap one another, so the children's
        sum is the part of the interval they cover.
        """
        c = self.cols
        dur = [e - s for s, e in zip(c["start"], c["end"])]
        child_time = defaultdict(float)
        for parent, d in zip(c["parent"], dur):
            if parent is not None:
                child_time[parent] += d
        out: dict[str, dict] = {}
        by_size: dict[str, dict] = defaultdict(lambda: defaultdict(list))
        for index, (name, size, d, fail) in enumerate(zip(c["name"], c["size"], dur, c["fail"])):
            s = out.setdefault(
                name,
                {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0,
                 "peak_alloc_mb": 0.0, "retained_mb": 0.0},
            )
            s["calls"] += 1
            s["busy_s"] += d
            s["self_s"] += d - child_time[index]
            s["fail"] += fail
            if size is not None:
                by_size[name][size].append(d)
        for index, (peak, retained) in self.memory.items():
            s = out[c["name"][index]]
            s["peak_alloc_mb"] = max(s["peak_alloc_mb"], peak / 2**20)
            s["retained_mb"] = max(s["retained_mb"], retained / 2**20)
        for name, sizes in by_size.items():
            out[name]["median_s"] = {k: statistics.median(v) for k, v in sizes.items()}
        return out
