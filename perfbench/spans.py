"""Span recording for the traced benchmark run.

Spans are timed from outside the package: ``Patch`` rebinds chosen
``nndlab`` functions and methods to wrappers that open and close a span
around each call, and ``Patch.restore`` puts every original object back.
No file of the package changes.
"""

import csv
import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    instance: str


class Tracer:
    """Keeps spans and counters in memory until the run writes them out."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)  # (instance, name) -> total
        self.instance = ""
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.instance))
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def count(self, name, amount):
        self.counters[(self.instance, name)] += amount

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "instance"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.name, f"{s.start:.9f}", f"{s.end:.9f}", s.parent, s.instance])


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, indices=None):
    """Self time of each span in ``indices`` (default: all): its duration minus
    the part of it that its child spans cover.  A span's children must be
    among ``indices``."""
    indices = range(len(spans)) if indices is None else indices
    children = defaultdict(list)
    for i in indices:
        if spans[i].parent >= 0:
            children[spans[i].parent].append((spans[i].start, spans[i].end))
    out = []
    for i in indices:
        s = spans[i]
        inside = [(max(a, s.start), min(b, s.end)) for a, b in children[i] if b > s.start and a < s.end]
        out.append((s.end - s.start) - _covered(inside))
    return out


def layer_totals(spans, instance):
    """Per span name: calls, total seconds and self seconds within one instance."""
    picked = [i for i, s in enumerate(spans) if s.instance == instance]
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, own in zip(picked, self_times(spans, picked)):
        row = totals[spans[i].name]
        row["calls"] += 1
        row["s"] += spans[i].end - spans[i].start
        row["self_s"] += own
    return dict(totals)


def _resolve(target):
    """'module.attr' or 'module.Class.method' under nndlab -> (owner, attr)."""
    module_name, _, rest = target.partition(".")
    owner = importlib.import_module(f"nndlab.{module_name}")
    *classes, attr = rest.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


# The one target with its own span name and a counter: each call adds the
# size of its candidate pool to POOL_ITEMS.
TOP_K = "ranking.RankingOracle.top_k"
POOL_ITEMS = "ranking.top_k.pool_items"


def span_name(target):
    """A target's span name: ranking.top_k for TOP_K, and __init__ shown as init."""
    return "ranking.top_k" if target == TOP_K else target.replace(".__init__", ".init")


class Patch:
    """Rebinds ``nndlab`` callables to span-recording wrappers.

    A module-level function is rebound in every loaded ``nndlab`` module
    that holds it (``from .descent import random_kout`` makes a second
    binding), so calls through any of those names are timed.  A method is
    rebound on its class.
    """

    def __init__(self, tracer, targets):
        self.tracer = tracer
        self.targets = list(targets)
        self._saved = []  # (owner, attr, original)

    def _wrap(self, target, fn):
        tracer = self.tracer
        name = span_name(target)
        count_pool = target == TOP_K

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_pool:  # RankingOracle.top_k(self, x, candidates, k)
                tracer.count(POOL_ITEMS, len(args[2]))
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("patch already installed")
        for target in self.targets:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [
                    mod
                    for key, mod in list(sys.modules.items())
                    if (key == "nndlab" or key.startswith("nndlab.")) and mod is not None
                ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self):
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
