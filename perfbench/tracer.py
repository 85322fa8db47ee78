"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from outside the library: wrappers are installed around
gpw functions for the duration of one traced item and removed afterwards.
Each call becomes a node with a name and a parent.  Calls at coarse layer
boundaries (``SPAN``) get one node each, with start and end times.  Kernels
called hundreds of thousands of times (``AGG``) are folded into one node per
(parent node, name) that keeps the call count and the summed duration.
``COUNT`` targets only count calls and open no node.

A node's self time is its duration minus the durations of its children.
The run is single-threaded and calls nest, so children never overlap and
self times over all nodes add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

SPAN = "span"
AGG = "agg"
COUNT = "count"


@dataclass
class Node:
    id: int
    name: str
    parent: int | None
    calls: int = 0
    total_s: float = 0.0
    errors: int = 0
    start: float | None = None  # set on SPAN nodes only
    end: float | None = None


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``owner`` is a module path (``gpw.construction``) or a module path and a
    class (``gpw.taylor2d:TaylorSeries2``).  ``work`` maps the call's
    arguments to a count of work units added to ``Tracer.work[metric]``.
    """

    metric: str
    owner: str
    attr: str
    kind: str
    work: Callable[..., int] | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.nodes: list[Node] = []
        self.counts: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self._aggregates: dict[tuple[int | None, str], Node] = {}
        self._stack: list[Node] = []

    def _open(self, name: str, aggregate: bool) -> Node:
        parent = self._stack[-1].id if self._stack else None
        node = self._aggregates.get((parent, name)) if aggregate else None
        if node is None:
            node = Node(len(self.nodes), name, parent)
            self.nodes.append(node)
            if aggregate:
                self._aggregates[(parent, name)] = node
        self._stack.append(node)
        return node

    @contextmanager
    def span(self, name: str, aggregate: bool = False):
        node = self._open(name, aggregate)
        start = self.clock()
        try:
            yield node
        except BaseException:
            node.errors += 1
            raise
        finally:
            end = self.clock()
            node.calls += 1
            node.total_s += end - start
            if not aggregate:
                node.start, node.end = start, end
            self._stack.pop()

    def wrap(self, target: Target, fn: Callable) -> Callable:
        if target.kind == COUNT:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[target.metric] = self.counts.get(target.metric, 0) + 1
                return fn(*args, **kwargs)

            return counted

        aggregate = target.kind == AGG

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.work is not None:
                units = target.work(*args, **kwargs)
                self.work[target.metric] = self.work.get(target.metric, 0) + units
            with self.span(target.metric, aggregate):
                return fn(*args, **kwargs)

        return traced

    def to_json(self) -> dict:
        return {
            "nodes": [asdict(n) for n in self.nodes],
            "counts": dict(self.counts),
            "work": dict(self.work),
        }


def self_times(nodes: Iterable[Node]) -> dict[str, dict[str, float]]:
    """Per name: calls, errors, summed duration and summed self time."""
    nodes = list(nodes)
    covered: dict[int, float] = {}
    for node in nodes:
        if node.parent is not None:
            covered[node.parent] = covered.get(node.parent, 0.0) + node.total_s
    out: dict[str, dict[str, float]] = {}
    for node in nodes:
        row = out.setdefault(
            node.name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += node.calls
        row["errors"] += node.errors
        row["total_s"] += node.total_s
        row["self_s"] += node.total_s - covered.get(node.id, 0.0)
    return out


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


@contextmanager
def installed(tracer: Tracer, targets: Iterable[Target], extra_modules=()):
    """Wrap every target at each binding its callers use, then restore.

    gpw modules import functions by name, so a function defined in one
    module is also bound in every module that imports it.  Each module of
    the ``gpw`` package (and each of ``extra_modules``) is scanned, and every
    name bound to a target is rebound to the wrapper.  Methods are wrapped
    on their class.  A target with no binding at all is an error.
    """
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "gpw" or name.startswith("gpw."))
    ]
    modules.extend(extra_modules)
    patched: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            owner = _owner(target.owner)
            original = owner.__dict__[target.attr]
            wrapper = tracer.wrap(target, original)
            if isinstance(owner, type):
                patched.append((owner, target.attr, original))
                setattr(owner, target.attr, wrapper)
                continue
            bound = False
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, name, original))
                        setattr(module, name, wrapper)
                        bound = True
            if not bound:
                raise RuntimeError(f"no binding of {target.owner}.{target.attr} found")
        yield
    finally:
        for obj, name, original in reversed(patched):
            setattr(obj, name, original)
