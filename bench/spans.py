"""In-memory spans around the public functions of the ``uew`` modules.

The tracer replaces a function's binding in every ``uew`` module that holds
it (so ``analysis.sup_product_constrained`` and ``optimize.sup_product_constrained``
both record under the defining module's name), and replaces methods on
their class. Spans are stored in flat arrays with a parent index and an op
id, and are summarised (calls, self time, total time) when the run ends.
A name that no longer exists in the package is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass

UEW_MODULES = ("uew", "uew.analysis", "uew.cli", "uew.fileio", "uew.linalg",
               "uew.optimize", "uew.states", "uew.witness")
_INHERITED = object()


@dataclass(frozen=True)
class Target:
    """One traced name: ``module`` defines ``attr`` (``Class.method`` or a
    class, whose construction is traced through ``__init__``)."""

    module: str
    attr: str
    leaf: bool = False  # calls no other traced name, so total time equals self time

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


# The layers are the package modules; each entry is a public name whose cost
# one of the end-to-end metrics depends on (see bench/README.md).
TARGETS = (
    Target("cli", "main"),
    Target("fileio", "load_operator", leaf=True),
    Target("analysis", "threshold_scan"),
    Target("optimize", "sup_product_constrained"),
    Target("optimize", "sup_product_unconstrained", leaf=True),
    Target("optimize", "compute_alpha0"),
    Target("optimize", "classify_case"),
    Target("witness", "halfspace_membership"),
    Target("witness", "Witness.fires"),
    Target("states", "DensityMatrix"),
    Target("states", "NoisyStateFamily.member"),
    Target("linalg", "expectation", leaf=True),
    Target("linalg", "eig_hermitian", leaf=True),
)


class Tracer:
    """Span recorder; every call of a target is recorded while installed."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.names = [t.name for t in self.targets]
        self.absent: list[str] = []
        self.op = -1
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.observers: dict[str, list] = {}

    # -- recording -------------------------------------------------------

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, nid: int, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            for observe in tracer.observers.get(name, ()):
                observe(result)
            return result

        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; names missing from the package become absent."""
        modules = [m for m in map(_module, UEW_MODULES) if m is not None]
        self.absent = []
        for nid, target in enumerate(self.targets):
            obj = _module(f"uew.{target.module}")
            parts = target.attr.split(".")
            try:
                for part in parts[:-1]:
                    obj = getattr(obj, part)
                original = getattr(obj, parts[-1])
            except AttributeError:
                self.absent.append(target.name)
                continue
            if len(parts) == 2:
                self._set(obj, parts[1], self._wrap(original, nid, target.name))
            elif isinstance(original, type):
                init = original.__init__
                self._set(original, "__init__", self._wrap(init, nid, target.name))
            else:
                wrapped = self._wrap(original, nid, target.name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)

    def _set(self, holder, key, value) -> None:
        self._undo.append((holder, key, vars(holder).get(key, _INHERITED)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            if value is _INHERITED:
                delattr(holder, key)
            else:
                setattr(holder, key, value)
        self._undo.clear()

    # -- summarising -----------------------------------------------------

    def summary(self) -> dict:
        """Per name: calls, self seconds and total seconds."""
        return summarize(self.names, self.name_id, self.parent, self.start, self.end)

    def ancestor_counts(self, child: str, ancestor: str) -> int:
        """How many spans named ``child`` have an ancestor named ``ancestor``."""
        if child not in self.names or ancestor not in self.names:
            return 0
        cid, aid = self.names.index(child), self.names.index(ancestor)
        inside = [False] * len(self.start)
        count = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                inside[i] = inside[p] or self.name_id[p] == aid
            if self.name_id[i] == cid and inside[i]:
                count += 1
        return count

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(names, name_id, parent, start, end) -> dict:
    """Calls, self time and total time per name from a flat span table.

    Self time is a span's duration minus the part of it that its child
    spans cover; total time sums the durations of the name's spans.
    """
    children: dict[int, list] = {}
    for i in range(len(start)):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names}
    for i in range(len(start)):
        dur = end[i] - start[i]
        kids = children.get(i)
        self_s = dur - covered(kids) if kids else dur
        row = out[names[name_id[i]]]
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += dur
    return out
