"""Span tracing of diskdyn's layers, installed from outside the package.

`install` wraps the public callables listed in TARGETS.  A wrapped function
keeps working through every name it is reachable by: module attributes
(`from .selfmap import evaluate` gives dynamics, orbits, eigen and counting
their own binding), list and dict entries in module globals (such as
`acceptance.CRITERIA`), and methods, which are patched on their class.
`uninstall` puts every original back.

Each call records one span: name, start, end and the index of the enclosing
span.  Spans live in flat arrays in memory; `save` writes them out once the
run ends.  Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """A callable to wrap: `module` is the diskdyn submodule that defines it,
    `attr` its name there (`Class.method` for methods), `name` the metric
    prefix, and `on_return`/`on_error` optional hooks that update counters."""

    module: str
    attr: str
    name: str
    on_return: Callable | None = None
    on_error: Callable | None = None


def _preimages_return(tracer, args, kwargs, result):
    tracer.counters["selfmap.preimages.points"] += len(result)
    if tracer.inside("orbits.grand_orbit"):
        tracer.counters["orbits.grand_orbit.fiber_points"] += len(result)


def _preimages_error(tracer, exc):
    if type(exc).__name__ == "RootFindingError":
        tracer.counters["selfmap.preimages.errors"] += 1


def _grand_orbit_return(tracer, args, kwargs, result):
    tracer.counters["orbits.grand_orbit.nodes"] += len(result.nodes)


def _estimate_tau_return(tracer, args, kwargs, result):
    samples = args[2] if len(args) > 2 else kwargs["samples"]
    tracer.counters["eigen.estimate_tau.offered"] += len(samples)
    tracer.counters["eigen.estimate_tau.kept"] += result.sample_count


TARGETS = (
    Target("geometry", "pseudo_hyperbolic", "geometry.pseudo_hyperbolic"),
    Target("selfmap", "evaluate", "selfmap.evaluate"),
    Target("selfmap", "jet", "selfmap.jet"),
    Target("selfmap", "preimages", "selfmap.preimages",
           _preimages_return, _preimages_error),
    Target("selfmap", "critical_points", "selfmap.critical_points"),
    Target("selfmap", "angular_derivative", "selfmap.angular_derivative"),
    Target("selfmap", "HalfPlaneConjugate.__init__", "selfmap.HalfPlaneConjugate.init"),
    Target("selfmap", "HalfPlaneConjugate.apply", "selfmap.HalfPlaneConjugate.apply"),
    Target("selfmap", "FiniteBlaschkeProduct.__init__", "selfmap.FiniteBlaschkeProduct.init"),
    Target("dynamics", "denjoy_wolff", "dynamics.denjoy_wolff"),
    Target("dynamics", "hyperbolic_step", "dynamics.hyperbolic_step"),
    Target("dynamics", "orbit_merging", "dynamics.orbit_merging"),
    Target("dynamics", "julia_containment_check", "dynamics.julia_containment_check"),
    Target("orbits", "grand_orbit", "orbits.grand_orbit", _grand_orbit_return),
    Target("orbits", "critical_orbit_intersection", "orbits.critical_orbit_intersection"),
    Target("orbits", "conjugation_closure_check", "orbits.conjugation_closure_check"),
    Target("eigen", "build_truncated_eigenfunction", "eigen.build_truncated_eigenfunction"),
    Target("eigen", "estimate_tau", "eigen.estimate_tau", _estimate_tau_return),
    Target("eigen", "eigen_residual", "eigen.eigen_residual"),
    Target("eigen", "square_trick_check", "eigen.square_trick_check"),
    Target("abel", "HalfPlaneMap.__init__", "abel.HalfPlaneMap.init"),
    Target("abel", "HalfPlaneMap.iterate", "abel.HalfPlaneMap.iterate"),
    Target("abel", "residual_table", "abel.residual_table"),
    Target("abel", "abel_residual", "abel.abel_residual"),
    Target("abel", "extract_semiconjugacy", "abel.extract_semiconjugacy"),
    Target("counting", "nevanlinna", "counting.nevanlinna"),
    Target("counting", "inner_comparability_scan", "counting.inner_comparability_scan"),
    Target("counting", "scan_rows", "counting.scan_rows"),
    Target("cli", "run", "cli.run"),
)

CRITERIA_COUNT = 12


def criterion_name(index: int) -> str:
    return f"acceptance.criterion_{index:02d}"


def span_names() -> list[str]:
    """Every span name a traced run reports, in report order."""
    return ([t.name for t in TARGETS]
            + [criterion_name(i) for i in range(1, CRITERIA_COUNT + 1)])


class Tracer:
    """In-memory span store plus the counters the hooks update."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.job_bounds: list[int] = [0]
        self.counters: Counter = Counter()
        self.job_counters: list[Counter] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def inside(self, name: str) -> bool:
        nid = self._ids[name]
        return any(self.name_ids[i] == nid for i in self._stack)

    def wrap(self, fn, name: str, on_return=None, on_error=None):
        nid = self._intern(name)
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def end_job(self) -> None:
        """Close the current job: later spans and counters belong to the next."""
        self.job_bounds.append(len(self.starts))
        self.job_counters.append(self.counters)
        self.counters = Counter()

    # -- installing --------------------------------------------------------

    def _rebind(self, orig, new) -> None:
        """Point every binding of `orig` in diskdyn's modules at `new`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "diskdyn" or modname.startswith("diskdyn.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, new)
                elif isinstance(val, list):
                    for i, item in enumerate(val):
                        if item is orig:
                            self._patches.append((val, i, orig))
                            val[i] = new
                elif isinstance(val, dict):
                    for k, item in list(val.items()):
                        if item is orig:
                            self._patches.append((val, k, orig))
                            val[k] = new

    def install(self) -> None:
        """Wrap every target; a target diskdyn no longer has is listed in
        `missing` and reads 0."""
        for name in span_names():
            self._intern(name)
        for t in TARGETS:
            try:
                mod = importlib.import_module(f"diskdyn.{t.module}")
            except ModuleNotFoundError:
                mod = None
            owner_name, _, attr = t.attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(t.name)
                continue
            new = self.wrap(orig, t.name, t.on_return, t.on_error)
            if owner_name:
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, new)
            else:
                self._rebind(orig, new)
        acceptance = importlib.import_module("diskdyn.acceptance")
        for i, crit in enumerate(list(acceptance.CRITERIA), start=1):
            self._rebind(crit, self.wrap(crit, criterion_name(i)))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, (list, dict)):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def job_stats(self, job: int) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)} for one closed job."""
        lo, hi = self.job_bounds[job], self.job_bounds[job + 1]
        # slicing an array.array copies, so no buffer stays exported
        ids = np.frombuffer(self.name_ids[lo:hi], dtype=np.int64)
        par = np.frombuffer(self.parents[lo:hi], dtype=np.int64)
        dur = (np.frombuffer(self.ends[lo:hi], dtype=np.float64)
               - np.frombuffer(self.starts[lo:hi], dtype=np.float64))
        child = np.zeros(hi - lo)
        has_parent = par >= lo
        np.add.at(child, par[has_parent] - lo, dur[has_parent])
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=dur - child, minlength=n)
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            job_bounds=np.array(self.job_bounds, dtype=np.int64),
        )
