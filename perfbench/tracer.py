"""Outside-in tracer: wraps entshape's public layer entry points from here.

Each wrapped name records its call count, total time and self time (total
minus the time of wrapped calls made inside it). ``experiments.py`` binds its
imports with ``from ..x import y``, so a function is replaced in every
``entshape.*`` module namespace that holds it, not only where it is defined.
``DensityMatrix.__init__`` is wrapped on the class. Spans inside process-pool
children are not seen; ``harness.mc_fanout`` covers them from the parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (defining module, attribute, span name). Several attributes may share a span.
FUNCTIONS = (
    ("entshape.entanglement", "er_numeric", "entanglement.er_numeric"),
    ("entshape.entanglement", "er_bell_diagonal", "entanglement.er_bell_diagonal"),
    ("entshape.protocols", "sample_branch_indices", "protocols.sample_branch_indices"),
    ("entshape.protocols", "dejmps_branch_map", "protocols.dejmps_branch_map"),
    ("entshape.protocols", "dejmps_recursive", "protocols.dejmps_recursive"),
    ("entshape.channels", "apply", "channels.apply"),
    ("entshape.dynamics", "trajectory", "dynamics.trajectory"),
    ("entshape.harness.experiments", "parallel_branch_indices", "harness.mc_fanout"),
    ("entshape.harness.experiments", "run", "harness.run"),
    ("entshape.harness.experiments", "atomic_write_text", "harness.write"),
    ("entshape.harness.config", "build_config", "harness.config"),
    ("entshape.harness.config", "load_config_file", "harness.config"),
    ("entshape.harness.report", "render_report", "harness.report"),
    ("entshape.harness.report", "discrepancy_entry", "harness.report"),
)
METHODS = (("entshape.qstate", "DensityMatrix", "__init__", "qstate.density_matrix"),)
SPANS = sorted({name for *_, name in FUNCTIONS} | {name for *_, name in METHODS})


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra: dict[str, float] = {}


def _er_numeric_counts(stat: Stat, result) -> None:
    stat.extra["iterations"] = stat.extra.get("iterations", 0) + result.iterations
    atoms = len(result.certificate.weights) if result.certificate is not None else 0
    stat.extra["atoms_max"] = max(stat.extra.get("atoms_max", 0), atoms)
    stat.extra["unconverged"] = stat.extra.get("unconverged", 0) + (not result.converged)


def _sampled_runs(stat: Stat, result) -> None:
    stat.extra["runs"] = stat.extra.get("runs", 0) + len(result)


COUNTERS = {
    "entanglement.er_numeric": _er_numeric_counts,
    "protocols.sample_branch_indices": _sampled_runs,
}


class Tracer:
    """Span accumulator; ``installed()`` patches entshape for the duration of a block."""

    def __init__(self):
        self.stats: dict[str, Stat] = {name: Stat() for name in SPANS}
        self._child_time = [0.0]  # stack of time spent in wrapped children, per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        stat = self.stats[name]
        counter = COUNTERS.get(name)
        child_time = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = child_time.pop()
                child_time[-1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - inner
            if counter is not None:
                counter(stat, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> dict[str, int]:
        """Wrap every binding of the traced names; returns bindings patched per span."""
        importlib.import_module("entshape.harness.cli")
        bound = {name: 0 for name in SPANS}
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "entshape" and m is not None]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
                        bound[name] += 1
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], name))
            bound[name] += 1
        return bound

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        bound = self.install()
        try:
            yield bound
        finally:
            self.uninstall()

    def to_dict(self) -> dict:
        return {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, **s.extra}
            for name, s in self.stats.items()
        }


def merge(into: dict, other: dict) -> dict:
    """Sum two ``to_dict`` snapshots (``atoms_max`` takes the maximum)."""
    for name, fields in other.items():
        slot = into.setdefault(name, {})
        for key, value in fields.items():
            slot[key] = max(slot.get(key, 0), value) if key == "atoms_max" else slot.get(key, 0) + value
    return into


def self_test() -> list[str]:
    """Checks the tracer against entshape code paths with known call counts."""
    from entshape.harness import experiments
    from entshape.qstate import werner

    problems = []
    tracer = Tracer()
    with tracer.installed() as bound:
        for name, count in bound.items():
            if count == 0:
                problems.append(f"{name}: no binding found to wrap")
        state = experiments.input_pair_state("oracle", "one", 0.2)  # one apply, one projection
        experiments.er_pair(state)  # one closed form
        experiments.er_numeric(werner(0.83).to_density_matrix())
        experiments.parallel_branch_indices(state, 2, 4, 50, 7, 1)  # below the pool threshold
        experiments.dejmps_recursive(4, state, 2)
    stats = tracer.to_dict()
    expected = {
        "channels.apply": 1,
        "entanglement.er_bell_diagonal": 1,
        "entanglement.er_numeric": 1,
        "harness.mc_fanout": 1,
        "protocols.sample_branch_indices": 1,
        "protocols.dejmps_recursive": 1,
    }
    for name, calls in expected.items():
        if stats[name]["calls"] != calls:
            problems.append(f"{name}: {stats[name]['calls']} calls seen, {calls} made")
    if stats["protocols.sample_branch_indices"].get("runs") != 50:
        problems.append("protocols.sample_branch_indices: run count not recorded")
    if stats["qstate.density_matrix"]["calls"] < 2:
        problems.append("qstate.density_matrix: constructions not seen")
    for name, s in stats.items():
        if s["self_s"] > s["total_s"] + 1e-9 or s["self_s"] < -1e-9:
            problems.append(f"{name}: self time {s['self_s']} outside [0, total {s['total_s']}]")
    if experiments.apply.__name__ != "apply" or hasattr(experiments.apply, "__wrapped__"):
        problems.append("channels.apply: wrapper left installed")
    return problems
