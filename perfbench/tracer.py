"""Span tracing of the entswap layers from outside the package.

``Tracer.install`` replaces every public module-level function of the
package's modules with a wrapper that records a span (name, start, end,
parent span, op id) and puts the originals back on ``uninstall``.  Names a
module imported from another (``from .fock_sim import sfg_evolve``) are
replaced too, so calls are seen whichever way they are looked up.  Spans
are kept in flat arrays in memory and written out once, at the end.

Only the thread that opened the op records spans; the package calls no
public function from its Monte Carlo worker threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Layer of each module; presets is parsed through config and shares its layer.
LAYERS = {
    "entswap.cli": "cli",
    "entswap.config": "config",
    "entswap.presets": "config",
    "entswap.photon_stats": "photon_stats",
    "entswap.lo_bsm": "lo_bsm",
    "entswap.nlo_bsm": "nlo_bsm",
    "entswap.rates": "rates",
    "entswap.sfg_device": "sfg_device",
    "entswap.oracle": "oracle",
    "entswap.fock_sim": "fock_sim",
}
OP_SPAN = "op"


def _oracle_cfg(args, kwargs):
    cfg = kwargs.get("cfg")
    if cfg is None:
        cfg = next(a for a in args if type(a).__name__ == "OracleConfig")
    return cfg


def _sfg_evolve_bytes(args, kwargs):
    # Two dense (dim x dim) float64 eigenvector products per call.
    cutoff = kwargs["cutoff"] if "cutoff" in kwargs else args[2]
    dim = (cutoff + 1) ** 3
    return 2 * dim * dim * 8


# Computed counts recorded per span: the work a call was asked to do, known
# from its arguments, so it counts calls that raise as well.
COMPUTED = {
    "oracle.mc_fidelity_lo": lambda a, k: _oracle_cfg(a, k).samples,
    "oracle.mc_fidelity_nlo": lambda a, k: _oracle_cfg(a, k).samples,
    "fock_sim.sfg_evolve": _sfg_evolve_bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("i")
        self.op_ids = array("i")
        self.computed = array("i")
        self._stack: list[int] = []
        self._op_id = -1
        self._owner = threading.get_ident()
        self._saved: list[tuple[dict, str, object]] = []

    # --- instrumentation -----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module_name, layer in LAYERS.items():
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module_name:
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for module_name in [m for m in sys.modules if m == "entswap" or m.startswith("entswap.")]:
            namespace = vars(sys.modules[module_name])
            for attr, obj in list(namespace.items()):
                if id(obj) in wrappers and callable(obj):
                    self._saved.append((namespace, attr, obj))
                    namespace[attr] = wrappers[id(obj)]

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._saved):
            namespace[attr] = original
        self._saved.clear()

    def _wrap(self, fn, span_name: str):
        name_id = len(self.names)
        self.names.append(span_name)
        counter = COMPUTED.get(span_name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op_id < 0 or threading.get_ident() != tracer._owner:
                return fn(*args, **kwargs)
            index = tracer._open(name_id, counter(args, kwargs) if counter else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def _open(self, name_id: int, computed: int) -> int:
        index = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.op_ids.append(self._op_id)
        self.computed.append(computed)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Record one operation as a root span; library spans nest under it."""
        self._op_id = op_id
        index = self._open(0, 0)
        try:
            yield
        finally:
            self._close(index)
            self._op_id = -1

    # --- output --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def spans(self) -> dict[str, np.ndarray]:
        """Views of the recorded spans; record nothing more once taken."""
        return {
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op_ids, dtype=np.int32),
            "computed": np.frombuffer(self.computed, dtype=np.int32),
            "names": np.array(self.names),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.spans())


MC_SPANS = ("oracle.mc_fidelity_lo", "oracle.mc_fidelity_nlo")


def layer_metrics(spans: dict[str, np.ndarray], primary_ops, op_workers) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced ops.

    ``primary_ops`` are the op ids of the workload's own ops; per-op figures
    are averaged over them.  ``op_workers`` maps every traced op id, re-runs
    at another worker count included, to its worker count (None for ops
    without one); it gives the Monte Carlo parallel efficiency.
    """
    names = [str(n) for n in spans["names"]]
    layer_of = np.array([n.split(".", 1)[0] for n in names])
    name = spans["name"]
    parent = spans["parent"]
    dur = (spans["end_ns"] - spans["start_ns"]).astype(float)
    layer = layer_of[name]
    parent_layer = np.where(parent >= 0, layer_of[name[np.maximum(parent, 0)]], "")
    in_primary = np.isin(spans["op"], list(primary_ops))
    n_ops = max(1, len(primary_ops))
    boundary = in_primary & (layer != parent_layer)

    def named(*span_names):
        ids = [names.index(n) for n in span_names if n in names]
        return in_primary & np.isin(name, ids)

    def per_call(mask, scale):
        return float(dur[mask].mean() / scale) if mask.any() else 0.0

    m: dict[str, float] = {}
    roots = in_primary & (name == 0)
    top_library = in_primary & (layer != "cli") & (layer != OP_SPAN) & np.isin(parent_layer, ["cli", OP_SPAN])
    m["cli.self_ms_per_op"] = float(dur[roots].sum() - dur[top_library].sum()) / 1e6 / n_ops
    for lay in ("photon_stats", "lo_bsm", "nlo_bsm", "rates"):
        mask = boundary & (layer == lay)
        m[f"{lay}.calls_per_op"] = float(mask.sum()) / n_ops
        m[f"{lay}.us_per_call"] = per_call(mask, 1e3)
    for lay in ("config", "sfg_device"):
        m[f"{lay}.us_per_op"] = float(dur[boundary & (layer == lay)].sum()) / 1e3 / n_ops

    exact = named("oracle.exact_fidelity_lo", "oracle.exact_fidelity_nlo")
    m["oracle.exact.calls_per_op"] = float(exact.sum()) / n_ops
    m["oracle.exact.ms_per_call"] = per_call(exact, 1e6)
    mc = named(*MC_SPANS)
    samples = float(spans["computed"][mc].sum())
    m["oracle.mc.calls_per_op"] = float(mc.sum()) / n_ops
    m["oracle.mc.samples_per_op"] = samples / n_ops
    m["oracle.mc.ns_per_sample"] = float(dur[mc].sum()) / samples if samples else 0.0
    m["oracle.mc.parallel_efficiency"] = _parallel_efficiency(spans, names, op_workers, dur)
    report = named("oracle.verification_report")
    children = np.zeros(len(dur))
    np.add.at(children, parent[parent >= 0], dur[parent >= 0])
    m["oracle.report.self_ms_per_op"] = float((dur[report] - children[report]).sum()) / 1e6 / n_ops

    evolve = named("fock_sim.sfg_evolve")
    m["fock_sim.sfg_evolve.calls_per_op"] = float(evolve.sum()) / n_ops
    m["fock_sim.sfg_evolve.us_per_call"] = per_call(evolve, 1e3)
    m["fock_sim.sfg_evolve.bytes_computed_per_call"] = (
        float(spans["computed"][evolve].mean()) if evolve.any() else 0.0
    )
    m["fock_sim.swap_condition_on_sfg.us_per_call"] = per_call(named("fock_sim.swap_condition_on_sfg"), 1e3)
    return m


def _parallel_efficiency(spans, names, op_workers, dur) -> float:
    """t1 / (2 t2) over the Monte Carlo spans of the same ops at 1 and 2 workers."""
    mc = np.isin(spans["name"], [names.index(n) for n in MC_SPANS if n in names])
    totals = {
        workers: sum(float(dur[mc & (spans["op"] == op)].sum()) for op, w in op_workers.items() if w == workers)
        for workers in (1, 2)
    }
    if not (totals[1] and totals[2]):
        return 0.0
    return totals[1] / (2.0 * totals[2])
