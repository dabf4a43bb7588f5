"""Outside-in span recorder for the library's layers.

The library has no tracing of its own.  ``install`` wraps chosen public
functions and hot methods from outside: module-level functions are
rebound in every ``ordroots`` module that holds them (the package binds
names with ``from .x import y``), methods are replaced on their class.
``uninstall`` puts every original back.

A span is (name, start, end, parent, request).  Spans stay in memory in
flat arrays and are written out once, when the run ends.  The calls are
synchronous and single-threaded, so a span's children never overlap and
its self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from typing import Dict, List

# (span name, module, attribute path).  The span name's first part is the
# layer; metric names follow it.  Kernels are rebound only in the modules
# that call them, never inside the compiled or pure implementations.
TARGETS = [
    ("kernels.hnf_cols", "ordroots.kernels", "hnf_cols"),
    ("kernels.snf_cols", "ordroots.kernels", "snf_cols"),
    ("linalg.hnf", "ordroots.linalg", "hnf"),
    ("linalg.snf", "ordroots.linalg", "snf"),
    ("linalg.det_int", "ordroots.linalg", "det_int"),
    ("linalg.invariant_factors", "ordroots.linalg", "invariant_factors"),
    ("linalg.kernel_int", "ordroots.linalg", "kernel_int"),
    ("linalg.image_int", "ordroots.linalg", "image_int"),
    ("linalg.solve_int", "ordroots.linalg", "solve_int"),
    ("linalg.solve_rat", "ordroots.linalg", "solve_rat"),
    ("linalg.preimage_lattice", "ordroots.linalg", "preimage_lattice"),
    ("linalg.sum_lattices", "ordroots.linalg", "sum_lattices"),
    ("linalg.intersect_lattices", "ordroots.linalg", "intersect_lattices"),
    ("linalg.lattice_index", "ordroots.linalg", "lattice_index"),
    ("linalg.Lattice.init", "ordroots.linalg", "Lattice.__init__"),
    ("linalg.Lattice.reduce", "ordroots.linalg", "Lattice.reduce"),
    ("linalg.Lattice.coords", "ordroots.linalg", "Lattice.coords"),
    ("linalg.QLattice.coords", "ordroots.linalg", "QLattice.coords"),
    ("linalg.RatMatrix.inverse", "ordroots.linalg", "RatMatrix.inverse"),
    ("polyfactor.factor_q", "ordroots.polyfactor", "factor_q"),
    ("polyfactor.qp_gcd", "ordroots.polyfactor", "qp_gcd"),
    ("polyfactor.qp_xgcd", "ordroots.polyfactor", "qp_xgcd"),
    ("polyfactor.qp_divmod", "ordroots.polyfactor", "qp_divmod"),
    ("polyfactor.qp_mul", "ordroots.polyfactor", "qp_mul"),
    ("polyfactor.cyclotomic", "ordroots.polyfactor", "cyclotomic"),
    ("polyfactor.resultant", "ordroots.polyfactor", "resultant"),
    ("polyfactor.is_irreducible_q", "ordroots.polyfactor", "is_irreducible_q"),
    ("numfield.torsion_generator", "ordroots.numfield", "NumberField.torsion_generator"),
    ("numfield.roots_in_field", "ordroots.numfield", "roots_in_field"),
    ("numfield.NumberField.init", "ordroots.numfield", "NumberField.__init__"),
    ("numfield.NumberField.mul", "ordroots.numfield", "NumberField.mul"),
    ("numfield.NumberField.inv", "ordroots.numfield", "NumberField.inv"),
    ("qalgebra.decompose", "ordroots.qalgebra", "decompose"),
    ("qalgebra.minimal_polynomial", "ordroots.qalgebra", "minimal_polynomial"),
    ("qalgebra.mu_presentation", "ordroots.qalgebra", "mu_presentation"),
    ("qalgebra.mu_dlog_explain", "ordroots.qalgebra", "mu_dlog_explain"),
    ("qalgebra.QAlgebra.init", "ordroots.qalgebra", "QAlgebra.__init__"),
    ("qalgebra.QAlgebra.mul", "ordroots.qalgebra", "QAlgebra.mul"),
    ("qalgebra.QAlgebra.inv", "ordroots.qalgebra", "QAlgebra.inv"),
    ("ordercore.build_context", "ordroots.ordercore", "build_context"),
    ("ordercore.primitive_idempotents_ctx", "ordroots.ordercore", "primitive_idempotents_ctx"),
    ("ordercore.order_graph", "ordroots.ordercore", "order_graph"),
    ("ordercore.build_saturation", "ordroots.ordercore", "build_saturation"),
    ("ordercore.mu_b_presentation", "ordroots.ordercore", "mu_b_presentation"),
    ("ordercore.mu_c_p_presentation", "ordroots.ordercore", "mu_c_p_presentation"),
    ("ordercore.residue_torsion", "ordroots.ordercore", "OrderContext.residue_torsion"),
    ("ordercore.ProductRing.mul", "ordroots.ordercore", "ProductRing.mul"),
    ("finitering.FiniteRing.init", "ordroots.finitering", "FiniteRing.__init__"),
    ("finitering.FiniteRing.mul", "ordroots.finitering", "FiniteRing.mul"),
    ("finitering.filtration_generators", "ordroots.finitering", "filtration_generators"),
    ("finitering.unipotent_presentation", "ordroots.finitering", "unipotent_presentation"),
    ("finitering.unipotent_dlog", "ordroots.finitering", "unipotent_dlog"),
    ("abgroup.subgroup_relations", "ordroots.abgroup", "subgroup_relations"),
    ("abgroup.membership_dlog", "ordroots.abgroup", "membership_dlog"),
    ("abgroup.subgroup_presentation", "ordroots.abgroup", "subgroup_presentation"),
    ("abgroup.kernel_mod_subgroup", "ordroots.abgroup", "kernel_mod_subgroup"),
    ("rou.conductor", "ordroots.rou", "conductor"),
    ("rou.psi_kernel", "ordroots.rou", "psi_kernel"),
    ("rou.mu_a_p_generators", "ordroots.rou", "mu_a_p_generators"),
    ("rou.mu_a_presentation", "ordroots.rou", "mu_a_presentation"),
    ("rou.mu_e_subgroup_dlog", "ordroots.rou", "mu_e_subgroup_dlog"),
    ("orderdoc.parse_order_document", "ordroots.orderdoc", "parse_order_document"),
    ("orderdoc.dump_canonical", "ordroots.orderdoc", "dump_canonical"),
    ("orderdoc.parse_vector", "ordroots.orderdoc", "parse_vector"),
    ("orderdoc.format_vector", "ordroots.orderdoc", "format_vector"),
]

LAYERS = ("kernels", "linalg", "polyfactor", "numfield", "qalgebra", "ordercore",
          "finitering", "abgroup", "rou", "orderdoc")

ROOT = "perfbench.op"  # one span per operation, made by the benchmark itself
KERNEL_IMPLS = ("ordroots._pykernels", "ordroots._speedups")


class Tracer:
    """Span recorder.  Only the benchmark's own files create one."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.stack = [-1]
        self.request_id = -1
        self.hit: Dict[int, bool] = {}  # roots_in_field span -> found a root
        self.totals: Dict[str, int] = defaultdict(int)
        self._plan: List[tuple] = []  # (owner, attribute, original, wrapper)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self.stack.pop()

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        open_, close = self.open, self.close
        if name == "kernels.hnf_cols":
            totals = self.totals

            def wrapper(cols, nrows, *args, **kwargs):
                totals["kernels.hnf_cols.cells"] += nrows * len(cols)
                idx = open_(nid)
                try:
                    return fn(cols, nrows, *args, **kwargs)
                finally:
                    close(idx)
        elif name == "numfield.roots_in_field":
            hit = self.hit

            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    out = fn(*args, **kwargs)
                    hit[idx] = bool(out)
                    return out
                finally:
                    close(idx)
        elif name.startswith("abgroup."):
            from ordroots.abgroup import NotInGroup

            totals = self.totals

            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                except NotInGroup as e:
                    if not getattr(e, "_perfbench_counted", False):
                        e._perfbench_counted = True
                        totals["abgroup.raised"] += 1
                    raise
                finally:
                    close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets=TARGETS):
        """Rebind every target to its wrapper; the wrappers are made once
        and reused when the tracer is installed again."""
        if not self._plan:
            self._plan = list(self._rebindings(targets))
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def _rebindings(self, targets):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ordroots" or n.startswith("ordroots."))
                   and n not in KERNEL_IMPLS]
        for name, modname, path in targets:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                yield cls, attr, orig, self.wrap(orig, name)
                continue
            orig = getattr(owner, path)
            wrapper = self.wrap(orig, name)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        yield mod, attr, orig, wrapper

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._plan):
            setattr(owner, attr, orig)

    def __len__(self):
        return len(self.start)

    def write(self, path: str):
        """Spans as tab-separated lines: name, start, end, parent, request."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                         f"{self.parent[i]}\t{self.request[i]}\n")


def self_times(tracer: Tracer) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    start, end, parent = tracer.start, tracer.end, tracer.parent
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def layer_stats(tracer: Tracer) -> Dict[str, float]:
    """Calls and self time per span name and per layer, self-time shares,
    the root-search hit ratio of torsion_generator, and the counters."""
    own = self_times(tracer)
    names = tracer.names
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    layer_s: Dict[str, float] = defaultdict(float)
    root_total = 0.0
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] += 1
        self_s[name] += own[i]
        layer_s[name.split(".", 1)[0]] += own[i]
        if name == ROOT:
            root_total += tracer.end[i] - tracer.start[i]
    out: Dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_s.get(layer, 0.0)
        out[f"{layer}.self_share"] = layer_s.get(layer, 0.0) / root_total if root_total else 0.0
    tg = tracer._ids.get("numfield.torsion_generator")
    searches = hits = 0
    for idx, found in tracer.hit.items():
        p = tracer.parent[idx]
        if p >= 0 and tracer.name[p] == tg:
            searches += 1
            hits += found
    out["numfield.roots_in_field.hit_ratio"] = hits / searches if searches else 0.0
    out.update(tracer.totals)
    out["trace.spans"] = len(tracer)
    return out
