"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each specialk module from the
outside.  A wrapper replaces the function in its home module and in every
specialk module that imported it by name; methods are replaced on their
class.  Each call records a span (name, start, end, parent, item id) in
flat in-memory arrays; nothing is written until the run ends.

Layers are disjoint: every span belongs to exactly one layer, and a
layer's self time is the time its spans ran minus the time of their child
spans.  Time that no layer claims (the benchmark's own verdict code) is
the item root's self time, reported as trace.unattributed_share.
ExactComplex scalar arithmetic and trivial accessors are not wrapped;
their time counts to the layer that called them.
"""

from __future__ import annotations

import json
import time
import types
from array import array

ROOT = "bench.item"

GEOMETRY_FUNCTIONS = (
    "z_to_u", "u_to_z", "complex_structure", "type_projectors", "holomorphic_frame",
    "darboux_matrix", "metric_at", "flat_chart_at", "flat_omega_residual",
    "flat_structure_certificate", "flat_connection_at", "levi_civita_at",
    "lc_holomorphic", "higgs_at", "curvature_of_connection", "check_equations",
    "check_special_conditions", "kahler_potential_residual", "vhs_holomorphy_residual",
    "lagrangian_graph_check", "sample_points", "point_data",
)
HODGE_FUNCTIONS = (
    "filtration_to_hodge", "hodge_to_filtration", "check_polarization",
    "quaternionic_from_hodge", "hodge_from_quaternionic",
)
HODGE_METHODS = {
    "RealStructure": ("__init__", "conjugation", "from_antilinear", "apply_vec",
                      "apply_subspace"),
    "Filtration": ("__init__", "from_proper_steps", "conjugate", "graded_dims", "__eq__",
                   "to_json", "from_json"),
    "Polarization": ("__post_init__", "pair"),
    "HodgeStructure": ("__init__",),
    "QuaternionicStructure": ("__init__", "kmat", "__eq__"),
    "QuaternionicChart": ("recovered_structure",),
}
REES_FUNCTIONS = (
    "rees_generators", "filtration_from_module", "h0", "splitting_type", "bundle_degree",
    "is_semistable_of_slope", "purity_oracle",
)
HYPERKAHLER_FUNCTIONS = (
    "_frame_blocks", "tangent_split_at", "J_at", "zeta_to_sphere", "twistor_structure_at",
    "nijenhuis_at", "twistor_normal_bundle_at", "correspondence_check",
    "sample_cotangent_points",
)
HYPERKAHLER_STACKS = ("structure_derivative_stacks", "kahler_form_closedness")
MATRIX_METHODS = (
    "__init__", "identity", "zeros", "diagonal", "__matmul__", "__add__", "__sub__",
    "__neg__", "scale", "transpose", "T", "conj", "is_zero", "is_real", "__eq__", "rank",
    "inverse", "det", "to_numpy",
)
MATRIX_FUNCTIONS = ("real_rep_linear", "real_rep_antilinear", "std_complex_structure")
SUBSPACE_METHODS = (
    "span", "zero", "full", "basis", "contains", "is_subspace_of", "sum", "intersection",
    "apply", "conjugate",
)
PREPOTENTIAL_METHODS = ("grad", "hess", "third", "in_domain")

# metric name -> (kind, argument); kinds are evaluated in Tracer.summary
PER_LAYER = {
    "prepotentials.calls": ("calls", "prepotentials"),
    "prepotentials.self_s": ("self", "prepotentials"),
    "prepotentials.domain_checks": ("named", ".in_domain"),
    "fd.calls": ("calls", "fd"),
    "fd.self_s": ("self", "fd"),
    "geometry.field_builds": ("named", "geometry.field"),
    "geometry.self_s": ("self", "geometry"),
    "geometry.einsum.calls": ("calls", "geometry.einsum"),
    "geometry.einsum.self_s": ("self", "geometry.einsum"),
    "hodge.vhs.calls": ("calls", "hodge.vhs"),
    "hodge.vhs.self_s": ("self", "hodge.vhs"),
    "hodge.vhs.total_s": ("total", "hodge.vhs"),
    "hodge.self_s": ("self", "hodge"),
    "exact.matrix_ops": ("calls", "exact.matrix"),
    "exact.subspace_ops": ("calls", "exact.subspace"),
    "exact.self_s": ("self", "exact.matrix", "exact.subspace"),
    "exact.boxing_share": ("boxing",),
    "exact.rationalize.calls": ("calls", "exact.rationalize"),
    "exact.rationalize.self_s": ("self", "exact.rationalize"),
    "exact.rationalize.max_error": ("max", "rationalize_max_error"),
    "kernel.rref.calls": ("calls", "kernel.rref"),
    "kernel.rref.self_s": ("self", "kernel.rref"),
    "kernel.matmul.calls": ("calls", "kernel.matmul"),
    "kernel.matmul.self_s": ("self", "kernel.matmul"),
    "kernel.cells": ("sum", "kernel_cells"),
    "kernel.max_int_bits": ("max", "kernel_max_int_bits"),
    "rees.splitting.calls": ("named", "rees.splitting_type"),
    "rees.h0.calls": ("named", "rees.h0"),
    "rees.h0_per_split": ("ratio", "rees.h0", "rees.splitting_type"),
    "rees.purity.calls": ("named", "rees.purity_oracle"),
    "rees.self_s": ("self", "rees"),
    "hyperkahler.frame_builds": ("named", "hyperkahler._frame_blocks"),
    "hyperkahler.stacks.self_s": ("self", "hyperkahler.stacks"),
    "hyperkahler.self_s": ("self", "hyperkahler"),
    "hyperkahler.einsum.calls": ("calls", "hyperkahler.einsum"),
    "hyperkahler.einsum.self_s": ("self", "hyperkahler.einsum"),
    "trace.overhead": ("overhead",),
    "trace.unattributed_share": ("unattributed",),
}


def _kernel_rows_bits(rows):
    hi = 0
    for row in rows:
        hi = max(hi, max(row), -min(row))
    return hi.bit_length()


class Tracer:
    """Records spans while installed; summary() folds them into layers."""

    def __init__(self):
        self.names = []          # span name table; spans store the index
        self.layers = []         # layer of each span name
        self.sp_name = array("l")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("l")
        self.sp_item = array("l")
        self.stack = [-1]
        self.item = [-1]
        self.stats = {"kernel_cells": 0, "kernel_max_int_bits": 0,
                      "rationalize_max_error": 0.0}
        self._patches = []
        self._ids = {}

    # -- recording ---------------------------------------------------------
    def _name_id(self, name, layer):
        key = (name, layer)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[key]

    def wrap(self, fn, name, layer, after=None):
        """fn with a span around each call; after(args, result) runs inside
        the span, so its cost counts to the wrapped layer."""
        nid = self._name_id(name, layer)
        sp_name, sp_start, sp_end = self.sp_name, self.sp_start, self.sp_end
        sp_parent, sp_item, stack, item = self.sp_parent, self.sp_item, self.stack, self.item
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(sp_start)
            sp_name.append(nid)
            sp_parent.append(stack[-1])
            sp_item.append(item[0])
            sp_end.append(0.0)
            stack.append(idx)
            sp_start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                sp_end[idx] = clock()
                stack.pop()

        return traced

    def item_runner(self):
        """Call an item body under a root span carrying the item id."""
        root = self.wrap(lambda fn, args: fn(*args), ROOT, "bench")

        def run(index, fn, args):
            self.item[0] = index
            return root(fn, args)

        return run

    # -- installation ------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, modules, module, attr, layer, after=None):
        original = getattr(module, attr)
        short = module.__name__.rsplit(".", 1)[-1]
        wrapper = self.wrap(original, f"{short}.{attr}", layer, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _patch_method(self, cls, attr, layer):
        raw = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.wrap(raw.__func__, name, layer))
        elif isinstance(raw, property):
            new = property(self.wrap(raw.fget, name, layer))
        else:
            new = self.wrap(raw, name, layer)
        for key, value in list(vars(cls).items()):
            if value is raw:           # aliases such as __add__ = sum
                self._set(cls, key, new)

    def _patch_einsum(self, module, layer):
        np = module.np
        proxy = types.ModuleType(np.__name__)
        proxy.__dict__.update(np.__dict__)
        proxy.einsum = self.wrap(np.einsum, layer, layer)
        self._set(module, "np", proxy)

    def _field_factory(self, original):
        def factory(prep, kind):
            return self.wrap(original(prep, kind), "geometry.field", "geometry")
        return factory

    def install(self, sk):
        mods = [sk.pkg, sk._kernel, sk.exact, sk.fd, sk.prepotentials, sk.geometry,
                sk.hodge, sk.rees, sk.hyperkahler, sk.utils, sk.cli]
        stats = self.stats

        def kernel_after(args, result):
            rows, ncols = args[0], args[1]
            stats["kernel_cells"] += len(rows) * ncols
            stats["kernel_max_int_bits"] = max(
                stats["kernel_max_int_bits"], _kernel_rows_bits(result[0]))

        def matmul_after(args, result):
            a_rows, b_rows, b_cols = args
            stats["kernel_cells"] += len(b_rows) * (len(a_rows) + b_cols)
            stats["kernel_max_int_bits"] = max(
                stats["kernel_max_int_bits"], _kernel_rows_bits(result))

        def rationalize_after(args, result):
            stats["rationalize_max_error"] = max(stats["rationalize_max_error"], result[1])

        self._patch_function(mods, sk._kernel, "rref", "kernel.rref", kernel_after)
        self._patch_function(mods, sk._kernel, "matmul", "kernel.matmul", matmul_after)
        self._patch_function(mods, sk.exact, "rationalize_matrix", "exact.rationalize",
                             rationalize_after)
        for attr in MATRIX_FUNCTIONS:
            self._patch_function(mods, sk.exact, attr, "exact.matrix")
        for attr in MATRIX_METHODS:
            self._patch_method(sk.exact.ExactMatrix, attr, "exact.matrix")
        for attr in SUBSPACE_METHODS:
            self._patch_method(sk.exact.Subspace, attr, "exact.subspace")
        prep = sk.prepotentials
        for cls in (prep.Quadratic, prep.Cubic, prep.SWLog, prep.Coupled):
            for attr in PREPOTENTIAL_METHODS:
                self._patch_method(cls, attr, "prepotentials")
        for attr in ("jacobian", "jacobian4", "hessian"):
            self._patch_function(mods, sk.fd, attr, "fd")
        for attr in GEOMETRY_FUNCTIONS:
            self._patch_function(mods, sk.geometry, attr, "geometry")
        self._set(sk.geometry, "_field_factory",
                  self._field_factory(sk.geometry._field_factory))
        self._patch_einsum(sk.geometry, "geometry.einsum")
        for attr in HODGE_FUNCTIONS:
            self._patch_function(mods, sk.hodge, attr, "hodge")
        self._patch_function(mods, sk.hodge, "vhs_from_special_kahler", "hodge.vhs")
        for cls_name, attrs in HODGE_METHODS.items():
            for attr in attrs:
                self._patch_method(getattr(sk.hodge, cls_name), attr, "hodge")
        for attr in REES_FUNCTIONS:
            self._patch_function(mods, sk.rees, attr, "rees")
        for attr in HYPERKAHLER_FUNCTIONS:
            self._patch_function(mods, sk.hyperkahler, attr, "hyperkahler")
        for attr in HYPERKAHLER_STACKS:
            self._patch_function(mods, sk.hyperkahler, attr, "hyperkahler.stacks")
        self._patch_einsum(sk.hyperkahler, "hyperkahler.einsum")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def fold(self):
        """Per-layer call counts, self and inclusive times, per-name counts."""
        count = len(self.sp_start)
        dur = [e - s for s, e in zip(self.sp_start, self.sp_end)]
        child = [0.0] * count
        for i, parent in enumerate(self.sp_parent):
            if parent >= 0:
                child[parent] += dur[i]
        calls, self_s, total_s, named = {}, {}, {}, {}
        for i, nid in enumerate(self.sp_name):
            layer = self.layers[nid]
            name = self.names[nid]
            calls[layer] = calls.get(layer, 0) + 1
            named[name] = named.get(name, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]
            parent = self.sp_parent[i]
            if parent < 0 or self.layers[self.sp_name[parent]] != layer:
                total_s[layer] = total_s.get(layer, 0.0) + dur[i]
        return calls, self_s, total_s, named

    def summary(self, items, untraced_s, traced_s):
        """Every PER_LAYER metric; counts and times are per traced item."""
        calls, self_s, total_s, named = self.fold()
        item_time = total_s.get("bench", 0.0)

        def named_count(suffix):
            return sum(c for n, c in named.items() if n.endswith(suffix))

        out = {}
        for metric, (kind, *arg) in PER_LAYER.items():
            if kind == "calls":
                value = calls.get(arg[0], 0) / items
            elif kind == "named":
                value = named_count(arg[0]) / items
            elif kind == "self":
                value = sum(self_s.get(layer, 0.0) for layer in arg) / items
            elif kind == "total":
                value = total_s.get(arg[0], 0.0) / items
            elif kind == "sum":
                value = self.stats[arg[0]] / items
            elif kind == "max":
                value = self.stats[arg[0]]
            elif kind == "ratio":
                den = named_count(arg[1])
                value = named_count(arg[0]) / den if den else 0.0
            elif kind == "boxing":
                boxing = self_s.get("exact.matrix", 0.0) + self_s.get("exact.subspace", 0.0)
                kernel = self_s.get("kernel.rref", 0.0) + self_s.get("kernel.matmul", 0.0)
                value = boxing / (boxing + kernel) if boxing + kernel else 0.0
            elif kind == "overhead":
                value = 1.0 - untraced_s / traced_s
            else:  # unattributed
                value = self_s.get("bench", 0.0) / item_time if item_time else 0.0
            out[metric] = float(value)
        return out

    def write_spans(self, path):
        """Spans as JSON lines: a header with the name and layer tables, then
        one [name, start, end, parent, item] row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "layers": self.layers}) + "\n")
            for row in zip(self.sp_name, self.sp_start, self.sp_end, self.sp_parent,
                           self.sp_item):
                fh.write(json.dumps(row) + "\n")
