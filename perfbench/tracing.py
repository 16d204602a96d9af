"""In-memory span tracing around the vortlab layer boundaries.

The shim lives entirely in the benchmark: ``install`` replaces the functions
and backend methods listed by ``targets()`` with recording wrappers, then
rebinds every alias of them that ``from .x import y`` left in the
``vortlab.*`` module namespaces (``theorems.jacobian``, ``cli.cauchy_drift``,
``vortlab.cauchy_drift`` ...), so calls through any spelling are recorded.
The returned callable undoes all of it.

A span is (name, parent span, operation, start, end).  Spans are kept in flat
arrays while the benchmark runs and written out once at the end; self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from functools import wraps
from time import perf_counter

import numpy as np

BACKEND_METHODS = (
    "position", "velocity", "acceleration",
    "position_gradient", "velocity_gradient", "acceleration_gradient", "position_hessian",
)


def _label_key(field, a, t, *rest, **kw):
    return id(field), tuple(np.asarray(a).ravel().tolist()), t


def _node_key(field, kind, ti, *rest, **kw):
    return id(field), kind, int(ti)


def targets():
    """(owner, attribute, span name, distinct-key function) for every wrapped callable."""
    from vortlab import cli, fields, flows, invariants, kinematics, poly, report, theorems, variational

    out = []
    backends = (
        (fields.AnalyticTrajectoryField, "analytic", BACKEND_METHODS),
        (fields.PolynomialTrajectoryField, "polynomial", BACKEND_METHODS),
        (fields.SampledTrajectoryField, "sampled",
         BACKEND_METHODS + ("node_values", "node_gradients")),
        (variational.DeformedTrajectoryField, "deformed",
         ("position", "velocity", "position_gradient", "fold_factor")),
    )
    for cls, group, methods in backends:
        for m in methods:
            key = _node_key if m == "node_gradients" else None
            out.append((cls, m, f"fields.{group}.{m}", key))
    out.append((poly.Poly, "__call__", "poly.eval", None))
    for m in ("diff", "compose", "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__"):
        out.append((poly.Poly, m, f"poly.{m.strip('_')}", None))
    functions = (
        (fields, ("derivative", "second_derivative", "save_grid", "load_grid")),
        (kinematics, ("jacobian", "cof3", "det3", "run_identity_battery")),
        (invariants, ("cauchy_drift", "lagrangian_vorticity", "cauchy_residual", "image_velocity")),
        (theorems, ("ertel_drift", "ertel_pv", "circulation_drift", "helicity_drift",
                    "beltrami_residual", "dalembert_euler_residual")),
        (variational, ("action", "relabeling_invariance_scan", "weak_form_integral",
                       "rund_trautman_check", "el_part", "noether_boundary_term",
                       "momentum_residual", "density_from_map")),
        (flows, ("make_fixture", "integrate_trajectories")),
        (poly, ("random_poly",)),
        (report, ("dumps_deterministic",)),
    )
    for module, names in functions:
        layer = module.__name__.split(".")[-1]
        for n in names:
            key = _label_key if (layer, n) == ("kinematics", "jacobian") else None
            out.append((module, n, f"{layer}.{n}", key))
    out.append((cli, "main", "cli.main", None))
    for command in ("verify", "identities", "action", "drift", "export"):
        out.append((cli, f"cmd_{command}", f"cli.{command}", None))
    return out


class Tracer:
    """Span recorder.  One instance per process; not thread-safe."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.outer = array("b")  # 1 when no span of the same name is open
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth: list[int] = []
        self._op = -1
        self.op_names: list[str] = []
        self._seen: dict[int, set] = {}
        self.distinct: dict[int, int] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str, key=None):
        nid = self._intern(name)
        name_id, parent, op, outer = self.name_id, self.parent, self.op, self.outer
        start, end, stack, depth = self.start, self.end, self._stack, self._depth
        if key is not None:
            self._seen[nid] = set()
            self.distinct[nid] = 0
        seen = self._seen

        @wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                seen[nid].add(key(*args, **kwargs))
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self._op)
            outer.append(depth[nid] == 0)
            depth[nid] += 1
            stack.append(idx)
            end.append(0.0)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                depth[nid] -= 1

        traced.__wrapped_by_tracer__ = fn
        return traced

    def run_op(self, label: str, fn):
        """Run fn() as the root span of one benchmark operation.

        Distinct-argument sets are per operation, so object ids stay valid."""
        self.op_names.append(label)
        self._op = len(self.op_names) - 1
        try:
            return self.wrap(fn, f"bench.{label}")()
        finally:
            self._op = -1
            for nid, s in self._seen.items():
                self.distinct[nid] += len(s)
                s.clear()

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        n = len(self.start)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int32),
            "outer": np.array(self.outer, dtype=bool),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def summary(self) -> dict:
        """Per span name: calls, s (outermost spans only) and self_s."""
        a = self.arrays()
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=np.where(a["outer"], a["dur"], 0.0), minlength=k)
        own = np.bincount(a["name_id"], weights=a["self"], minlength=k)
        out = {}
        for nid, name in enumerate(self.names):
            row = {"calls": int(calls[nid]), "s": float(total[nid]), "self_s": float(own[nid])}
            if nid in self.distinct:
                row["distinct"] = self.distinct[nid]
            out[name] = row
        return out

    def under(self, root: str) -> dict:
        """Outermost time of every span name inside spans named ``root``."""
        a = self.arrays()
        inside = np.zeros(len(a["dur"]), dtype=bool)
        # spans nest in time and are stored in start order, so the descendants
        # of span i are the contiguous run of spans that start before it ends
        for i in np.flatnonzero(a["name_id"] == self._ids.get(root, -1)):
            inside[i + 1:np.searchsorted(a["start"], a["end"][i])] = True
        w = np.where(inside & a["outer"], a["dur"], 0.0)
        tot = np.bincount(a["name_id"], weights=w, minlength=len(self.names))
        return {name: float(tot[i]) for i, name in enumerate(self.names) if tot[i] > 0}

    def write(self, path):
        """Spans as parallel arrays; self time is left out because it follows from the rest."""
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            ops=np.array(self.op_names or [""]),
            name_id=a["name_id"].astype(np.int16),
            parent=a["parent"].astype(np.int32),
            op=a["op"].astype(np.int16),
            start=a["start"],
            end=a["end"],
        )


def install(tracer: Tracer):
    """Wrap every target and rebind its aliases; returns the undo callable."""
    undo = []
    swap = {}
    for owner, attr, name, key in targets():
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(original, name, key)
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))
        swap[id(original)] = wrapper
    for modname, module in list(sys.modules.items()):
        if modname != "vortlab" and not modname.startswith("vortlab."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = swap.get(id(value))
            if wrapper is not None and getattr(module, attr) is not wrapper:
                setattr(module, attr, wrapper)
                undo.append((module, attr, value))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
