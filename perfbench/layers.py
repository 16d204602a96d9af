"""Per-layer metrics, named ``<module>.<function>.{calls,s,self_s}``, from a traced pass.

``calls`` counts spans, ``s`` sums the outermost spans of a name (recursion
through the same name is not counted twice), ``self_s`` sums span time minus
child-span time, and ``distinct_ratio`` is distinct arguments over calls:
(field, label, time) for ``jacobian``, (field, kind, time index) for
``node_gradients``.  A backend group (``fields.sampled`` ...) covers every
wrapped method of that backend class.
"""

from __future__ import annotations

ROOTS = ("cli.verify", "cli.action", "cli.drift", "cli.identities", "cli.export")


def _calls(*names):
    return "count", lambda s: sum(s.get(n, {}).get("calls", 0) for n in names)


def _group_calls(prefix):
    return "count", lambda s: sum(r["calls"] for n, r in s.items() if n.startswith(prefix))


def _group_self(prefix):
    return "s", lambda s: sum(r["self_s"] for n, r in s.items() if n.startswith(prefix))


def _span(name):
    return "s", lambda s: s.get(name, {}).get("s", 0.0)


def _self(name):
    return "s", lambda s: s.get(name, {}).get("self_s", 0.0)


def _distinct(name):
    def ratio(s):
        row = s.get(name, {})
        return row.get("distinct", 0) / row["calls"] if row.get("calls") else 0.0

    return "ratio", ratio


METRICS = {}
for backend in ("analytic", "polynomial", "sampled", "deformed"):
    METRICS[f"fields.{backend}.calls"] = _group_calls(f"fields.{backend}.")
    METRICS[f"fields.{backend}.self_s"] = _group_self(f"fields.{backend}.")
METRICS.update({
    "fields.derivative.calls": _calls("fields.derivative", "fields.second_derivative"),
    "fields.sampled.node_gradients.calls": _calls("fields.sampled.node_gradients"),
    "fields.sampled.node_gradients.distinct_ratio": _distinct("fields.sampled.node_gradients"),
    "fields.save_grid.s": _span("fields.save_grid"),
    "fields.load_grid.s": _span("fields.load_grid"),
    "kinematics.jacobian.calls": _calls("kinematics.jacobian"),
    "kinematics.jacobian.self_s": _self("kinematics.jacobian"),
    "kinematics.jacobian.distinct_ratio": _distinct("kinematics.jacobian"),
    "kinematics.cof3.calls": _calls("kinematics.cof3"),
    "kinematics.det3.calls": _calls("kinematics.det3"),
    "kinematics.run_identity_battery.s": _span("kinematics.run_identity_battery"),
    "invariants.cauchy_drift.s": _span("invariants.cauchy_drift"),
})
for fn in ("lagrangian_vorticity", "cauchy_residual", "image_velocity"):
    METRICS[f"invariants.{fn}.calls"] = _calls(f"invariants.{fn}")
for fn in ("ertel_drift", "circulation_drift", "helicity_drift", "beltrami_residual",
           "dalembert_euler_residual"):
    METRICS[f"theorems.{fn}.s"] = _span(f"theorems.{fn}")
METRICS["theorems.ertel_pv.calls"] = _calls("theorems.ertel_pv")
for fn in ("action", "relabeling_invariance_scan", "weak_form_integral", "rund_trautman_check",
           "noether_boundary_term", "el_part"):
    METRICS[f"variational.{fn}.s"] = _span(f"variational.{fn}")
for fn in ("momentum_residual", "density_from_map"):
    METRICS[f"variational.{fn}.calls"] = _calls(f"variational.{fn}")
for fn in ("make_fixture", "integrate_trajectories"):
    METRICS[f"flows.{fn}.s"] = _span(f"flows.{fn}")
METRICS["poly.eval.calls"] = _calls("poly.eval")
METRICS["poly.self_s"] = _group_self("poly.")
for command in ("verify", "identities", "action", "drift", "export"):
    METRICS[f"cli.{command}.s"] = _span(f"cli.{command}")
METRICS["cli.self_s"] = _group_self("cli.")
METRICS["report.dumps_deterministic.s"] = _span("report.dumps_deterministic")


def per_layer(tracer, overhead_s: float) -> dict:
    """Every per-layer metric as {"value", "unit"}, plus the tracer's own cost."""
    summary = tracer.summary()
    out = {name: {"value": fn(summary), "unit": unit} for name, (unit, fn) in METRICS.items()}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    out["trace.spans"] = {"value": len(tracer.start), "unit": "count"}
    return out
