"""Self-test of the benchmark's tracing shim and correctness gate.

    python3 perfbench/selftest.py        # about a minute; abc verify dominates

Not part of the repository's test suite: it checks the benchmark, not vortlab.
"""

import threads

threads.pin()  # before numpy loads BLAS

import tempfile  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402

vl = harness.import_vortlab()

TINY = (
    ["verify", "--fixture", "gerstner", "--grid", "3", "--nt", "3"],
    ["verify", "--fixture", "non-euler", "--grid", "3", "--nt", "3"],
    ["verify", "--fixture", "taylor-green", "--nt", "3"],
    ["action", "--fixture", "rigid-rotation", "--grid", "2", "--nt", "2"],
    ["identities", "--trials", "2"],
    ["drift", "--fixture", "shear", "--grid", "3", "--nt", "3"],
    ["drift", "--fixture", "abc", "--dt", "0.5,0.25", "--t1", "0.5"],
)


def _backend_sweep(tmp: Path):
    """Call every wrapped backend method and Poly operation once."""
    gerstner = vl.flows.make_fixture("gerstner").field
    poly_field = vl.flows.make_fixture("non-euler").field
    harness.cli_op(vl, ["export", "--fixture", "gerstner", "--grid", "5", "--nt", "3",
                        "--out", str(tmp / "g.npz")])()
    sampled = vl.load_grid(str(tmp / "g.npz"))
    gen = vl.RelabelGenerator.from_curl(vl.variational.bump_potential(gerstner.box))
    deformed = vl.variational.DeformedTrajectoryField(
        gerstner, vl.VariationTriple.relabeling(gen), 1e-3)
    # position only: every derivative falls back to finite differences
    fd_only = vl.AnalyticTrajectoryField(lambda a, t: a * (1.0 + t), gerstner.box)
    a, t = gerstner.box.center, 0.5 * (gerstner.t0 + gerstner.t1)
    for fld in (gerstner, fd_only, poly_field, sampled):
        for m in tracing.BACKEND_METHODS:
            getattr(fld, m)(a, t)
    sampled.node_values("position", 0)
    for m in ("position", "velocity", "position_gradient"):
        getattr(deformed, m)(a, t)
    deformed.fold_factor(a)
    p = vl.Poly.variable(2, 0)
    q = p.compose([p, p]) + p - p * p
    q = (1 - (-q) ** 2).diff(0)
    q((1, 2))


def traced_tiny():
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for i, argv in enumerate(TINY):
                tracer.run_op(f"tiny{i}", harness.cli_op(vl, argv))
            tracer.run_op("sweep", lambda: _backend_sweep(Path(tmp)))
    finally:
        restore()
    return tracer


class ShimTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tracer = traced_tiny()
        cls.summary = cls.tracer.summary()

    def test_every_wrapped_callable_records_calls(self):
        silent = [name for name, row in self.summary.items() if row["calls"] == 0]
        self.assertEqual(silent, [])
        wrapped = {name for _, _, name, _ in tracing.targets()}
        self.assertLessEqual(wrapped, set(self.summary))

    def test_restore_unwraps_every_alias(self):
        for module in (vl, vl.cli, vl.theorems, vl.invariants, vl.variational, vl.fields):
            for attr, value in vars(module).items():
                self.assertFalse(hasattr(value, "__wrapped_by_tracer__"), f"{module.__name__}.{attr}")

    def test_aliases_are_traced(self):
        # theorems/variational reach jacobian through `from .kinematics import jacobian`
        under = self.tracer.under("theorems.ertel_drift")
        self.assertGreater(under.get("kinematics.jacobian", 0.0), 0.0)

    def test_self_time_never_exceeds_span(self):
        a = self.tracer.arrays()
        self.assertTrue(np.all(a["self"] <= a["dur"]))
        self.assertTrue(np.all(a["self"] >= -1e-9))

    def test_counts_repeat_exactly(self):
        again = traced_tiny().summary()
        self.assertEqual({n: r["calls"] for n, r in self.summary.items()},
                         {n: r["calls"] for n, r in again.items()})

    def test_per_layer_metrics_complete(self):
        metrics = layers.per_layer(self.tracer, 0.0)
        self.assertGreater(metrics["theorems.ertel_pv.calls"]["value"], 0)
        self.assertGreater(metrics["fields.deformed.calls"]["value"], 0)
        ratio = metrics["kinematics.jacobian.distinct_ratio"]["value"]
        self.assertTrue(0.0 < ratio <= 1.0)


class GateTest(unittest.TestCase):
    def test_flipped_verdict_counts_as_failed(self):
        ident = harness.cli_op(vl, ["identities", "--trials", "2"])
        ops = [harness.Op("documented", ident, expect=0, points=2, ref=None),
               harness.Op("flipped", ident, expect=1, points=2, ref=None)]
        outcomes = harness.run_pass(ops, reference={})
        failed = [o for o in outcomes if o.problems]
        self.assertEqual([o.op for o in failed], ["flipped"])
        self.assertEqual(len(failed) / len(outcomes), 0.5)
        self.assertFalse(failed[0].expected_failure)

    def test_known_defect_still_fails_but_only_by_verdict(self):
        def boom():
            raise RuntimeError("boom")

        ident = harness.cli_op(vl, ["identities", "--trials", "2"])
        by_verdict = harness.run_op(
            harness.Op("d", ident, expect=1, points=1, ref=None, known_defect="x"), {})
        raised = harness.run_op(
            harness.Op("r", boom, expect=0, points=1, ref=None, known_defect="x"), {})
        self.assertTrue(by_verdict.problems and by_verdict.expected_failure)
        self.assertTrue(raised.problems and not raised.expected_failure)

    def test_reference_band(self):
        want = {"a": 1.0, "b": 3e-16, "ok": True}
        op = harness.Op("x", None, expect=0, points=1, ref="r")
        ref = {"r": want}
        self.assertEqual(harness.check(op, 0, {"a": 1.0 + 1e-13, "b": 5e-13, "ok": True}, ref), [])
        self.assertTrue(harness.check(op, 0, {"a": 1.0 + 1e-9, "b": 3e-16, "ok": True}, ref))
        self.assertTrue(harness.check(op, 0, {"a": 1.0, "b": 3e-11, "ok": True}, ref))
        self.assertTrue(harness.check(op, 0, {"a": 1.0, "b": 3e-16, "ok": False}, ref))
        self.assertTrue(harness.check(op, 0, {"a": 1.0, "ok": True}, ref))


class AbcCountTest(unittest.TestCase):
    def test_abc_verify_ertel_pv_calls(self):
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            code, _ = tracer.run_op("abc", harness.cli_op(vl, ["verify", "--fixture", "abc"]))
        finally:
            restore()
        self.assertEqual(code, 0)
        # 24^3 nodes x 6 stamps (times[::2] of 11 stored stamps)
        self.assertEqual(tracer.summary()["theorems.ertel_pv"]["calls"], 24 ** 3 * 6)


if __name__ == "__main__":
    unittest.main(verbosity=2)
