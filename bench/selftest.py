"""Fast self-test of the benchmark harness on tiny grids.

    python3 bench/selftest.py

Checks that a run emits every metric BENCHMARK.json names, that a span's
self time is its duration minus its children, and that a wrapped name
missing from the package yields an absent metric while the run goes on.
"""

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run
import worker
from tracer import HOT_TARGETS, Tracer


def tiny_ops(workdir):
    """One 2x2 solve and one 2x2 CLI surface run: every layer, in about a second."""
    out, surface = str(workdir / "t.csv"), str(workdir / "s.csv")
    argv = ["solve", "--example", "1", "--alpha", "0.9", "--p", "2", "--q", "2",
            "--mesh", "0.5:0.5:0.5", "--out", out, "--surface", surface]
    return [
        run._solve_op("1", 0.9, {"p": 2, "q": 2}, "2x2"),
        {"kind": "cli", "name": "tiny cli", "key": "tiny cli", "argv": argv,
         "outputs": {"out": out, "surface": surface}},
    ]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.workdir = Path(tempfile.mkdtemp())
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_every_metric_is_emitted(self):
        ops = tiny_ops(self.workdir)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, setups, reps, messages = run.run_reps(ops, 0.0, trace, lambda op, rec: [])
            self.assertEqual(messages, [])
            self.assertTrue(all("error" not in rec for r in reps for rec in r["ops"]), reps)
            names = self.spec[key]
            values = run.summarize(trace, setups, reps, {m["name"] for m in names if m["unit"] == "s"})
            for metric in names:
                self.assertIsNotNone(values.get(metric["name"]), f"{metric['name']} not emitted")

    def test_self_time_is_span_minus_children(self):
        # open A@0; hot call 1..3 with a nested hot call 1.5..2.5; span B 4..7; close A@10
        tracer = Tracer(clock=FakeClock([0, 1, 1.5, 2.5, 3, 4, 7, 10]))
        inner = tracer.wrap_hot("inner", lambda: None)
        outer = tracer.wrap_hot("outer", lambda: inner())
        with tracer.span("A"):
            outer()
            with tracer.span("B"):
                pass
        spans = {s.name: s for s in tracer.spans}
        self.assertEqual(spans["B"].parent, "A")
        self.assertEqual(tracer.self_time("B"), 3)
        self.assertEqual(tracer.self_time("A"), 10 - 2 - 3)  # the nested call is not subtracted twice
        self.assertEqual(tracer.calls("inner"), (1, 1.0))
        self.assertEqual(tracer.by_parent()[("outer", "A")], (1, 2.0))

    def test_missing_wrapped_name_is_absent(self):
        hot = tuple(
            (name, module, "psi_eval_removed" if attr == "psi_eval" else attr)
            for name, module, attr in HOT_TARGETS
        )
        tracer = Tracer(hot=hot)
        plan = {"src": str(run.ROOT / "src"), "ops": tiny_ops(self.workdir)[:1]}
        _, records = worker.run_ops(plan, worker.set_up(plan), tracer)
        self.assertNotIn("error", records[0])
        layers = worker.layer_metrics(tracer, records)
        self.assertIsNone(layers["operator.psi_eval_calls"])
        self.assertIsNone(layers["operator.psi_eval_s"])
        self.assertGreater(layers["kernels.r3_calls"], 0)
        import rkburgers.solver

        self.assertFalse(hasattr(rkburgers.solver, "psi_eval_removed"))


if __name__ == "__main__":
    sys.exit(unittest.main())
