"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, on small inputs and checks that
the result line holds every metric named in BENCHMARK.json with its unit
and that the report names every end-to-end metric of the workload.  Then
it feeds in wrong outputs (a perturbed loss, a dropped gate) and checks
that they are counted as failed tasks instead of passing.
"""
import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from qregress import cli, trainer  # noqa: E402

TINY = {
    "train-exact": lambda: workloads.TrainExact(rows=16, features=1, iterations=1, batch=8, pool=2),
    "train-noisy": lambda: workloads.TrainNoisy(rows=16, features=1, iterations=1, pool=2),
    "sample-wide": lambda: workloads.SampleWide(rows=16, features=1, shots=10000, pool=2),
    "compile-large": lambda: workloads.CompileLarge(
        large_rows=8, features=1, naive_rows=4, prep_k=16, bench_ks="4,8", pool=2
    ),
}
REPORTED = {
    "train-exact": ("fit_s.p50", "fit_s.tail", "evals_per_s"),
    "train-noisy": ("fit_s.p50", "fit_s.tail", "evals_per_s"),
    "sample-wide": ("evals_per_s",),
    "compile-large": ("build_s", "optimize_s", "prepare_s", "bench_s"),
}

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_tiny(name, trace=0):
    """Run one tiny workload in this process; returns (report, result)."""
    args = run.build_parser().parse_args(
        ["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    )
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.run_one(args, TINY[name]())
    assert code == 0
    lines = buf.getvalue().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class MetricsArePrinted(unittest.TestCase):
    def check_result(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in specs}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_end_to_end(self):
        for name in TINY:
            with self.subTest(workload=name):
                report, result = run_tiny(name)
                self.check_result(result, SPEC["end_to_end"])
                for key in REPORTED[name] + ("setup_s", "peak_rss_mib", "failed_frac"):
                    self.assertIn(key, report["metrics"])
                    self.assertTrue(report["metrics"][key]["unit"])
                self.assertEqual(report["metrics"]["failed_frac"]["value"], 0.0)
                for key in ("numpy", "blas", "python", "nproc", "seed", "loadavg_start", "loadavg_end"):
                    self.assertIn(key, report["env"])

    def test_per_layer(self):
        for name in TINY:
            with self.subTest(workload=name):
                _, result = run_tiny(name, trace=1)
                self.check_result(result, SPEC["per_layer"])
                frac = result["metrics"]["trace.layer_sum_frac"]["value"]
                self.assertGreater(frac, 0.95)


@contextlib.contextmanager
def patched(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class WrongOutputsFail(unittest.TestCase):
    def assert_failed(self, name):
        report, result = run_tiny(name)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(report["metrics"]["failed_frac"]["value"], 0.0)

    def test_perturbed_loss(self):
        def perturb(fn):
            def wrong(*args, **kwargs):
                est = fn(*args, **kwargs)
                return type(est)(est.loss + 1e-6, est.success_probability, est.effective_shots)
            return wrong

        with patched(trainer, "loss_from_run", perturb):
            self.assert_failed("train-exact")

    def test_dropped_gate(self):
        def drop(fn):
            def wrong(circ):
                out, report = fn(circ)
                return type(out)(out.width, out.gates[:-1]), report
            return wrong

        with patched(cli, "optimize_pipeline", drop):
            self.assert_failed("compile-large")

    def test_lost_shots(self):
        def halve(fn):
            def wrong(circuit, layout, shots=None, *args, **kwargs):
                return fn(circuit, layout, shots and shots // 2, *args, **kwargs)
            return wrong

        with patched(trainer, "loss_from_run", halve):
            self.assert_failed("train-noisy")


if __name__ == "__main__":
    unittest.main()
