"""qregress benchmark: one workload per run, or all of them with --all.

    python3 perfbench/run.py --workload train-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

A run is one process with one thread of work: a closed loop in which each
task starts when the previous one has returned.  It imports the package
from ``src/`` next to this directory, sets up the seeded inputs three times,
then runs tasks until the next one would end after ``--seconds`` of task
time, and checks every output.

Times are normalized to a reference speed.  A fixed reference kernel that
does not touch the package runs every ``SAMPLE_S`` seconds while a task or
a set-up runs (from a SIGALRM handler, between bytecodes) and once before
and after each; its own time is taken out of the measured time ``t``, which
is reported as ``t * REF_S / mean(kernel times)``.  The raw wall times are
in the report next to the normalized ones.

With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics.  With ``--trace 1`` the run spends half its time on
untraced tasks and then repeats the same tasks traced, and the result holds
the per-layer metrics (raw wall times).  The line before the result is a
report: the environment, the operation counts, and the end-to-end metrics
under the names of each workload (``fit_s.p50``, ``build_s``, ...).  Spans
and the report are also written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import defaultdict, namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train-exact", "train-noisy", "sample-wide", "compile-large")
END_TO_END = (
    ("setup_s", "s"),
    ("task_s.p50", "s"),
    ("evals_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)
# Normalized times are seconds on a machine where the reference kernel
# takes REF_S; on the 2-core VM the benchmark was tuned on it took 10-20 ms.
REF_S = 0.015
SAMPLE_S = 0.15

# One finished task: its id, wall seconds, normalized seconds, output and
# the probe counts seen while it ran.
Done = namedtuple("Done", "task wall norm output counts")


def reference_kernel() -> float:
    """Fixed work in the package's own mix (interpreted loops, small numpy
    updates, a small complex matmul) that never calls the package.
    Returns its wall time in seconds."""
    import numpy as np

    t0 = time.perf_counter()
    a = [float(i) for i in range(96)]
    acc = 0.0
    for y in range(96):
        for j in range(96):
            acc += -a[j] if (y & j).bit_count() & 1 else a[j]
    idx = np.arange(256)
    perm = np.where((idx >> 1) & 1 == 1, idx ^ 4, idx)
    s = np.ones(256, dtype=complex)
    for _ in range(900):
        v = s.reshape(8, 2, 16)
        o = np.empty_like(v)
        o[:, 0] = 0.6 * v[:, 0] + 0.8j * v[:, 1]
        o[:, 1] = 0.8j * v[:, 0] + 0.6 * v[:, 1]
        s = o.reshape(-1)[perm]
    m = np.exp(1j * np.outer(np.arange(64), np.arange(64)) / 64.0) / 64.0
    for _ in range(40):
        m = m @ m
        m /= np.abs(m).max()
    return time.perf_counter() - t0


class SpeedMeter:
    """Measures a block of work and the machine's speed while it runs.

    The reference kernel runs on entry, on exit, and every SAMPLE_S
    seconds in between from a SIGALRM handler.  ``wall`` is the block's
    time without the kernel's, ``norm`` that time at the reference speed.
    """

    def __init__(self, log: list):
        self.log = log

    def _sample(self, *_):
        t = reference_kernel()
        self.samples.append(t)
        self.log.append(t)
        self.kernel_s += t

    def clock(self) -> float:
        """perf_counter without the kernel's time since entry."""
        return time.perf_counter() - self.kernel_s

    def __enter__(self):
        self.samples: list[float] = []
        self.kernel_s = 0.0
        self._sample()
        self.kernel_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.wall = self.clock() - self.t0
        self._sample()
        self.norm = self.wall * REF_S / statistics.mean(self.samples)


def _import_package():
    """Import qregress from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qregress", "__init__.py")):
        raise ImportError(f"no qregress package under {src}")
    sys.path.insert(0, src)
    import qregress

    if not os.path.abspath(qregress.__file__).startswith(src + os.sep):
        raise ImportError(f"qregress imported from {qregress.__file__}, not {src}")
    return qregress


def environment(seed: int, numpy) -> dict:
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "") for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples); value is None below eleven samples."""
    n = len(values)
    if n < 11:
        return None, None, n
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


class _Stopwatch:
    clock = staticmethod(time.perf_counter)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = self.norm = time.perf_counter() - self.t0


def _label(task, tracer):
    return f"{'traced ' if tracer.record_spans else ''}task {task}"


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.ref_times: list[float] = []

    def fail(self, label, message):
        self.failures.append(f"{label}: {message}")

    def setup(self, seed, workdir):
        """Set up SETUP_REPEATS times; returns (inputs, wall times, normalized times)."""
        walls, norms = [], []
        for _ in range(SETUP_REPEATS):
            with SpeedMeter(self.ref_times) as meter:
                inputs = self.workload.setup(seed, workdir)
            walls.append(meter.wall)
            norms.append(meter.norm)
        return inputs, walls, norms

    def run_tasks(self, inputs, task_ids, seconds, tracer):
        """Closed loop over ``task_ids`` (or 0, 1, ... when None) until the
        next task would end after ``seconds`` of task time, but at least the
        workload's ``min_tasks`` tasks."""
        done: list[Done] = []
        spent = 0.0
        i = 0
        with tracer:
            while True:
                if task_ids is None:
                    if len(done) >= self.workload.min_tasks and spent + done[-1].wall > seconds:
                        break
                    task = i
                elif i < len(task_ids):
                    task = task_ids[i]
                else:
                    break
                i += 1
                before = dict(tracer.counts)
                # traced tasks are not normalized: the kernel would land in their spans
                meter = SpeedMeter(self.ref_times) if not tracer.record_spans else _Stopwatch()
                with warnings.catch_warnings(record=True) as caught, tracer.task(task):
                    warnings.simplefilter("always")
                    with meter:
                        try:
                            output = self.workload.task(inputs, task, meter.clock)
                        except Exception:
                            output = None
                            err = traceback.format_exc()
                for w in caught:
                    text = str(w.message)
                    if "measurement batch" in text:
                        tracer.counts["simulator.starved_batches"] += 1
                    elif "estimator starved" in text:
                        tracer.counts["trainer.starved_iters"] += 1
                spent += meter.wall
                self.attempted += 1
                if output is None:
                    self.fail(_label(task, tracer), err.strip().splitlines()[-1])
                    print(err, file=sys.stderr)
                    continue
                counts = defaultdict(float, {k: v - before.get(k, 0.0) for k, v in tracer.counts.items()})
                done.append(Done(task, meter.wall, meter.norm, output, counts))
        return done

    def check(self, inputs, done, tracer):
        for d in done:
            try:
                problems = self.workload.check(inputs, d.task, d.output, d.counts)
            except Exception:
                problems = [traceback.format_exc().strip().splitlines()[-1]]
            for p in problems:
                self.fail(_label(d.task, tracer), p)

    def check_reference(self, tracer_cls):
        """Train-exact only: one fit on the stored reference table."""
        ref = self.workload.reference()
        if ref is None:
            return
        self.attempted += 1
        table, config = self.workload.reference_fit(ref)
        probe = tracer_cls(spans=False)
        with probe:
            model = self.workload.fit(table, config)
        problems = self.workload.check_fit(table, config, model, probe.counts)
        gap = max(abs(a - b) for a, b in zip(model.phis, ref["final_phis"]))
        if not gap <= ref["tolerance"]:
            problems.append(f"final angles differ from reference.json by {gap:.3e}")
        for p in problems:
            self.fail("reference", p)


def _counts_summary(done):
    """Operation counts per task: summed over tasks, divided by their number."""
    keys = sorted({k for d in done for k in d.counts})
    n = max(1, len(done))
    summary = {k: sum(d.counts.get(k, 0.0) for d in done) / n for k in keys}
    for d in done:
        if isinstance(d.output, dict) and "gates_in" in d.output:
            summary["passes.gates_in"] = d.output["gates_in"]
            summary["passes.gates_out"] = d.output["gates_out"]
    return summary


def end_to_end(workload, setup_s, done, peak, failed_frac, field):
    """End-to-end metrics under the workload's own names, with units;
    ``field`` picks normalized ("norm") or raw ("wall") times."""
    times = [getattr(d, field) for d in done]
    evals = sum(workload.evaluations(d.output) for d in done)
    m = {"setup_s": (setup_s, "s"), "task_s.p50": (statistics.median(times), "s")}
    if workload.task_kind == "fit":
        m["fit_s.p50"] = m["task_s.p50"]
        value, pct, n = tail_percentile(times)
        m["fit_s.tail"] = (value, "s")
        m["fit_s.tail_percentile"] = (pct, "%")
        m["fit_s.samples"] = (n, "count")
    if workload.task_kind == "eval":
        m["eval_s.p50"] = m["task_s.p50"]
    m["evals_per_s"] = (evals / sum(times), "1/s")
    if workload.task_kind == "cycle":
        for stage in workload.stages:
            scaled = [d.output["stage_s"][stage] * getattr(d, field) / d.wall for d in done]
            m[stage] = (statistics.median(scaled), "s")
    m["peak_rss_mib"] = (peak, "MiB")
    m["failed_frac"] = (failed_frac, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_one(args, workload=None) -> int:
    """One workload in this process; ``workload`` overrides its default sizes."""
    t0 = time.perf_counter()
    try:
        _import_package()
        import numpy
        import tracer as tracer_mod
        import workloads
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    env = environment(args.seed, numpy)
    workload = workload or workloads.WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    runner = Runner(workload)
    try:
        inputs, setup_walls, setup_norms = runner.setup(args.seed, workdir)
        budget = args.seconds / 2 if args.trace else args.seconds
        probe = tracer_mod.Tracer(spans=False)
        done = runner.run_tasks(inputs, None, budget, probe)
        runner.check(inputs, done, probe)
        per_layer = None
        if args.trace:
            traced = tracer_mod.Tracer(spans=True)
            traced_done = runner.run_tasks(inputs, [d.task for d in done], float("inf"), traced)
            runner.check(inputs, traced_done, traced)
            untraced_s = sum(d.wall for d in done) / max(1, len(done))
            per_layer = traced.per_layer_metrics(len(traced_done), untraced_s)
            traced.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        if args.workload == "train-exact":
            runner.check_reference(tracer_mod.Tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len({f.split(":")[0] for f in runner.failures})
    failed_frac = failed / max(1, runner.attempted)
    env["loadavg_end"] = os.getloadavg()
    env["import_s"] = import_s
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "reference_kernel_s": runner.ref_times,
        "setup_s": {"wall": setup_walls, "norm": setup_norms},
        "task_s": {"wall": [d.wall for d in done], "norm": [d.norm for d in done]},
        "counts_per_task": _counts_summary(done),
        "failures": runner.failures,
    }
    if done:
        report["metrics"] = end_to_end(
            workload, statistics.median(setup_norms), done, peak, failed_frac, "norm")
        report["wall_metrics"] = end_to_end(
            workload, statistics.median(setup_walls), done, peak, failed_frac, "wall")
    if per_layer is not None:
        report["per_layer"] = per_layer
    with open(os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report))

    if args.trace:
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in tracer_mod.PER_LAYER}
    elif done:
        metrics = {name: report["metrics"][name] for name, _ in END_TO_END}
    else:
        metrics = {}
    print(json.dumps({
        "correct": bool(done) and not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints every
    end-to-end metric (or, traced, every per-layer metric) by name and unit."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"== {name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {name}  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        shown = result["metrics"] if args.trace else report["metrics"]
        for key, val in shown.items():
            wall = report.get("wall_metrics", {}).get(key, {}).get("value")
            extra = f"   (wall {_fmt(wall)})" if val["unit"] == "s" and not args.trace else ""
            print(f"  {key:28s} {_fmt(val['value']):>14s} {val['unit']}{extra}")
        for failure in report["failures"]:
            print(f"  FAILED {failure}")
        if not result["correct"]:
            status = 1
    return status


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    # One BLAS thread, set before numpy is imported: the loop has one
    # thread of work, and the box it was tuned on has two shared cores.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
