"""The four benchmark workloads.

Each workload makes its inputs from a seed in ``setup``, runs one task per
call of ``task`` through the public API or the CLI, and checks a task's
output against an oracle the package already trusts in ``check``.  The
package is always called through a module attribute
(``trainer.fit_quantum``, ``simulator.loss_from_run``, ``cli.main``) so the
tracer's wrappers see the calls.

Sizes are constructor arguments: the benchmark uses the defaults, the
self-test builds the same workloads at a tiny size.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np

from qregress import cli, simulator, synthesis, trainer
from qregress.circuit import circuit_from_json, circuit_to_json
from qregress.data import DataTable, layout_for, standardize, synthetic_linear_table
from qregress.mitigation import calibrate_readout

HERE = os.path.dirname(os.path.abspath(__file__))

# Criterion 5 of the acceptance suite: the exact-mode loss equals the
# closed form on the sin-encoded table.
IDENTITY_TOL = 1e-9
# A fit replayed with the closed-form loss in place of circuits agrees with
# the circuit fit to 1e-16 after two Adam steps (measured on three seeds),
# while the steps move each angle by about 2e-2; 1e-9 leaves room for
# reordered floating-point sums and still catches any change to the loss,
# the gradient or the optimizer.
REPLAY_TOL = 1e-9
# Mitigated shadow estimate minus the exact loss under the same gate noise
# (readout removed).  Over 200 seeds at width 6 (10k shots) the gaps had
# standard deviation 0.07 and largest value 0.24; over 40 seeds at width 8
# (20k shots) 0.63 and 1.6.  Each bound is about seven standard deviations.
# The noiseless exact loss is no reference here: gate faults alone move
# the estimate by up to 0.7 at width 6 and 8.8 at width 8, and mitigation
# corrects only readout.
NOISY_TOL = {6: 0.5, 8: 4.5}
PREPARE_TOL = 1e-10
BATCHES = 10  # loss_from_run's default shadow batch count


def _uniform_phis(rng, n):
    """The trainer's own starting range, away from cos(phi) = 0."""
    return rng.uniform(math.pi / 4 - 0.2, math.pi / 4 + 0.2, size=n)


def _standardized(rows, features, seed):
    table, _ = synthetic_linear_table(rows, features, noise=0.05, seed=int(seed))
    return standardize(table)[0]


def _first_batch(table, batch):
    return table.rows(np.arange(min(batch, table.n_rows))).normalized()


def _folded_gate_count(layout):
    return 2 * (layout.k_pad + layout.m_pad)


# --- oracles ------------------------------------------------------------------

def replay_adam(table, config):
    """fit_quantum's Adam loop with the closed-form loss of each sin-encoded
    batch in place of circuit runs; returns the final angles and the loss
    each iteration reports (the batch mean before its step)."""
    rng = np.random.default_rng(config.seed)
    state = trainer.AdamState.initial(_uniform_phis(rng, table.n_features + 1))
    size = config.batch_size
    n_batches = max(1, table.n_rows // size)
    losses = []
    for _ in range(config.iterations):
        perm = rng.permutation(table.n_rows)
        grads, base = [], []
        for b in range(n_batches):
            batch = table.rows(perm[b * size : (b + 1) * size]).normalized()
            encoded = DataTable(np.sin(batch.values))
            loss = lambda p: trainer.loss_closed_form(encoded, p)  # noqa: E731
            base.append(loss(state.phis))
            grads.append(trainer.gradient(state.phis, loss))
        losses.append(float(np.mean(base)))
        state = trainer.adam_step(state, np.mean(grads, axis=0), config.learning_rate)
    return state.phis, losses


def _depolarize(rho, qubit, width):
    """I/2 (x) Tr_qubit(rho): the average of P rho P over the four Paulis."""
    dim = 2**width
    view = rho.reshape(2 ** (width - 1 - qubit), 2, 2**qubit, 2 ** (width - 1 - qubit), 2, 2**qubit)
    traced = 0.5 * (view[:, 0, :, :, 0, :] + view[:, 1, :, :, 1, :])
    out = np.zeros_like(view)
    out[:, 0, :, :, 0, :] = traced
    out[:, 1, :, :, 1, :] = traced
    return out.reshape(dim, dim)


def noisy_expected_loss(circuit, layout, noise) -> float:
    """Exact expectation of the loss estimator under the gate faults of
    ``noise`` with readout errors removed, from a density matrix.

    After each gate the simulator applies, with probability p, a uniform
    non-identity Pauli on the gate's site.  Averaged over shots that is
    rho -> (1 - p) rho + p (4^s D(rho) - rho) / (4^s - 1) with D the full
    depolarization of the s sites.
    """
    width = circuit.width
    rho = np.zeros((2**width, 2**width), dtype=complex)
    rho[0, 0] = 1.0
    for g in circuit:
        left = simulator.apply_gate(rho, g, width)
        rho = simulator.apply_gate(left.conj().T, g, width).conj().T
        sites = g.qubits if g.kind == "cnot" else (g.qubits[-1],)
        p = noise.p2 if g.kind == "cnot" else noise.p1
        if p:
            dep = rho
            for q in sites:
                dep = _depolarize(dep, q, width)
            n_faults = 4 ** len(sites) - 1
            rho = (1.0 - p) * rho + p * ((n_faults + 1) * dep - rho) / n_faults
    probs = np.real(np.diag(rho))
    idx = np.arange(probs.shape[0])
    joint = (
        ((idx >> layout.anc1) & 1 == 1)
        & ((idx >> layout.anc2) & 1 == 0)
        & ((idx & sum(1 << q for q in layout.column_qubits)) == 0)
    )
    return float(layout.k_pad * layout.m_pad * probs[joint].sum())


def _check_traced(fails, counts, name, expected):
    """Counts only a traced run sees (per-gate and per-solve hooks)."""
    if name in counts and counts[name] != expected:
        fails.append(f"{name} {counts[name]:.0f} != {expected}")


def _solves(counts, evals):
    """One M3 solve per shadow batch that kept shots."""
    return evals * BATCHES - counts["simulator.starved_batches"]


def _check_noisy_estimate(fails, circ, layout, noise, est, tag):
    expected = noisy_expected_loss(circ, layout, noise)
    tol = NOISY_TOL.get(circ.width, NOISY_TOL[8])
    if not abs(est.loss - expected) <= tol:
        fails.append(f"{tag}: mitigated {est.loss:.4f} vs noisy exact {expected:.4f} (tol {tol})")


# --- workloads ------------------------------------------------------------------

class TrainExact:
    """Adam, exact-shift gradients, statevector losses (shots=None)."""

    name = "train-exact"
    task_kind = "fit"
    min_tasks = 1

    def __init__(self, rows=64, features=7, iterations=2, batch=8, pool=256):
        self.rows, self.features, self.iterations = rows, features, iterations
        self.batch, self.pool = batch, pool

    def config(self, seed):
        return trainer.TrainConfig(
            iterations=self.iterations, batch_size=self.batch, shots=None, seed=int(seed)
        )

    def setup(self, seed, workdir):
        seeds = np.random.default_rng(seed).integers(0, 2**31, size=self.pool)
        tables = [_standardized(self.rows, self.features, s) for s in seeds]
        batch = _first_batch(tables[0], self.batch)
        circ, layout = synthesis.build_regression_circuit(batch, np.full(self.features + 1, 0.7))
        simulator.loss_from_run(circ, layout)
        return {"tables": tables, "seeds": seeds}

    def task(self, inputs, i, clock=None):
        k = i % self.pool
        return self.fit(inputs["tables"][k], self.config(inputs["seeds"][k]))

    @staticmethod
    def fit(table, config):
        return trainer.fit_quantum(table, config)

    def evaluations(self, model):
        return model.n_circuit_evaluations

    def expected_evals(self, table):
        per_iter = max(1, table.n_rows // self.batch) * (1 + 4 * (self.features + 1))
        return per_iter * self.iterations

    def check(self, inputs, i, model, counts):
        k = i % self.pool
        table = inputs["tables"][k]
        return self.check_fit(table, self.config(inputs["seeds"][k]), model, counts)

    def check_fit(self, table, config, model, counts):
        fails = []
        evals = model.n_circuit_evaluations
        if evals != self.expected_evals(table):
            fails.append(f"evaluations {evals} != {self.expected_evals(table)}")
        if counts["trainer.evals"] != evals:
            fails.append(f"loss_from_run saw {counts['trainer.evals']} calls, model says {evals}")
        if counts["simulator.shots_drawn"]:
            fails.append("exact mode drew shots")
        gates = _folded_gate_count(layout_for(min(self.batch, table.n_rows), self.features))
        _check_traced(fails, counts, "circuit.gates_applied", evals * gates)
        if not np.all(np.isfinite(model.phis)):
            return fails + ["final angles are not finite"]
        phis, losses = replay_adam(table, config)
        gap = float(np.max(np.abs(phis - model.phis)))
        if not gap <= REPLAY_TOL:
            fails.append(f"final angles differ from the closed-form replay by {gap:.3e}")
        gap = max(abs(h["loss"] - l) for h, l in zip(model.history, losses))
        if not gap <= IDENTITY_TOL:
            fails.append(f"reported losses differ from the closed form by {gap:.3e}")
        batch = _first_batch(table, self.batch)
        circ, layout = synthesis.build_regression_circuit(batch, model.phis)
        if len(circ) != _folded_gate_count(layout):
            fails.append(f"circuit has {len(circ)} gates, not {_folded_gate_count(layout)}")
        est = simulator.loss_from_run(circ, layout).loss
        closed = trainer.loss_closed_form(DataTable(np.sin(batch.values)), model.phis)
        if not abs(est - closed) <= IDENTITY_TOL:
            fails.append(f"loss identity gap {abs(est - closed):.3e} at the final angles")
        return fails

    def reference(self):
        """The stored reference fit, if this workload has its shape."""
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)
        shape = [self.rows, self.features, self.iterations, self.batch]
        if ref["shape"] != shape:
            return None
        return ref

    def reference_fit(self, ref):
        table = _standardized(self.rows, self.features, ref["seed"])
        return table, self.config(ref["seed"])


class TrainNoisy:
    """Nelder-Mead on mitigated, noisy shadow estimates (criterion 9's shape)."""

    name = "train-noisy"
    task_kind = "fit"
    min_tasks = 1

    def __init__(self, rows=32, features=1, iterations=1, batch=8, shots=10000, pool=256):
        self.rows, self.features, self.iterations = rows, features, iterations
        self.batch, self.shots, self.pool = batch, shots, pool
        self.width = layout_for(min(batch, rows), features).width
        self.noise = simulator.default_noise(self.width)

    def config(self, seed):
        return trainer.TrainConfig(
            optimizer="nelder-mead",
            iterations=self.iterations,
            batch_size=self.batch,
            shots=self.shots,
            estimator="shadow",
            noise=self.noise,
            mitigate=True,
            seed=int(seed),
        )

    def setup(self, seed, workdir):
        seeds = np.random.default_rng(seed).integers(0, 2**31, size=self.pool)
        tables = [_standardized(self.rows, self.features, s) for s in seeds]
        self._probe_estimate(tables[0], seeds[0])
        return {"tables": tables, "seeds": seeds}

    def _probe_estimate(self, table, seed):
        """Mitigated estimate at fixed probe angles on the table's first batch."""
        batch = _first_batch(table, self.batch)
        circ, layout = synthesis.build_regression_circuit(
            batch, np.full(self.features + 1, math.pi / 4)
        )
        confusion = calibrate_readout(self.noise, self.width, 10000, seed=int(seed) + 991)
        est = simulator.loss_from_run(
            circ, layout, self.shots, seed=int(seed) + 7, noise=self.noise,
            estimator="shadow", confusion=confusion,
        )
        return circ, layout, est

    def task(self, inputs, i, clock=None):
        k = i % self.pool
        return trainer.fit_quantum(inputs["tables"][k], self.config(inputs["seeds"][k]))

    def evaluations(self, model):
        return model.n_circuit_evaluations

    def check(self, inputs, i, model, counts):
        k = i % self.pool
        fails = []
        evals = model.n_circuit_evaluations
        if counts["trainer.evals"] != evals:
            fails.append(f"loss_from_run saw {counts['trainer.evals']} calls, model says {evals}")
        if counts["simulator.shots_drawn"] != evals * self.shots:
            fails.append(f"drew {counts['simulator.shots_drawn']:.0f} shots, not {evals} x {self.shots}")
        if counts["check.nonfinite_losses"]:
            fails.append("an evaluation returned a non-finite loss")
        if counts["check.unkept_evals"] or not counts["simulator.shots_kept"] > 0:
            fails.append("an evaluation kept no shots")
        _check_traced(fails, counts, "mitigation.solves", _solves(counts, evals))
        if not all(math.isfinite(h["loss"]) for h in model.history):
            fails.append("non-finite loss in the history")
        circ, layout, est = self._probe_estimate(inputs["tables"][k], inputs["seeds"][k])
        _check_noisy_estimate(fails, circ, layout, self.noise, est, "probe angles")
        return fails


class SampleWide:
    """One mitigated shadow evaluation at width 8 (README's sampled model)."""

    name = "sample-wide"
    task_kind = "eval"
    min_tasks = 1

    def __init__(self, rows=64, features=7, batch=8, shots=20000, pool=256):
        self.rows, self.features, self.batch = rows, features, batch
        self.shots, self.pool = shots, pool
        self.width = layout_for(batch, features).width
        self.noise = simulator.default_noise(self.width)

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        table = _standardized(self.rows, self.features, rng.integers(2**31))
        batches = [
            table.rows(rng.choice(self.rows, self.batch, replace=False)).normalized()
            for _ in range(self.pool)
        ]
        phis = [_uniform_phis(rng, self.features + 1) for _ in range(self.pool)]
        seeds = rng.integers(0, 2**31, size=self.pool)
        confusion = calibrate_readout(self.noise, self.width, 10000, seed=int(rng.integers(2**31)))
        circ, layout = synthesis.build_regression_circuit(batches[0], phis[0])
        simulator.loss_from_run(circ, layout)
        return {"batches": batches, "phis": phis, "seeds": seeds, "confusion": confusion}

    def task(self, inputs, i, clock=None):
        k = i % self.pool
        circ, layout = synthesis.build_regression_circuit(inputs["batches"][k], inputs["phis"][k])
        est = simulator.loss_from_run(
            circ, layout, self.shots, seed=int(inputs["seeds"][k]), noise=self.noise,
            estimator="shadow", confusion=inputs["confusion"],
        )
        return circ, layout, est

    def evaluations(self, output):
        return 1

    def check(self, inputs, i, output, counts):
        circ, layout, est = output
        fails = []
        if len(circ) != _folded_gate_count(layout):
            fails.append(f"circuit has {len(circ)} gates, not {_folded_gate_count(layout)}")
        if counts["simulator.shots_drawn"] != self.shots:
            fails.append(f"drew {counts['simulator.shots_drawn']:.0f} shots, not {self.shots}")
        _check_traced(fails, counts, "mitigation.solves", _solves(counts, 1))
        _check_traced(fails, counts, "synthesis.gates_emitted", len(circ))
        if not math.isfinite(est.loss):
            return fails + ["non-finite loss"]
        if not est.effective_shots or est.effective_shots <= 0:
            fails.append("no shots survived post-selection")
        _check_noisy_estimate(fails, circ, layout, self.noise, est, "estimate")
        return fails


class CompileLarge:
    """Large-K build plus exact loss, and the optimize/prepare/bench CLI."""

    name = "compile-large"
    task_kind = "cycle"
    # a cycle is 6-10 s: three make the median robust to a slow first one
    min_tasks = 3
    stages = ("build_s", "optimize_s", "prepare_s", "bench_s")

    def __init__(self, large_rows=512, features=7, naive_rows=32, prep_k=1024,
                 bench_ks="4,8,16,32,64,128,256", pool=16):
        self.large_rows, self.features, self.naive_rows = large_rows, features, naive_rows
        self.prep_k, self.bench_ks, self.pool = prep_k, bench_ks, pool

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        cols = self.features + 1
        items = []
        for k in range(self.pool):
            large = DataTable(rng.normal(size=(self.large_rows, cols))).normalized()
            small = DataTable(rng.normal(size=(self.naive_rows, cols))).normalized()
            item = {
                "large": large,
                "large_phis": _uniform_phis(rng, cols),
                "small": small,
                "small_phis": _uniform_phis(rng, cols),
                "naive": os.path.join(workdir, f"naive-{k}.json"),
                "vector": os.path.join(workdir, f"vector-{k}.json"),
                "bench_seed": int(rng.integers(2**31)),
            }
            naive, _ = synthesis.build_regression_circuit(small, item["small_phis"], "naive")
            with open(item["naive"], "w") as fh:
                fh.write(circuit_to_json(naive))
            with open(item["vector"], "w") as fh:
                json.dump(rng.normal(size=self.prep_k).tolist(), fh)
            items.append(item)
        self._cli(["bench", "--k", "4", "--m", "1", "--out", os.path.join(workdir, "warm.csv")])
        return {"items": items, "workdir": workdir}

    @staticmethod
    def _cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def task(self, inputs, i, clock=time.perf_counter):
        """``clock`` times the stages; the harness passes one that leaves
        out its own sampling work."""
        item = inputs["items"][i % self.pool]
        out = {name: os.path.join(inputs["workdir"], f"{name}-{i}") for name in ("opt", "prep", "bench")}
        clock_marks = [clock()]
        circ, layout = synthesis.build_regression_circuit(item["large"], item["large_phis"])
        loss = simulator.loss_from_run(circ, layout).loss
        clock_marks.append(clock())
        codes = [self._cli(["optimize", item["naive"], "--out", out["opt"], "--report", out["opt"] + ".report"])]
        clock_marks.append(clock())
        codes.append(self._cli(["prepare", item["vector"], "--out", out["prep"]]))
        clock_marks.append(clock())
        codes.append(self._cli(["bench", "--k", self.bench_ks, "--m", "1",
                                "--seed", str(item["bench_seed"]), "--out", out["bench"]]))
        clock_marks.append(clock())
        return {
            "circuit": circ, "layout": layout, "loss": loss, "codes": codes, "files": out,
            "stage_s": {s: clock_marks[j + 1] - clock_marks[j] for j, s in enumerate(self.stages)},
        }

    def evaluations(self, output):
        return 1

    def check(self, inputs, i, output, counts):
        item = inputs["items"][i % self.pool]
        fails = []
        if output["codes"] != [0, 0, 0]:
            return [f"CLI exit codes {output['codes']}"]
        circ, layout = output["circuit"], output["layout"]
        if len(circ) != _folded_gate_count(layout):
            fails.append(f"large circuit has {len(circ)} gates, not {_folded_gate_count(layout)}")
        closed = trainer.loss_closed_form(DataTable(np.sin(item["large"].values)), item["large_phis"])
        if not abs(output["loss"] - closed) <= IDENTITY_TOL:
            fails.append(f"loss identity gap {abs(output['loss'] - closed):.3e} at width {circ.width}")
        files = output["files"]
        with open(files["opt"]) as fh:
            optimized = circuit_from_json(fh.read())
        direct, _ = synthesis.build_regression_circuit(item["small"], item["small_phis"], "optimized")
        if optimized.gates != direct.gates:
            fails.append("optimize output differs from the direct builder")
        with open(files["opt"] + ".report") as fh:
            report = json.load(fh)
        output["gates_in"] = report["before"]["total"]
        output["gates_out"] = report["after"]["total"]
        naive, _ = synthesis.build_regression_circuit(item["small"], item["small_phis"], "naive")
        if (output["gates_in"], output["gates_out"]) != (len(naive), len(direct)):
            fails.append(f"optimize report {output['gates_in']} -> {output['gates_out']} gates, "
                         f"expected {len(naive)} -> {len(direct)}")
        _check_traced(fails, counts, "passes.gates_in", len(naive))
        _check_traced(fails, counts, "passes.gates_out", len(direct))
        with open(files["prep"]) as fh:
            err = json.load(fh)["max_amplitude_error"]
        if not err <= PREPARE_TOL:
            fails.append(f"prepare max_amplitude_error {err:.3e}")
        with open(files["bench"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["k"]) for r in rows] != [int(k) for k in self.bench_ks.split(",")]:
            fails.append("bench rows do not match the requested K list")
        for r in rows:
            k = int(r["k"])
            if r["naive_formula_total"] != r["naive_built_total"]:
                fails.append(f"bench K={k}: naive formula {r['naive_formula_total']} != built {r['naive_built_total']}")
            if int(r["optimized_total"]) != 2 * (k + 2):
                fails.append(f"bench K={k}: optimized total {r['optimized_total']} != {2 * (k + 2)}")
        for path in files.values():
            os.remove(path)
        os.remove(files["opt"] + ".report")
        return fails


WORKLOADS = {w.name: w for w in (TrainExact, TrainNoisy, SampleWide, CompileLarge)}
