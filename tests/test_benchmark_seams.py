"""The benchmark's tracer wraps package functions by the attribute their
callers look up.  A refactor that moves one of those names must fail here,
not in the benchmark run."""
import collections
import importlib.util
import pathlib

import numpy as np
import pytest

import qregress as q
from qregress import simulator
from qregress.mitigation import ConfusionSet, mitigate_counts

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "owner, attr", [(h[0], h[1]) for h in tracer.SPAN_HOOKS], ids=lambda v: str(v)
)
def test_span_hook_resolves(owner, attr):
    # the tracer reads the attribute from the owner's own namespace
    assert callable(tracer._resolve(owner).__dict__[attr])


@pytest.mark.parametrize("attr", ["_sample_indices", "apply_gate"])
def test_simulator_seam_resolves(attr):
    assert callable(tracer._resolve("qregress.simulator").__dict__[attr])


def test_observe_mitigate_reads_a_sampled_counts():
    # the traced benchmark's solve counters come from the Counts that
    # mitigate_counts receives: one outcome per distinct observed index
    circ = q.new_circuit(4)
    for gate in (q.h(0), q.cnot(0, 1), q.rx(2, 0.7), q.cnot(2, 3)):
        circ = circ.append(gate)
    noise = q.NoiseModel(p1=0.02, p2=0.05, readout=((0.03, 0.02),) * 4)
    counts = q.sample(circ, 500, seed=12, noise=noise)
    n = np.unique(simulator._sample_indices(circ, 500, 12, noise)).size
    confusion = ConfusionSet.from_flip_rates(noise.readout)
    seen = collections.defaultdict(float)
    tracer._observe_mitigate(seen, (counts, confusion), {}, mitigate_counts(counts, confusion))
    assert seen["mitigation.solves"] == 1
    assert seen["mitigation.outcomes"] == n
    assert seen["mitigation.matrix_entries"] == n * n * circ.width


def _exact_fit():
    table, _ = q.synthetic_linear_table(24, 3, seed=8)
    train, _ = q.standardize(q.DataTable(table.values))
    config = q.TrainConfig(iterations=2, batch_size=8, shots=None, seed=4)
    return train, config


def test_exact_fit_calls_the_probed_loss_once_per_evaluation(monkeypatch):
    # the benchmark's probe wraps qregress.trainer.loss_from_run and fails a
    # run unless it sees every evaluation the model counts
    from qregress import trainer

    seen = []
    original = trainer.loss_from_run

    def probed(*args, **kwargs):
        seen.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(trainer, "loss_from_run", probed)
    train, config = _exact_fit()
    model = q.fit_quantum(train, config)
    assert model.n_circuit_evaluations == 2 * 3 * (1 + 4 * 4)
    assert len(seen) == model.n_circuit_evaluations


def test_exact_fit_applies_each_data_block_once_per_batch(monkeypatch):
    # each batch's evaluator computes its data block's slice once; every
    # later angle vector is a contraction, with no block applied
    calls = []
    original = simulator._apply_block

    def counted(state, block, width):
        calls.append(block.target)
        return original(state, block, width)

    monkeypatch.setattr(simulator, "_apply_block", counted)
    train, config = _exact_fit()
    model = q.fit_quantum(train, config)
    layout = q.layout_for(8, 3)
    assert calls == [layout.anc1] * (2 * 3)
    assert model.n_circuit_evaluations == 2 * 3 * 17
