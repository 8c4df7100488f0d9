"""Differential tests: the exact loss of a block circuit as one contraction
against the full statevector it replaces, and the trainer evaluator's
per-batch reuse of the data block against a fresh build per angle vector.

``_selection_sum`` is the exact branch of the earlier ``loss_from_run``,
copied verbatim apart from its name: it simulated the whole circuit and
summed the post-selected probabilities.
"""
import numpy as np
import pytest

import qregress as q
from qregress import circuit, simulator, trainer
from qregress.circuit import _Block, _block_circuit
from qregress.errors import CapacityError
from qregress.simulator import _selection_masks


def _selection_sum(circuit, layout):
    anc1_bit, anc2_bit, col_mask = _selection_masks(layout)
    constant = float(layout.k_pad * layout.m_pad)
    state = q.simulate(circuit)
    probs = np.abs(state) ** 2
    idx = np.arange(probs.shape[0])
    sel1 = (idx & anc1_bit) != 0
    joint = sel1 & ((idx & anc2_bit) == 0) & ((idx & col_mask) == 0)
    return constant * float(probs[joint].sum()), float(probs[sel1].sum())


def _case(seed, rows, features):
    rng = np.random.default_rng(seed)
    table = q.DataTable(rng.normal(size=(rows, features + 1))).normalized()
    return table, rng.uniform(-np.pi, np.pi, features + 1)


# (rows, features) for widths 3 to 12; most have a row count or a column
# count (features + 1) that is not a power of two, so the table is padded
SHAPES = [(1, 1), (2, 1), (3, 1), (3, 2), (5, 2), (7, 6), (12, 4), (20, 5), (24, 9), (100, 6)]


@pytest.mark.parametrize("rows,features", SHAPES)
def test_contraction_matches_the_full_statevector(rows, features):
    table, phis = _case(rows * 31 + features, rows, features)
    circ, layout = q.build_regression_circuit(table, phis)
    assert layout.width == SHAPES.index((rows, features)) + 3
    est = q.loss_from_run(circ, layout)
    loss, success = _selection_sum(circ, layout)
    assert abs(est.loss - loss) <= 1e-12
    assert abs(est.success_probability - success) <= 1e-12
    assert est.effective_shots is None
    closed = trainer.loss_closed_form(q.DataTable(np.sin(table.values)), phis)
    assert abs(est.loss - closed) <= 1e-12


def test_contraction_matches_for_a_data_part_that_touches_anc2():
    # M is general: nothing assumes the blocks before the last leave anc2 at 0
    layout = q.layout_for(3, 2)
    rng = np.random.default_rng(5)
    blocks = (
        _Block(layout.data_qubits, layout.anc1, rng.uniform(-2, 2, layout.k_pad)),
        _Block((layout.anc1, 0), layout.anc2, rng.uniform(-2, 2, 4)),
        _Block(layout.column_qubits, layout.anc2, rng.uniform(-2, 2, layout.m_pad)),
    )
    circ = _block_circuit(layout.width, blocks)
    est = q.loss_from_run(circ, layout)
    loss, success = _selection_sum(circ, layout)
    assert abs(est.loss - loss) <= 1e-12
    assert abs(est.success_probability - success) <= 1e-12


def test_exact_loss_leaves_no_slice_on_the_built_circuit():
    table, phis = _case(4, 8, 7)
    circ, layout = q.build_regression_circuit(table, phis)
    q.loss_from_run(circ, layout)
    assert circ._data_slice is None
    assert "gates" not in circ.__dict__  # nor lowered its gates


def test_block_circuit_without_the_coefficient_block_last_raises():
    table, phis = _case(6, 4, 3)
    circ, layout = q.build_regression_circuit(table, phis)
    data, coefficients = circ._blocks
    for blocks in [(coefficients, data), (data,), (data, coefficients._replace(target=0))]:
        with pytest.raises(ValueError, match="column qubits -> anc2"):
            q.loss_from_run(_block_circuit(layout.width, blocks), layout)
    wider = _block_circuit(layout.width + 1, circ._blocks)
    with pytest.raises(ValueError, match="column qubits -> anc2"):
        q.loss_from_run(wider, layout)


# --- the evaluator's per-batch reuse ---------------------------------------------

def _exact_evaluator(batch):
    return trainer._Evaluator(batch, q.TrainConfig(shots=None), None, 0)


@pytest.mark.parametrize("rows,features", [(8, 7), (5, 2), (3, 4)])
def test_reused_slice_losses_equal_a_fresh_build(rows, features):
    batch, phis = _case(rows + 100 * features, rows, features)
    ev = _exact_evaluator(batch)
    rng = np.random.default_rng(rows)
    points = [phis] + [phis + rng.normal(scale=0.5, size=phis.shape) for _ in range(6)]
    for i, point in enumerate(points):
        fresh = q.loss_from_run(*q.build_regression_circuit(batch, point))
        assert ev(point) == fresh.loss
        assert ev.success[i] == fresh.success_probability
    assert ev.calls == len(points)
    assert ev.data_slice is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_later_calls_raise_what_the_builder_raises(bad):
    batch, phis = _case(9, 8, 3)
    ev = _exact_evaluator(batch)
    ev(phis)
    wrong = phis.copy()
    wrong[1] = bad
    with pytest.raises(Exception) as built:
        q.build_regression_circuit(batch, wrong)
    with pytest.raises(type(built.value)) as evaluated:
        ev(wrong)
    assert str(evaluated.value) == str(built.value)
    assert ev.calls == 1


def test_later_calls_check_the_angle_count():
    batch, phis = _case(10, 4, 3)
    ev = _exact_evaluator(batch)
    ev(phis)
    with pytest.raises(ValueError) as built:
        q.build_regression_circuit(batch, phis[:-1])
    with pytest.raises(ValueError) as evaluated:
        ev(phis[:-1])
    assert str(evaluated.value) == str(built.value)


def test_criterion5_identity_holds_on_reused_slices():
    batch, phis = _case(11, 8, 7)
    ev = _exact_evaluator(batch)
    ev(phis)
    for shift in (0.3, -1.1, 2.0):
        closed = trainer.loss_closed_form(q.DataTable(np.sin(batch.values)), phis + shift)
        assert abs(ev(phis + shift) - closed) <= 1e-12


# --- byte budgets ----------------------------------------------------------------

def test_simulate_budget_refuses_before_allocating(monkeypatch):
    circ = q.new_circuit(6).append(q.h(0))
    monkeypatch.setattr(simulator, "_SIMULATE_BYTES", 2 * 16 * 2**6)
    assert q.simulate(circ).shape == (64,)
    monkeypatch.setattr(simulator, "_SIMULATE_BYTES", 2 * 16 * 2**6 - 1)

    def no_zeros(*args, **kwargs):
        raise AssertionError("allocated past the budget")

    monkeypatch.setattr(simulator, "_zero_state", no_zeros)
    with pytest.raises(CapacityError, match="budget"):
        q.simulate(circ)


def test_exact_loss_budget_counts_the_data_slice(monkeypatch):
    table, phis = _case(12, 8, 7)
    circ, layout = q.build_regression_circuit(table, phis)
    state_bytes = 16 * 2**layout.width
    # a state, its working copy and M (half a state)
    monkeypatch.setattr(simulator, "_SIMULATE_BYTES", 5 * state_bytes // 2)
    expected = q.loss_from_run(circ, layout).loss
    monkeypatch.setattr(simulator, "_SIMULATE_BYTES", 5 * state_bytes // 2 - 1)
    with pytest.raises(CapacityError, match="budget"):
        q.loss_from_run(circ, layout)
    q.simulate(circ)  # the state and its copy still fit
    monkeypatch.setattr(simulator, "_SIMULATE_BYTES", 5 * state_bytes // 2)
    assert q.loss_from_run(circ, layout).loss == expected


def test_default_budgets_refuse_what_the_width_limits_refused():
    assert 2 * 16 * 2**24 <= simulator._SIMULATE_BYTES < 2 * 16 * 2**25
    assert 2 * 16 * 4**10 <= circuit._UNITARY_BYTES < 2 * 16 * 4**11


def test_unitary_budget_refuses_before_allocating(monkeypatch):
    circ = q.new_circuit(4).append(q.h(0)).append(q.cnot(0, 3))
    monkeypatch.setattr(circuit, "_UNITARY_BYTES", 2 * 16 * 4**4)
    assert q.unitary_of(circ).shape == (16, 16)
    monkeypatch.setattr(circuit, "_UNITARY_BYTES", 2 * 16 * 4**4 - 1)

    def no_eye(*args, **kwargs):
        raise AssertionError("allocated past the budget")

    monkeypatch.setattr(circuit.np, "eye", no_eye)
    with pytest.raises(CapacityError, match="budget"):
        q.unitary_of(circ)
