"""Differential tests: circuits built from uniformly controlled blocks
against the eager gate lists they replace.

``_ref_build_optimized`` is the optimized branch of the earlier
``build_regression_circuit``, copied verbatim apart from its name: it
emitted every gate at build time.  The block circuit
must lower to the same gates bit for bit, report the same sizes and errors
without lowering, and simulate to the same state without its gates.
"""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qregress as q
from qregress import simulator, synthesis, trainer
from qregress.circuit import Circuit, _Block, _block_circuit
from qregress.data import flatten_padded, layout_for
from qregress.synthesis import _padded_phi_angles, _require_normalized, _uniform_block, walsh_angles


# --- reference: the earlier eager builder --------------------------------------

def _ref_build_optimized(table, phis):
    layout = layout_for(table.n_rows, table.n_features)
    phis = np.asarray(phis, dtype=float)
    if phis.shape != (table.n_features + 1,):
        raise ValueError(
            f"need {table.n_features + 1} angles, got {phis.shape}"
        )
    _require_normalized(table)
    flat = flatten_padded(table, layout)
    ud = _uniform_block(
        layout.data_qubits, layout.anc1, walsh_angles(2.0 * flat), pushed=True
    )
    uc = _uniform_block(
        layout.column_qubits,
        layout.anc2,
        walsh_angles(_padded_phi_angles(phis, layout)),
        pushed=True,
    )
    return Circuit(layout.width, tuple(ud + uc)), layout


def _ref_block_circuit(width, blocks):
    """The eager twin of a block circuit: its gates emitted at once."""
    gates = []
    for b in blocks:
        gates += _uniform_block(b.controls, b.target, walsh_angles(b.angles), pushed=True)
    return Circuit(width, tuple(gates))


def _case(seed, rows, features, phis=None):
    rng = np.random.default_rng(seed)
    table = q.DataTable(rng.normal(size=(rows, features + 1))).normalized()
    if phis is None:
        phis = rng.uniform(-np.pi, np.pi, features + 1)
    return table, np.asarray(phis, dtype=float)


def _lowered(circ):
    return "gates" in vars(circ)


SHAPES = [(1, 1), (2, 1), (3, 2), (8, 7), (5, 3), (32, 8), (64, 7)]


# --- lowering equals the eager builder -------------------------------------------

@pytest.mark.parametrize("rows,features", SHAPES)
def test_lowered_gates_equal_eager_builder(rows, features):
    table, phis = _case(rows * 31 + features, rows, features)
    circ, layout = q.build_regression_circuit(table, phis)
    ref, ref_layout = _ref_build_optimized(table, phis)
    assert layout == ref_layout
    assert not _lowered(circ)
    assert circ.gates == ref.gates
    assert [str(g.angle) for g in circ.gates] == [str(g.angle) for g in ref.gates]
    assert _lowered(circ) and circ.gates is circ.gates


@pytest.mark.parametrize(
    "phis",
    [[0.0, -0.0], [-0.0, -0.0], [0.0, 0.0], [1e-300, -1e-300], [1e307, -1e307]],
    ids=["mixed-zeros", "negative-zeros", "zeros", "tiny", "huge"],
)
def test_signed_zero_and_extreme_angles_bit_for_bit(phis):
    table, _ = _case(4, 2, 1)
    circ, _ = q.build_regression_circuit(table, phis)
    ref, _ = _ref_build_optimized(table, phis)
    assert [str(g.angle) for g in circ.gates] == [str(g.angle) for g in ref.gates]
    assert circ.gates == ref.gates


@pytest.mark.parametrize("rows,features", SHAPES)
def test_sizes_equality_hash_and_json_match_eager_twin(rows, features):
    table, phis = _case(rows + 7 * features, rows, features)
    circ, _ = q.build_regression_circuit(table, phis)
    ref, _ = _ref_build_optimized(table, phis)
    assert len(circ) == len(ref)
    assert q.gate_counts(circ) == q.gate_counts(ref)
    assert not _lowered(circ)  # len and gate_counts read the block sizes
    assert circ == ref and ref == circ
    assert hash(circ) == hash(ref)
    assert q.circuit_to_json(circ) == q.circuit_to_json(ref)


def test_zero_control_block_matches_eager_twin():
    blocks = (_Block((), 2, np.array([-0.0])), _Block((0, 2), 1, np.array([0.3, -1.2, 0.0, 2.5])))
    circ = _block_circuit(3, blocks)
    ref = _ref_block_circuit(3, blocks)
    assert len(circ) == len(ref) == 9
    assert q.gate_counts(circ) == q.gate_counts(ref)
    assert not _lowered(circ)
    assert circ == ref
    assert hash(circ) == hash(ref)
    assert q.circuit_to_json(circ) == q.circuit_to_json(ref)
    assert [str(g.angle) for g in circ.gates] == [str(g.angle) for g in ref.gates]
    assert np.abs(q.simulate(circ) - q.simulate(ref)).max() <= 1e-12


def test_gate_level_operations_leave_the_block_path():
    table, phis = _case(3, 4, 3)
    circ, _ = q.build_regression_circuit(table, phis)
    ref, _ = _ref_build_optimized(table, phis)
    grown = circ.append(q.h(0))
    assert grown._blocks is None and grown.gates == ref.gates + (q.h(0),)
    assert circ.extended([])._blocks is None
    piped, _ = q.optimize_pipeline(circ)
    assert piped._blocks is None and piped.gates == ref.gates


# --- the block path equals the gates ---------------------------------------------

@st.composite
def _block_circuits(draw):
    width = draw(st.integers(1, 10))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        wires = draw(st.permutations(range(width)))
        n_controls = draw(st.integers(0, min(width - 1, 5)))
        angles = draw(
            st.lists(
                st.floats(-8.0, 8.0, allow_nan=False) | st.sampled_from([0.0, -0.0]),
                min_size=2**n_controls,
                max_size=2**n_controls,
            )
        )
        blocks.append(_Block(tuple(wires[:n_controls]), wires[n_controls], np.array(angles)))
    return _block_circuit(width, blocks)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_block_circuits())
def test_block_simulation_matches_gates_and_unitary(circ):
    block_state = q.simulate(circ)
    assert not _lowered(circ)
    gate_state = q.simulate(Circuit(circ.width, circ.gates))
    column = q.unitary_of(circ)[:, 0]
    assert np.abs(block_state - gate_state).max() <= 1e-12
    assert np.abs(block_state - column).max() <= 1e-12


@pytest.mark.parametrize("rows,features", [(2, 1), (8, 7), (5, 3), (16, 3), (32, 7)])
def test_regression_block_state_matches_gates_and_unitary(rows, features):
    table, phis = _case(rows * features, rows, features)
    circ, layout = q.build_regression_circuit(table, phis)
    assert layout.width <= 10
    block_state = q.simulate(circ)
    assert np.abs(block_state - q.simulate(Circuit(circ.width, circ.gates))).max() <= 1e-12
    assert np.abs(block_state - q.unitary_of(circ)[:, 0]).max() <= 1e-12


def test_exact_loss_calls_neither_walsh_nor_apply_gate(monkeypatch):
    calls = {"walsh": 0, "apply": 0}
    walsh, apply_gate = synthesis.walsh_angles, simulator.apply_gate

    def counted_walsh(a):
        calls["walsh"] += 1
        return walsh(a)

    def counted_apply(state, gate, width):
        calls["apply"] += 1
        return apply_gate(state, gate, width)

    monkeypatch.setattr(synthesis, "walsh_angles", counted_walsh)
    monkeypatch.setattr(simulator, "apply_gate", counted_apply)
    table, phis = _case(11, 8, 7)
    circ, layout = q.build_regression_circuit(table, phis)
    est = q.loss_from_run(circ, layout)
    assert calls == {"walsh": 0, "apply": 0}
    closed = trainer.loss_closed_form(q.DataTable(np.sin(table.values)), phis)
    assert abs(est.loss - closed) <= 1e-12
    # a circuit without blocks runs gate by gate, through the hook
    q.loss_from_run(Circuit(circ.width, circ.gates), layout)
    assert calls == {"walsh": 2, "apply": len(circ)}


def test_width18_exact_loss_matches_closed_form():
    table, phis = _case(2026, 8192, 7)
    start = time.perf_counter()
    circ, layout = q.build_regression_circuit(table, phis)
    loss = q.loss_from_run(circ, layout).loss
    elapsed = time.perf_counter() - start
    assert layout.k_pad == 2**16 and circ.width == 18
    closed = trainer.loss_closed_form(q.DataTable(np.sin(table.values)), phis)
    assert abs(loss - closed) <= 1e-9
    assert not _lowered(circ)
    print(f"K=2**16 build plus exact loss: {elapsed:.3f} s")


# --- build-time errors equal the eager builder's -----------------------------------

def _outcome(build, table, phis):
    try:
        circ, _ = build(table, phis)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return circ.gates


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize(
    "bad",
    [np.nan, np.inf, -np.inf, 1e308, -1e308, 1e307, 2e306],
    ids=["nan", "inf", "-inf", "1e308", "-1e308", "1e307", "2e306"],
)
@pytest.mark.parametrize("position", [0, -1])
def test_build_time_errors_match_eager_builder(bad, position):
    table, phis = _case(5, 8, 7)
    phis[position] = bad
    expected = _outcome(_ref_build_optimized, table, phis)
    got = _outcome(q.build_regression_circuit, table, phis)
    if isinstance(expected, tuple):  # raised at build time, as before
        assert got == expected
    else:
        assert [str(g.angle) for g in got] == [str(g.angle) for g in expected]


def test_clean_blocks_are_not_lowered_at_build(monkeypatch):
    calls = []
    monkeypatch.setattr(synthesis, "_lower_blocks", lambda blocks: calls.append(blocks))
    table, phis = _case(8, 16, 3)
    q.build_regression_circuit(table, phis * 1e300)
    assert calls == []
