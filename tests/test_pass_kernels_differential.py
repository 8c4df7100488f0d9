"""Differential tests: the linear-time rewrite kernels against the code they
replaced.

The ``_ref_*`` functions are the earlier implementations, copied verbatim
apart from their names: the list-``del`` CNOT cancellation with its
commutation rule, the per-call dict ``_validate_gate``, the interpreted
``gate_counts``, the ``_uniform_block`` that built a fresh rotation per step
and the ``push_paulis`` that built a fresh negated RZ per rotation.  Every
comparison is ``==`` on gates, counters and reports, and angles are also
compared by ``str`` so a flipped sign of zero shows up.
"""
import math

import numpy as np
import pytest

import qregress as q
from qregress import circuit as cir
from qregress import passes, synthesis
from qregress.circuit import Circuit, CountReport, Gate, GATE_KINDS
from qregress.passes import PassReport, _cancel_cnot_pairs, _report
from qregress.synthesis import gray_sequence


# --- references: the earlier kernels -------------------------------------------

def _ref_commutes_with_cnot(control: int, target: int, g: Gate) -> bool:
    if g.kind == "cnot":
        return g.target != control and g.control != target
    if g.kind == "rz":
        return g.qubit != target
    if g.kind == "x":
        return g.qubit != control
    return False


def _ref_cancel_cnot_pairs(gates: list[Gate]) -> tuple[list[Gate], int]:
    """Remove CNOT pairs separated only by gates the CNOT commutes with."""
    removed = 0
    alive = list(gates)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(alive):
            g = alive[i]
            if g.kind == "cnot":
                cancelled_here = False
                j = i + 1
                while j < len(alive):
                    other = alive[j]
                    if other.kind == "cnot" and other.qubits == g.qubits:
                        del alive[j]
                        del alive[i]
                        removed += 2
                        changed = True
                        cancelled_here = True
                        break
                    if not _ref_commutes_with_cnot(g.control, g.target, other):
                        break
                    j += 1
                if cancelled_here:
                    continue  # a new gate slid into position i
            i += 1
    return alive, removed


def _ref_validate_gate(gate: Gate, width: int) -> None:
    if gate.kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    expected = {"x": 1, "h": 1, "rz": 1, "rx": 1, "cnot": 2}.get(gate.kind)
    if expected is not None and len(gate.qubits) != expected:
        raise ValueError(f"{gate.kind} takes {expected} qubit(s)")
    if gate.kind == "mcrz" and len(gate.qubits) < 1:
        raise ValueError("mcrz needs a target qubit")
    for q in gate.qubits:
        if not 0 <= q < width:
            raise ValueError(f"qubit {q} out of range for width {width}")
    if gate.kind == "cnot" and gate.qubits[0] == gate.qubits[1]:
        raise ValueError("cnot control and target must differ")
    if gate.kind == "mcrz":
        ctrls = gate.qubits[:-1]
        if len(set(ctrls)) != len(ctrls) or gate.qubits[-1] in ctrls:
            raise ValueError("mcrz controls must be distinct and exclude the target")
    if not math.isfinite(gate.angle):
        raise ValueError("gate angle must be finite")


def _ref_gate_counts(circuit: Circuit) -> CountReport:
    """Exact per-kind gate tally of ``circuit``."""
    tally = dict.fromkeys(GATE_KINDS, 0)
    for g in circuit:
        tally[g.kind] += 1
    return CountReport(**tally)


def _ref_uniform_block(controls, target: int, angles_by_mask, pushed: bool) -> list[Gate]:
    controls = list(controls)
    rot = cir.rx if pushed else cir.rz
    if not controls:
        return [rot(target, float(angles_by_mask[0]))]
    # one shared CNOT per control: a cycle repeats each one many times
    flips = [cir.cnot(target, c) if pushed else cir.cnot(c, target) for c in controls]
    gates: list[Gate] = []
    for k, bit in enumerate(gray_sequence(len(controls))):
        gates.append(rot(target, float(angles_by_mask[k ^ (k >> 1)])))
        gates.append(flips[bit])
    return gates


def _ref_push_paulis(circ: Circuit) -> tuple[Circuit, PassReport]:
    pending = [False] * circ.width
    out: list[Gate] = []
    absorbed = negated = flushed = 0
    for g in circ:
        k = g.kind
        if k == "x":
            pending[g.qubit] ^= True
            absorbed += 1
        elif k == "rz":
            if pending[g.qubit]:
                out.append(cir.rz(g.qubit, -g.angle))
                negated += 1
            else:
                out.append(g)
        elif k == "rx":
            out.append(g)
        elif k == "cnot":
            out.append(g)
            if pending[g.control]:
                pending[g.target] ^= True
        elif k == "h":
            if pending[g.qubit]:
                out.append(cir.x(g.qubit))
                pending[g.qubit] = False
                flushed += 1
            out.append(g)
        else:
            raise ValueError("push_paulis needs an mcrz-free circuit; decompose first")
    suffix = [cir.x(q) for q in range(circ.width) if pending[q]]
    out += suffix
    result = Circuit(circ.width, tuple(out))
    rewrites = [
        f"x-absorbed: {absorbed}",
        f"rz-negated: {negated}",
        f"x-stopped-at-h: {flushed}",
        f"x-suffix: {len(suffix)}",
    ]
    return result, _report(circ, result, rewrites)


# --- helpers -------------------------------------------------------------------

def _signed(gates):
    return [(g.kind, g.qubits, str(g.angle)) for g in gates]


def _cnot_rich_run(width, n_gates, rng):
    """Random {x, cnot, rz} list on few wires, so many CNOT pairs meet."""
    pairs = [(c, t) for c in range(width) for t in range(width) if c != t]
    shared = {p: cir.cnot(*p) for p in pairs}
    gates = []
    for _ in range(n_gates):
        u = rng.random()
        if u < 0.6:
            p = pairs[rng.integers(len(pairs))]
            gates.append(shared[p] if rng.random() < 0.5 else cir.cnot(*p))
        elif u < 0.8:
            gates.append(cir.rz(int(rng.integers(width)), float(rng.choice([0.5, -0.0, 1.5]))))
        else:
            gates.append(cir.x(int(rng.integers(width))))
    return gates


def _naive_chain(rows, features, seed):
    rng = np.random.default_rng(seed)
    table = q.DataTable(rng.normal(size=(rows, features + 1))).normalized()
    phis = rng.uniform(-np.pi, np.pi, features + 1)
    return table, phis, q.build_regression_circuit(table, phis, "naive")[0]


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the reference's error, whatever its type
        return type(exc), str(exc)
    return None


# --- CNOT cancellation ---------------------------------------------------------

class TestCancelCnotPairs:
    def test_random_runs_match_list_reference(self):
        rng = np.random.default_rng(501)
        total_removed = 0
        for _ in range(400):
            width = int(rng.integers(2, 5))
            gates = _cnot_rich_run(width, int(rng.integers(0, 60)), rng)
            new, ref = _cancel_cnot_pairs(gates), _ref_cancel_cnot_pairs(gates)
            assert new == ref
            assert [id(g) for g in new[0]] == [id(g) for g in ref[0]]
            total_removed += ref[1]
        assert total_removed > 1000  # the runs exercise cancellation

    def test_input_list_is_not_modified(self):
        gates = [cir.cnot(0, 1), cir.rz(0, 0.5), cir.cnot(0, 1)]
        before = list(gates)
        assert _cancel_cnot_pairs(gates) == ([cir.rz(0, 0.5)], 2)
        assert gates == before

    def test_merged_segment_of_32x8_chain_matches_list_reference(self, monkeypatch):
        _, _, naive = _naive_chain(32, 7, seed=502)
        pushed, _ = q.push_paulis(q.decompose_all_mcrz(naive))
        segments = []
        cancel = passes._cancel_cnot_pairs
        monkeypatch.setattr(
            passes, "_cancel_cnot_pairs", lambda gates: segments.append(list(gates)) or cancel(gates)
        )
        q.fold_phases(pushed)
        merged = max(segments, key=len)
        assert len(merged) == 65792
        new, ref = cancel(merged), _ref_cancel_cnot_pairs(merged)
        assert new == ref
        assert ref[1] > 65000  # nearly every CNOT of the segment cancels


# --- gate validation -----------------------------------------------------------

_BAD_GATES = [
    Gate("y", (0,)),
    Gate(["x"], (0,)),
    Gate("x", (0, 1)),
    Gate("h", ()),
    Gate("rz", (0, 1), 0.5),
    Gate("rx", (), 0.5),
    Gate("cnot", (0,)),
    Gate("cnot", (0, 1, 2)),
    Gate("cnot", (1, 1)),
    Gate("cnot", (2, 2)),
    Gate("mcrz", (), 0.5),
    Gate("mcrz", (0, 0, 1), 0.5),
    Gate("mcrz", (0, 1, 0), 0.5),
    Gate("mcrz", (0, 1, 2), math.nan),
    Gate("x", (-1,)),
    Gate("x", (3,)),
    Gate("cnot", (0, 5)),
    Gate("mcrz", (0, 7, 1), 0.5),
    Gate("rz", (0,), math.inf),
    Gate("rz", (0,), -math.inf),
    Gate("rx", (1,), math.nan),
    Gate("x", (5,), math.nan),  # range error comes before the angle error
    Gate("cnot", (5, 5), math.inf),  # range error before distinctness
    Gate("mcrz", (1, 1, 9), math.nan),  # range error before distinctness
]

_GOOD_GATES = [
    cir.x(0), cir.h(2), cir.rz(1, -0.0), cir.rx(0, 3.0), cir.cnot(2, 0),
    cir.mcrz((), 1, 0.5), cir.mcrz((0, 2), 1, -1.0), Gate("mcrz", (2,), 0.0),
]


class TestValidateGate:
    @pytest.mark.parametrize("gate", _BAD_GATES, ids=repr)
    def test_same_error_as_reference(self, gate):
        expected = _raised(_ref_validate_gate, gate, 3)
        assert expected is not None
        assert _raised(cir._validate_gate, gate, 3) == expected
        assert _raised(Circuit, 3, (cir.x(0), gate)) == expected

    @pytest.mark.parametrize("gate", _GOOD_GATES, ids=repr)
    def test_valid_gates_pass(self, gate):
        assert _ref_validate_gate(gate, 3) is None
        assert cir._validate_gate(gate, 3) is None

    def test_first_bad_gate_wins(self):
        bad = [Gate("cnot", (1, 1)), Gate("x", (9,)), Gate("rz", (0,), math.nan)]
        for first in bad:
            for second in bad:
                if first is second:
                    continue
                gates = (cir.h(0), first, cir.x(1), second)
                expected = _raised(_ref_validate_gate, first, 3)
                assert expected != _raised(_ref_validate_gate, second, 3)
                assert _raised(Circuit, 3, gates) == expected



def test_naive_build_validates_each_gate_once(monkeypatch):
    rng = np.random.default_rng(509)
    table = q.DataTable(rng.normal(size=(4, 4))).normalized()
    phis = rng.uniform(-1, 1, 4)
    layout = q.layout_for(4, 3)
    expected = (
        q.build_ud_naive(table, layout).gates
        + q.build_uc_naive(phis, layout).gates
        + tuple(cir.h(w) for w in range(layout.width))
    )
    calls = []
    validate = cir._validate_gate
    monkeypatch.setattr(cir, "_validate_gate", lambda g, w: calls.append(g) or validate(g, w))
    naive, _ = q.build_regression_circuit(table, phis, "naive")
    assert naive.gates == expected
    assert calls == list(naive.gates)

# --- gate counts ---------------------------------------------------------------

class TestGateCounts:
    def test_matches_reference(self):
        rng = np.random.default_rng(503)
        makers = [
            lambda: cir.x(int(rng.integers(3))),
            lambda: cir.h(int(rng.integers(3))),
            lambda: cir.cnot(0, 1 + int(rng.integers(2))),
            lambda: cir.rz(int(rng.integers(3)), float(rng.normal())),
            lambda: cir.rx(int(rng.integers(3)), float(rng.normal())),
            lambda: cir.mcrz((0, 1), 2, float(rng.normal())),
        ]
        for _ in range(100):
            kinds = rng.integers(len(makers), size=int(rng.integers(0, 40)))
            circ = Circuit(3, tuple(makers[k]() for k in kinds))
            new, ref = q.gate_counts(circ), _ref_gate_counts(circ)
            assert new == ref
            assert new.as_dict() == ref.as_dict()
            assert all(type(v) is int for v in new.as_dict().values())

    def test_naive_chain(self):
        _, _, naive = _naive_chain(16, 7, seed=504)
        for circ in (naive, q.decompose_all_mcrz(naive)):
            assert q.gate_counts(circ) == _ref_gate_counts(circ)


# --- shared rotation objects -----------------------------------------------------

class TestSharedRotations:
    @pytest.mark.parametrize("pushed", [False, True])
    def test_uniform_block_matches_reference(self, pushed):
        rng = np.random.default_rng(505)
        pool = [0.0, -0.0, 0.5, -0.5, 1.25, np.float64(-0.0), np.float64(0.5), 5e-324, -5e-324]
        for n in range(8):
            for _ in range(4):
                qubits = [int(v) for v in rng.permutation(n + 1 + int(rng.integers(2)))]
                controls, target = qubits[:n], qubits[n]
                angles = [pool[i] for i in rng.integers(len(pool), size=2**n)]
                new = synthesis._uniform_block(controls, target, angles, pushed)
                ref = _ref_uniform_block(controls, target, angles, pushed)
                assert new == ref
                assert _signed(new) == _signed(ref)
                rotations = [g for g in new if g.kind != "cnot"]
                distinct = {str(float(a)) for a in angles}
                assert len({id(g) for g in rotations}) == len(distinct)

    def test_mcrz_expansion_builds_two_rotations(self):
        gates = synthesis._mcrz_gates(cir.mcrz((0, 1, 2, 3, 4), 5, 0.75))
        assert len(gates) == 64
        assert len({id(g) for g in gates if g.kind == "rz"}) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_angle_raises_like_reference(self, bad):
        angles = [0.5, bad, 0.5, 0.25]
        expected = _raised(_ref_uniform_block, [0, 1], 2, angles, False)
        assert expected is not None
        assert _raised(synthesis._uniform_block, [0, 1], 2, angles, False) == expected

    def test_push_paulis_matches_reference(self):
        rng = np.random.default_rng(506)
        shared = [cir.rz(0, 0.0), cir.rz(0, -0.0), cir.rz(1, 0.5), cir.rz(1, -0.5)]
        for _ in range(300):
            gates = []
            for _ in range(int(rng.integers(0, 50))):
                u = rng.random()
                if u < 0.3:
                    gates.append(cir.x(int(rng.integers(3))))
                elif u < 0.6:
                    gates.append(shared[rng.integers(len(shared))])
                elif u < 0.7:
                    gates.append(cir.rz(int(rng.integers(3)), float(rng.choice([0.0, -0.0, 2.0]))))
                elif u < 0.85:
                    gates.append(cir.cnot(*[int(v) for v in rng.permutation(3)[:2]]))
                elif u < 0.93:
                    gates.append(cir.h(int(rng.integers(3))))
                else:
                    gates.append(cir.rx(int(rng.integers(3)), float(rng.normal())))
            circ = Circuit(3, tuple(gates))
            (new, new_report), (ref, ref_report) = q.push_paulis(circ), _ref_push_paulis(circ)
            assert new.gates == ref.gates and new_report == ref_report
            assert _signed(new) == _signed(ref)
            negated = {id(g) for g in new if g.kind == "rz"} - {id(g) for g in circ}
            assert len(negated) <= len({id(g) for g in circ if g.kind == "rz"})

    def test_push_paulis_shares_one_negation_per_input_gate(self):
        _, _, naive = _naive_chain(32, 7, seed=507)
        decomposed = q.decompose_all_mcrz(naive)
        pushed, report = q.push_paulis(decomposed)
        inputs = {id(g) for g in decomposed if g.kind == "rz"}
        fresh = {id(g) for g in pushed if g.kind == "rz"} - inputs
        assert "rz-negated: 0" not in report.rewrites
        assert 0 < len(fresh) <= len(inputs) <= 2 * q.gate_counts(naive).mcrz
        assert pushed.gates == _ref_push_paulis(decomposed)[0].gates


# --- the whole pipeline ------------------------------------------------------------

@pytest.mark.slow
def test_optimize_64x8_chain_matches_direct_builder():
    table, phis, naive = _naive_chain(64, 7, seed=508)
    direct, _ = q.build_regression_circuit(table, phis, "optimized")
    out, report = q.optimize_pipeline(naive)
    assert out.gates == direct.gates
    assert _signed(out) == _signed(direct)
    assert report.before == q.gate_counts(naive)
    assert report.after == q.gate_counts(direct)
