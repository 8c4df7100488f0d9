"""Differential tests: the rewrite passes on flat gate columns against the
Gate-object passes they replaced.

The ``_ref_*`` functions are the earlier implementations, copied verbatim
apart from their names: ``push_paulis``, ``push_hadamards``, ``fold_phases``
with its ``_fold_segment``, ``_parity_sweep`` and ``_cancel_cnot_pairs``,
``optimize_pipeline``, and ``decompose_all_mcrz`` with the ``_mcrz_gates``
and ``_uniform_block`` that recomputed the Gray walk per node.  They read
``Gate`` attributes gate by gate and validate every output gate again
through ``Circuit(...)``.  Every comparison is ``==`` on gates, widths and
pass reports, and angles are also compared by ``str`` so a flipped sign of
zero shows up.
"""
import math
from array import array

import numpy as np
import pytest

import qregress as q
from qregress import circuit as cir
from qregress.circuit import GATE_KINDS, Circuit, Gate, gate_counts
from qregress.errors import CapacityError
from qregress.passes import FOLDABLE_KINDS, PassReport, _report
from qregress.synthesis import _DECOMPOSE_LIMIT, gray_sequence


# --- references: the Gate-object passes -----------------------------------------

def _ref_uniform_block(controls, target: int, angles_by_mask, pushed: bool) -> list[Gate]:
    controls = list(controls)
    rot = cir.rx if pushed else cir.rz
    if not controls:
        return [rot(target, float(angles_by_mask[0]))]
    # one shared CNOT per control and one rotation per distinct angle: a
    # cycle repeats each many times (an mcrz expansion has only two angles)
    flips = [cir.cnot(target, c) if pushed else cir.cnot(c, target) for c in controls]
    rots: dict = {}
    gates: list[Gate] = []
    for k, bit in enumerate(gray_sequence(len(controls))):
        angle = float(angles_by_mask[k ^ (k >> 1)])
        key = angle if angle else str(angle)  # 0.0 == -0.0, "0.0" != "-0.0"
        g = rots.get(key)
        if g is None:
            g = rots[key] = rot(target, angle)
        gates.append(g)
        gates.append(flips[bit])
    return gates


def _ref_mcrz_gates(gate: Gate) -> list[Gate]:
    """Gray-cycle expansion of one mcrz gate, unvalidated."""
    controls = gate.controls
    n = len(controls)
    if n > _DECOMPOSE_LIMIT:
        raise CapacityError(f"decompose_mcrz supports up to {_DECOMPOSE_LIMIT} controls")
    base = gate.angle / 2**n
    angles = [-base if y.bit_count() & 1 else base for y in range(2**n)]
    return _ref_uniform_block(controls, gate.target, angles, pushed=False)


def _ref_decompose_all_mcrz(circ: Circuit) -> Circuit:
    """Replace every mcrz node in ``circ`` by its elementary expansion."""
    gates: list[Gate] = []
    for g in circ:
        if g.kind == "mcrz":
            gates.extend(_ref_mcrz_gates(g))
        else:
            gates.append(g)
    return Circuit(circ.width, tuple(gates))


def _ref_push_paulis(circ: Circuit) -> tuple[Circuit, PassReport]:
    pending = [False] * circ.width
    out: list[Gate] = []
    negations: dict[int, Gate] = {}  # by id: rz(q, 0.0) == rz(q, -0.0)
    absorbed = negated = flushed = 0
    for g in circ:
        k = g.kind
        if k == "x":
            pending[g.qubit] ^= True
            absorbed += 1
        elif k == "rz":
            if pending[g.qubit]:
                neg = negations.get(id(g))
                if neg is None:
                    neg = negations[id(g)] = cir.rz(g.qubit, -g.angle)
                out.append(neg)
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


def _ref_push_hadamards(circ: Circuit) -> tuple[Circuit, PassReport]:
    pending = [False] * circ.width
    out: list[Gate] = []
    cancelled = exchanged = flipped = flushed = 0

    def flush(qubits) -> None:
        nonlocal flushed
        for q in qubits:
            if pending[q]:
                out.append(cir.h(q))
                pending[q] = False
                flushed += 1

    for g in circ:
        k = g.kind
        if k == "h":
            cancelled += pending[g.qubit]
            pending[g.qubit] ^= True
        elif k == "rz":
            if pending[g.qubit]:
                out.append(cir.rx(g.qubit, g.angle))
                exchanged += 1
            else:
                out.append(g)
        elif k == "rx":
            if pending[g.qubit]:
                out.append(cir.rz(g.qubit, g.angle))
                exchanged += 1
            else:
                out.append(g)
        elif k == "cnot":
            if pending[g.control] and pending[g.target]:
                out.append(cir.cnot(g.target, g.control))
                flipped += 1
            else:
                flush(g.qubits)
                out.append(g)
        else:  # x or mcrz: no push rule
            flush(g.qubits)
            out.append(g)
    tail = [cir.h(q) for q in range(circ.width) if pending[q]]
    out += tail
    result = Circuit(circ.width, tuple(out))
    rewrites = [
        f"h-cancelled-pairs: {cancelled}",
        f"rz-rx-exchanged: {exchanged}",
        f"cnot-flipped: {flipped}",
        f"h-flushed: {flushed}",
        f"h-trailing: {len(tail)}",
    ]
    return result, _report(circ, result, rewrites)


def _ref_parity_sweep(gates, masks: list[int], bits: list[int]):
    for g in gates:
        q = g.qubits[-1]
        if g.kind == "x":
            bits[q] ^= 1
        elif g.kind == "cnot":
            masks[q] ^= masks[g.control]
            bits[q] ^= bits[g.control]
        elif g.kind != "rz":
            raise ValueError(f"unsupported gate kind {g.kind!r} for phase analysis")
        yield g, masks[q], bits[q]


def _ref_commutes_with_cnot(control: int, target: int, g: Gate) -> bool:
    kind, qubits = g.kind, g.qubits
    if kind == "cnot":
        return qubits[1] != control and qubits[0] != target
    if kind == "rz":
        return qubits[0] != target
    if kind == "x":
        return qubits[0] != control
    return False


def _ref_cancel_cnot_pairs(gates: list[Gate]) -> tuple[list[Gate], int]:
    n = len(gates)
    nxt = array("l", range(1, n + 2))
    prv = array("l", range(-1, n))
    nxt[n], prv[0] = 0, n
    removed = 0
    changed = True
    while changed:
        changed = False
        i = nxt[n]
        while i != n:
            g = gates[i]
            if g.kind == "cnot":
                control, target = g.qubits
                j = nxt[i]
                while j != n:
                    other = gates[j]
                    if other.kind == "cnot" and other.qubits == g.qubits:
                        for k in (j, i):
                            nxt[prv[k]], prv[nxt[k]] = nxt[k], prv[k]
                        removed += 2
                        changed = True
                        break
                    if not _ref_commutes_with_cnot(control, target, other):
                        break
                    j = nxt[j]
            i = nxt[i]  # still i's successor when i was just unlinked
    alive = []
    i = nxt[n]
    while i != n:
        alive.append(gates[i])
        i = nxt[i]
    return alive, removed


def _ref_fold_segment(segment: list[Gate], width: int) -> tuple[list[Gate], int, int, int]:
    out: list[Gate] = []
    first: dict[int, tuple[int, int]] = {}
    merged = dropped = 0
    for g, y, b in _ref_parity_sweep(segment, [1 << q for q in range(width)], [0] * width):
        if g.kind != "rz":
            out.append(g)
        elif y == 0:
            dropped += 1
        elif y in first:
            pos, b0 = first[y]
            host = out[pos]
            delta = -g.angle if b != b0 else g.angle
            out[pos] = host.shifted(host.angle + delta)
            merged += 1
        else:
            first[y] = (len(out), b)
            out.append(g)
    out, cancelled = _ref_cancel_cnot_pairs(out)
    return out, merged, dropped, cancelled


def _ref_fold_phases(circ: Circuit) -> tuple[Circuit, PassReport]:
    out: list[Gate] = []
    segment: list[Gate] = []
    merged = dropped = cancelled = 0

    def close_segment() -> None:
        nonlocal merged, dropped, cancelled
        if not segment:
            return
        folded, m, d, c = _ref_fold_segment(segment, circ.width)
        merged += m
        dropped += d
        cancelled += c
        out.extend(folded)
        segment.clear()

    for g in circ:
        if g.kind in FOLDABLE_KINDS:
            segment.append(g)
        else:
            close_segment()
            out.append(g)
    close_segment()
    result = Circuit(circ.width, tuple(out))
    rewrites = [
        f"rz-merged: {merged}",
        f"rz-global-dropped: {dropped}",
        f"cnot-cancelled: {cancelled}",
    ]
    return result, _report(circ, result, rewrites)


def _ref_optimize_pipeline(circ: Circuit) -> tuple[Circuit, PassReport]:
    before = circ
    staged = _ref_decompose_all_mcrz(circ)
    rewrites = [f"mcrz-decomposed: {gate_counts(circ).mcrz}"]
    staged, rep = _ref_push_paulis(staged)
    rewrites += [f"pauli/{r}" for r in rep.rewrites]
    staged, rep = _ref_fold_phases(staged)
    rewrites += [f"fold/{r}" for r in rep.rewrites]
    staged, rep = _ref_push_hadamards(staged)
    rewrites += [f"hadamard/{r}" for r in rep.rewrites]
    return staged, _report(before, staged, rewrites)


_REF_ARITY = {"x": 1, "h": 1, "rz": 1, "rx": 1, "cnot": 2, "mcrz": None}


def _ref_validate_gate(gate: Gate, width: int) -> None:
    kind, qubits = gate.kind, gate.qubits
    if kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    arity = _REF_ARITY[kind]
    if arity is None:
        if len(qubits) < 1:
            raise ValueError("mcrz needs a target qubit")
    elif len(qubits) != arity:
        raise ValueError(f"{kind} takes {arity} qubit(s)")
    for q in qubits:
        if not 0 <= q < width:
            raise ValueError(f"qubit {q} out of range for width {width}")
    if arity == 2 and qubits[0] == qubits[1]:
        raise ValueError("cnot control and target must differ")
    if arity is None:
        ctrls = qubits[:-1]
        if len(set(ctrls)) != len(ctrls) or qubits[-1] in ctrls:
            raise ValueError("mcrz controls must be distinct and exclude the target")
    if not math.isfinite(gate.angle):
        raise ValueError("gate angle must be finite")


# --- helpers -------------------------------------------------------------------

_ANGLES = [0.0, -0.0, 0.5, -0.5, 1.25, 3.0, 5e-324, -5e-324, 1e300, -1e300]


def _signed(gates):
    return [(g.kind, g.qubits, str(g.angle)) for g in gates]


def _sharing(gates):
    """Position of each gate's first occurrence as the same object."""
    first = {}
    return [first.setdefault(id(g), i) for i, g in enumerate(gates)]


def _random_gates(width, n_gates, rng, kinds, shared):
    """Random gates of ``kinds``, often repeating an object from ``shared``
    so that per-object sharing (one negation per input RZ) is exercised."""
    gates = []
    for _ in range(n_gates):
        if shared and rng.random() < 0.3:
            gates.append(shared[rng.integers(len(shared))])
            continue
        kind = kinds[rng.integers(len(kinds))]
        qubits = [int(v) for v in rng.permutation(width)]
        angle = float(rng.choice(_ANGLES)) if rng.random() < 0.5 else float(rng.normal())
        if kind in ("cnot", "mcrz") and width < 2:
            kind = "x"
        if kind == "x":
            gates.append(cir.x(qubits[0]))
        elif kind == "h":
            gates.append(cir.h(qubits[0]))
        elif kind == "rz":
            gates.append(cir.rz(qubits[0], angle))
        elif kind == "rx":
            gates.append(cir.rx(qubits[0], angle))
        elif kind == "cnot":
            gates.append(cir.cnot(qubits[0], qubits[1]))
        else:
            n = int(rng.integers(0, min(width, 5)))
            gates.append(cir.mcrz(qubits[1 : n + 1], qubits[0], angle))
    return gates


def _random_circuits(seed, kinds, count=300, max_width=5, max_gates=60):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        width = int(rng.integers(1, max_width + 1))
        shared = _random_gates(width, 4, rng, kinds, [])
        yield Circuit(width, tuple(_random_gates(width, int(rng.integers(0, max_gates)), rng, kinds, shared)))


def _naive_chain(rows, features, seed):
    rng = np.random.default_rng(seed)
    table = q.DataTable(rng.normal(size=(rows, features + 1))).normalized()
    phis = rng.uniform(-np.pi, np.pi, features + 1)
    return q.build_regression_circuit(table, phis, "naive")[0]


def _same(new, ref):
    (circ, report), (ref_circ, ref_report) = new, ref
    assert circ.width == ref_circ.width
    assert circ.gates == ref_circ.gates
    assert _signed(circ) == _signed(ref_circ)
    assert report == ref_report


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the reference's error, whatever its type
        return type(exc), str(exc)
    return None


# --- each pass against its reference -------------------------------------------------

def test_push_paulis_matches_reference():
    for circ in _random_circuits(601, ["x", "x", "rz", "cnot", "h", "rx"]):
        _same(q.push_paulis(circ), _ref_push_paulis(circ))


def test_push_hadamards_matches_reference():
    for circ in _random_circuits(602, ["h", "h", "rz", "rx", "cnot", "x", "mcrz"]):
        _same(q.push_hadamards(circ), _ref_push_hadamards(circ))


def test_fold_phases_matches_reference():
    kinds = ["x", "cnot", "cnot", "rz", "rz", "h", "rx", "mcrz"]
    for circ in _random_circuits(603, kinds, max_gates=80):
        _same(q.fold_phases(circ), _ref_fold_phases(circ))


def test_fold_phases_on_cnot_rich_runs_matches_reference():
    # few wires and few kinds, so parities repeat and many CNOT pairs meet
    for circ in _random_circuits(604, ["cnot", "cnot", "cnot", "rz", "rz", "x"], max_width=3):
        _same(q.fold_phases(circ), _ref_fold_phases(circ))


def test_decompose_all_mcrz_matches_reference():
    for circ in _random_circuits(605, ["mcrz", "mcrz", "x", "h", "cnot", "rz"], max_width=7):
        new, ref = q.decompose_all_mcrz(circ), _ref_decompose_all_mcrz(circ)
        assert new.width == ref.width and new.gates == ref.gates
        assert _signed(new) == _signed(ref)
        assert _sharing(new) == _sharing(ref)


def test_optimize_pipeline_matches_reference_on_random_circuits():
    kinds = ["mcrz", "x", "x", "h", "cnot", "rz", "rx"]
    for circ in _random_circuits(606, kinds, count=200):
        _same(q.optimize_pipeline(circ), _ref_optimize_pipeline(circ))


@pytest.mark.parametrize("rows, features", [(4, 1), (16, 7), (32, 7)])
def test_optimize_pipeline_matches_reference_on_naive_chains(rows, features):
    naive = _naive_chain(rows, features, seed=607 + rows)
    _same(q.optimize_pipeline(naive), _ref_optimize_pipeline(naive))


def test_each_stage_of_the_32x8_chain_matches_reference():
    staged = _ref_decompose_all_mcrz(_naive_chain(32, 7, seed=608))
    assert q.decompose_all_mcrz(_naive_chain(32, 7, seed=608)).gates == staged.gates
    for new_pass, ref_pass in [
        (q.push_paulis, _ref_push_paulis),
        (q.fold_phases, _ref_fold_phases),
        (q.push_hadamards, _ref_push_hadamards),
    ]:
        ref = ref_pass(staged)
        _same(new_pass(staged), ref)
        staged = ref[0]


# --- errors ------------------------------------------------------------------------

@pytest.mark.parametrize(
    "gates, run",
    [
        # mcrz reaches push_paulis undecomposed
        ((cir.x(0), cir.mcrz((0,), 1, 0.5)), "push_paulis"),
        ((cir.mcrz((1,), 0, 0.5), cir.x(0)), "push_paulis"),
        # same-parity rotations whose sum overflows to inf
        ((cir.rz(0, 1e308), cir.cnot(1, 0), cir.cnot(1, 0), cir.rz(0, 1e308)), "fold_phases"),
        ((cir.x(0), cir.rz(0, -1e308), cir.x(0), cir.rz(0, 1e308)), "fold_phases"),
        ((cir.mcrz(tuple(range(1, 14)), 0, 0.5),), "decompose_all_mcrz"),
        ((cir.mcrz(tuple(range(1, 14)), 0, 0.5),), "optimize_pipeline"),
        ((cir.h(0), cir.rz(0, 1e308), cir.rz(0, 1e308)), "optimize_pipeline"),
    ],
)
def test_errors_match_reference(gates, run):
    circ = Circuit(14, gates)
    expected = _raised(globals()[f"_ref_{run}"], circ)
    assert expected is not None
    assert _raised(getattr(q, run), circ) == expected


# --- validation happens once -------------------------------------------------------

def test_pipeline_validates_only_the_decomposed_gates(monkeypatch):
    naive = _naive_chain(8, 3, seed=609)
    decomposed = q.decompose_all_mcrz(naive)
    calls = []
    validate = cir._validate_gate
    monkeypatch.setattr(cir, "_validate_gate", lambda g, w: calls.append(g) or validate(g, w))
    q.optimize_pipeline(naive)
    assert calls == list(decomposed.gates)
    calls.clear()
    staged = decomposed
    for run in (q.push_paulis, q.fold_phases, q.push_hadamards):
        staged, _ = run(staged)
    assert calls == []


# --- the validator --------------------------------------------------------------

_GATES = [
    Gate("t", (0,)), Gate(["cnot"], (0, 1)), Gate(5, (0,)), Gate(None, ()),
    Gate("x", ()), Gate("h", (0, 1)), Gate("rz", (), math.nan), Gate("rx", (0, 1, 2), math.inf),
    Gate("cnot", ()), Gate("cnot", (0,)), Gate("cnot", (0, 1, 2)), Gate("cnot", (1, 1)),
    Gate("cnot", (0, 3)), Gate("cnot", (3, 0)), Gate("cnot", (-1, -1)), Gate("cnot", (3, 3), math.nan),
    Gate("cnot", (0, 2), math.inf), Gate("x", (-1,)), Gate("h", (3,), math.nan), Gate("h", (2,), math.nan),
    Gate("rz", (2,), -math.inf), Gate("mcrz", (), 0.5), Gate("mcrz", (5,), 0.5), Gate("mcrz", (0, 1, 1), 0.5),
    Gate("mcrz", (1, 1, 0), 0.5), Gate("mcrz", (0, 4, 1), math.nan), Gate("mcrz", (0, 1, 2), math.nan),
    cir.x(0), cir.h(2), cir.rz(1, -0.0), cir.rx(0, 1e308), cir.cnot(2, 0), cir.mcrz((), 1, 0.5),
    cir.mcrz((0, 2), 1, -1.0), Gate("mcrz", (2,), 0.0), Gate("x", (1,), 0.25),
]


@pytest.mark.parametrize("gate", _GATES, ids=repr)
def test_validate_gate_matches_reference(gate):
    assert _raised(cir._validate_gate, gate, 3) == _raised(_ref_validate_gate, gate, 3)


# --- the columns a pass leaves on its output ---------------------------------------

def test_columns_left_on_outputs_are_those_of_their_gates():
    kinds = ["mcrz", "x", "x", "h", "cnot", "rz", "rx"]
    wide = [Circuit(300, (cir.x(299), cir.mcrz((0, 299), 7, 0.5), cir.cnot(298, 1), cir.x(298)))]
    for circ in [*_random_circuits(610, kinds, count=200), *wide]:
        staged = q.decompose_all_mcrz(circ)
        outputs = [staged]
        for run in (q.push_paulis, q.fold_phases, q.push_hadamards):
            staged = run(staged)[0]
            outputs.append(staged)
        for out in outputs:
            if out._columns is not None:
                assert out._columns == cir._read_columns(out.gates)
            assert cir._gate_columns(out) == cir._read_columns(out.gates)
    assert isinstance(q.decompose_all_mcrz(wide[0])._columns[1], list)  # a qubit >= 256


def test_pipeline_reads_the_columns_of_few_gates(monkeypatch):
    naive = _naive_chain(32, 7, seed=611)
    read = []
    read_columns = cir._read_columns
    monkeypatch.setattr(cir, "_read_columns", lambda gates: read.append(len(gates)) or read_columns(gates))
    out, _ = q.optimize_pipeline(naive)
    # the plain gates of the naive chain, one expansion per distinct set of
    # wires and the folded circuit: not the 131k gates between the passes
    assert sum(read) < len(naive) + 2 * 512 + len(out) + 100
