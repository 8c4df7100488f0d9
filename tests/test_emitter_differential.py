"""Differential tests: the one Gray-cycle emitter and the one parity sweep
against the separate emitters and sweeps they replaced.

The ``_ref_*`` functions are the earlier implementations, copied verbatim
apart from their names.  Every comparison is ``==`` on gate tuples, phase
polynomials, fold counters and pass reports, so the current code must
reproduce them bit for bit.
"""
import math

import numpy as np
import pytest

import qregress as q
from qregress import circuit as cir
from qregress import passes, synthesis
from qregress.circuit import Circuit, Gate
from qregress.errors import CapacityError
from qregress.passes import _ZERO_COEFF, PhasePolynomial, _cancel_cnot_pairs, _grouped_masks
from qregress.synthesis import _DECOMPOSE_LIMIT, _cascade_levels, gray_sequence, walsh_angles


# --- references: the earlier emitters and sweeps -------------------------------

def _ref_gray_codes(n: int) -> list[int]:
    return [i ^ (i >> 1) for i in range(2**n)]


def _ref_uniform_block(controls, target: int, angles_by_mask, pushed: bool) -> list[Gate]:
    controls = list(controls)
    n = len(controls)
    rot = cir.rx if pushed else cir.rz
    if n == 0:
        return [rot(target, float(angles_by_mask[0]))]
    seq = gray_sequence(n)
    codes = _ref_gray_codes(n)
    gates: list[Gate] = []
    for k in range(2**n):
        gates.append(rot(target, float(angles_by_mask[codes[k]])))
        c = controls[seq[k]]
        gates.append(cir.cnot(target, c) if pushed else cir.cnot(c, target))
    return gates


def _ref_decompose_mcrz(gate: Gate) -> Circuit:
    if gate.kind != "mcrz":
        raise ValueError("decompose_mcrz takes an mcrz gate")
    controls = gate.controls
    n = len(controls)
    if n > _DECOMPOSE_LIMIT:
        raise CapacityError(f"decompose_mcrz supports up to {_DECOMPOSE_LIMIT} controls")
    width = max(gate.qubits) + 1
    if n == 0:
        return Circuit(width, (cir.rz(gate.target, gate.angle),))
    base = gate.angle / 2**n
    seq = gray_sequence(n)
    codes = _ref_gray_codes(n)
    gates = []
    for k in range(2**n):
        angle = -base if codes[k].bit_count() & 1 else base
        gates.append(cir.rz(gate.target, angle))
        gates.append(cir.cnot(controls[seq[k]], gate.target))
    return Circuit(width, tuple(gates))


def _ref_resynthesize(poly: PhasePolynomial, width: int) -> Circuit:
    if not poly.affine_is_identity:
        raise ValueError("resynthesize requires an identity affine part")
    if any(y >> width for y in poly.terms):
        raise ValueError("parity mask exceeds the requested width")

    gates: list[Gate] = []
    for host, masks in _grouped_masks(poly.terms).items():
        union = 0
        for y in masks:
            union |= y & ~(1 << host)
        controls = [q for q in range(width) if (union >> q) & 1]
        n = len(controls)
        if n == 0:
            gates.append(cir.rz(host, poly.terms[1 << host]))
            continue
        seq = gray_sequence(n)
        parity = 0
        for k in range(2**n):
            mask = (1 << host) | parity
            coeff = poly.terms.get(mask, 0.0)
            if abs(coeff) > _ZERO_COEFF:
                gates.append(cir.rz(host, coeff))
            gates.append(cir.cnot(controls[seq[k]], host))
            parity ^= 1 << controls[seq[k]]
    return Circuit(width, tuple(gates))


def _ref_synthesize_reference_real_state(x) -> Circuit:
    v = np.asarray(x, dtype=float).ravel()
    n_amp = v.size
    if n_amp < 2 or n_amp & (n_amp - 1):
        raise ValueError("amplitude count must be a power of two >= 2")
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
        raise ValueError("input must have unit norm")
    p = n_amp.bit_length() - 1
    stages = _cascade_levels(v)
    gates: list[Gate] = []
    half_pi = math.pi / 2.0
    for c, thetas in enumerate(stages):
        target = p - 1 - c
        controls = list(range(p - c, p))
        if not controls:
            gates += [
                cir.rz(target, -half_pi),
                cir.rx(target, float(thetas[0])),
                cir.rz(target, half_pi),
            ]
            continue
        seq = gray_sequence(c)
        codes = _ref_gray_codes(c)
        w = walsh_angles(thetas)
        for k in range(2**c):
            gates += [
                cir.rz(target, -half_pi),
                cir.rx(target, float(w[codes[k]])),
                cir.rz(target, half_pi),
            ]
            gates.append(cir.cnot(controls[seq[k]], target))
    return Circuit(p, tuple(gates))


def _ref_annotate(circ: Circuit, keep_zeros: bool):
    masks = [1 << q for q in range(circ.width)]
    bits = [0] * circ.width
    terms: dict[int, float] = {}
    order: list[int] = []
    dropped = 0
    for g in circ:
        if g.kind == "x":
            bits[g.qubit] ^= 1
        elif g.kind == "cnot":
            masks[g.target] ^= masks[g.control]
            bits[g.target] ^= bits[g.control]
        elif g.kind == "rz":
            y = masks[g.qubit]
            if y == 0:
                dropped += 1  # contributes only a global phase
                continue
            signed = -g.angle if bits[g.qubit] else g.angle
            if y in terms:
                terms[y] += signed
            else:
                terms[y] = signed
                order.append(y)
        else:
            raise ValueError(f"unsupported gate kind {g.kind!r} for phase analysis")
    if not keep_zeros:
        for y in [y for y, a in terms.items() if abs(a) <= _ZERO_COEFF]:
            del terms[y]
        order = [y for y in order if y in terms]
    b = 0
    for q, bit in enumerate(bits):
        b |= bit << q
    return terms, order, tuple(masks), b, dropped


def _ref_extract_phase_polynomial(circ: Circuit) -> PhasePolynomial:
    terms, _, a_rows, b, _ = _ref_annotate(circ, keep_zeros=False)
    return PhasePolynomial(circ.width, terms, a_rows, b)


def _ref_fold_segment(segment: list[Gate], width: int) -> tuple[list[Gate], int, int, int]:
    masks = [1 << q for q in range(width)]
    bits = [0] * width
    out: list[Gate] = []
    first: dict[int, tuple[int, int]] = {}
    merged = dropped = 0
    for g in segment:
        if g.kind == "x":
            bits[g.qubit] ^= 1
            out.append(g)
        elif g.kind == "cnot":
            masks[g.target] ^= masks[g.control]
            bits[g.target] ^= bits[g.control]
            out.append(g)
        else:  # rz
            y = masks[g.qubit]
            b = bits[g.qubit]
            if y == 0:
                dropped += 1
                continue
            if y in first:
                pos, b0 = first[y]
                host = out[pos]
                delta = -g.angle if b != b0 else g.angle
                out[pos] = host.shifted(host.angle + delta)
                merged += 1
            else:
                first[y] = (len(out), b)
                out.append(g)
    out, cancelled = _cancel_cnot_pairs(out)
    return out, merged, dropped, cancelled


# --- generators ----------------------------------------------------------------

def _angles(rng, size):
    """Uniform angles with exact zeros, negative zeros and exact repeats mixed in."""
    a = rng.uniform(-np.pi, np.pi, size=size)
    pick = rng.random(size)
    a[pick < 0.15] = 0.0
    a[(pick >= 0.15) & (pick < 0.2)] = -0.0
    a[(pick >= 0.2) & (pick < 0.3)] = 0.5
    return a


def _phase_segment(width, n_gates, rng):
    """Random {x, cnot, rz} run; rotations repeat a few angles so merges cancel."""
    pool = [0.25, -0.25, 0.7, 1e-13, 0.0]
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(3) if width >= 2 else 2 * rng.integers(2)
        if kind == 0:
            gates.append(cir.x(int(rng.integers(width))))
        elif kind == 1:
            c, t = rng.choice(width, size=2, replace=False)
            gates.append(cir.cnot(int(c), int(t)))
        else:
            angle = pool[rng.integers(len(pool))] if rng.random() < 0.5 else rng.uniform(-3, 3)
            gates.append(cir.rz(int(rng.integers(width)), float(angle)))
    return gates


def _random_poly(width, rng):
    """Identity-affine polynomial with exact zeros and sub-threshold terms."""
    terms = {}
    for y in rng.choice(np.arange(1, 2**width), size=rng.integers(1, 2**width), replace=False):
        u = rng.random()
        if u < 0.2:
            terms[int(y)] = 0.0
        elif u < 0.3:
            terms[int(y)] = float(rng.choice([1e-13, -5e-13, 1e-12, -1e-12]))
        else:
            terms[int(y)] = float(rng.uniform(-3, 3))
    return PhasePolynomial(width, terms, tuple(1 << q for q in range(width)), 0)


def _naive_chain(rows, features, seed):
    rng = np.random.default_rng(seed)
    table = q.DataTable(rng.normal(size=(rows, features + 1))).normalized()
    phis = rng.uniform(-1, 1, features + 1)
    naive, _ = q.build_regression_circuit(table, phis, "naive")
    return naive


# --- the emitter ---------------------------------------------------------------

class TestOneEmitter:
    @pytest.mark.parametrize("pushed", [False, True])
    def test_uniform_block_matches_reference(self, pushed):
        rng = np.random.default_rng(301)
        for n in range(9):
            for _ in range(3):
                qubits = [int(v) for v in rng.permutation(n + 1 + int(rng.integers(3)))]
                controls, target = qubits[:n], qubits[n]
                angles = _angles(rng, 2**n)
                new = synthesis._uniform_block(controls, target, angles, pushed)
                assert tuple(new) == tuple(_ref_uniform_block(controls, target, angles, pushed))

    def test_builders_match_reference_emitter(self, monkeypatch):
        rng = np.random.default_rng(302)
        cases = []
        for rows, feats in [(1, 1), (2, 1), (4, 1), (8, 3), (16, 7), (5, 2)]:
            table = q.DataTable(rng.normal(size=(rows, feats + 1))).normalized()
            cases.append((table, rng.uniform(-1, 1, feats + 1)))
        vectors = [rng.normal(size=k) for k in (1, 2, 3, 8, 17, 64)]
        uniform = []
        for n in range(6):
            qubits = [int(v) for v in rng.permutation(n + 1)]
            uniform.append((qubits[:n], qubits[n], _angles(rng, 2**n)))

        def build_all():
            out = []
            for table, phis in cases:
                for mode in ("optimized", "naive"):
                    out.append(q.build_regression_circuit(table, phis, mode)[0].gates)
            for v in vectors:
                out.append(q.build_state_prep(v)[0].gates)
            for controls, target, alphas in uniform:
                out.append(q.synthesize_uniform_z(controls, target, alphas).gates)
            return out

        new = build_all()
        monkeypatch.setattr(synthesis, "_uniform_block", _ref_uniform_block)
        assert new == build_all()

    def test_decompose_mcrz_matches_reference(self):
        rng = np.random.default_rng(303)
        for n in range(9):
            for angle in [0.0, -0.0, 1.0, -2.5, float(rng.uniform(-7, 7)), 1e-300]:
                qubits = [int(v) for v in rng.permutation(n + 1 + int(rng.integers(2)))]
                gate = cir.mcrz(qubits[:n], qubits[n], angle)
                new, ref = q.decompose_mcrz(gate), _ref_decompose_mcrz(gate)
                assert new.width == ref.width and new.gates == ref.gates

    def test_resynthesize_matches_reference(self):
        rng = np.random.default_rng(304)
        for _ in range(300):
            width = int(rng.integers(1, 7))
            poly = _random_poly(width, rng)
            assert q.resynthesize(poly, width).gates == _ref_resynthesize(poly, width).gates

    def test_resynthesize_zero_and_tiny_coefficients(self):
        ident = (1, 2, 4)
        polys = [
            PhasePolynomial(3, {4: 0.0}, ident, 0),  # zero single-term host: kept
            PhasePolynomial(3, {2: 1e-13}, ident, 0),
            PhasePolynomial(3, {4: 0.0, 5: 0.3, 7: 1e-13, 6: -1e-12}, ident, 0),
            PhasePolynomial(3, {3: 0.0, 6: -0.0, 1: 0.0}, ident, 0),
        ]
        for poly in polys:
            assert q.resynthesize(poly, 3).gates == _ref_resynthesize(poly, 3).gates
        assert q.resynthesize(polys[0], 3).gates == (cir.rz(2, 0.0),)

    def test_cascade_matches_reference(self):
        rng = np.random.default_rng(305)
        vectors = [np.array([1.0, -0.0]), np.array([0.0, -1.0]), np.array([-0.0, 1.0, 0.0, -0.0])]
        for p in range(1, 9):
            for _ in range(5):
                v = rng.normal(size=2**p)
                v[rng.random(2**p) < 0.2] = 0.0
                if not v.any():
                    v[0] = 1.0
                vectors.append(v / np.linalg.norm(v))
        for v in vectors:
            new, ref = q.synthesize_reference_real_state(v), _ref_synthesize_reference_real_state(v)
            assert new.width == ref.width and new.gates == ref.gates
            assert [str(g.angle) for g in new] == [str(g.angle) for g in ref]


# --- the sweep -----------------------------------------------------------------

class TestOneSweep:
    def test_extraction_matches_reference(self):
        rng = np.random.default_rng(306)
        for _ in range(300):
            width = int(rng.integers(1, 7))
            circ = Circuit(width, tuple(_phase_segment(width, int(rng.integers(0, 40)), rng)))
            assert q.extract_phase_polynomial(circ) == _ref_extract_phase_polynomial(circ)

    def test_fold_segment_matches_reference(self):
        rng = np.random.default_rng(307)
        for _ in range(300):
            width = int(rng.integers(1, 7))
            segment = _phase_segment(width, int(rng.integers(1, 60)), rng)
            assert passes._fold_segment(segment, width) == _ref_fold_segment(segment, width)

    @pytest.mark.parametrize("rows, features", [(4, 1), (32, 7)])
    def test_decomposed_naive_chains_match_reference(self, rows, features, monkeypatch):
        naive = _naive_chain(rows, features, seed=308 + rows)
        decomposed = q.decompose_all_mcrz(naive)
        new = [q.fold_phases(decomposed), q.optimize_pipeline(naive)]
        monkeypatch.setattr(passes, "_fold_segment", _ref_fold_segment)
        monkeypatch.setattr(synthesis, "decompose_mcrz", _ref_decompose_mcrz)
        assert q.decompose_all_mcrz(naive).gates == decomposed.gates
        ref = [q.fold_phases(decomposed), q.optimize_pipeline(naive)]
        for (circ, report), (ref_circ, ref_report) in zip(new, ref):
            assert circ.gates == ref_circ.gates
            assert report == ref_report
