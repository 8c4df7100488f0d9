"""Differential tests: the vectorised compile-and-evaluate kernels against
the interpreted code they replaced.

``_ref_walsh_angles`` and ``_ref_apply_cnot`` are the earlier
implementations, copied verbatim apart from their names.  Every comparison
is exact: ``.view(np.int64)`` on floats, so a reordered sum or a flipped
sign of zero shows up as a changed bit, and ``np.array_equal`` on states.
"""
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qregress as q
from qregress import circuit as cir
from qregress import synthesis
from qregress.circuit import Gate, _apply_cnot, circuit_to_json
from qregress.cli import main
from qregress.synthesis import _uniform_block, walsh_angles


# --- references: the earlier kernels -----------------------------------------

def _ref_walsh_angles(alphas) -> np.ndarray:
    a = np.asarray(alphas, dtype=float)
    n_sel = a.shape[0]
    if n_sel == 0 or n_sel & (n_sel - 1):
        raise ValueError("alphas length must be a power of two")
    out = np.empty(n_sel, dtype=float)
    for y in range(n_sel):
        acc = 0.0
        for j in range(n_sel):
            term = a[j]
            acc += -term if (y & j).bit_count() & 1 else term
        out[y] = acc / n_sel
    return out


def _ref_apply_cnot(state: np.ndarray, control: int, target: int, width: int) -> np.ndarray:
    idx = np.arange(2**width)
    src = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return state[src]


def _bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


# --- walsh_angles ------------------------------------------------------------

class TestWalshAngles:
    @pytest.mark.parametrize("log_n", range(13))
    def test_bitwise_equal_every_power_of_two(self, log_n):
        rng = np.random.default_rng(1000 + log_n)
        alphas = rng.normal(size=2**log_n)
        assert np.array_equal(_bits(walsh_angles(alphas)), _bits(_ref_walsh_angles(alphas)))

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 512])
    def test_signed_zeros(self, n):
        rng = np.random.default_rng(n)
        mixed = rng.normal(size=n)
        mixed[::3] = -0.0
        mixed[1::5] = 0.0
        for alphas in (mixed, -np.zeros(n), np.zeros(n)):
            out = walsh_angles(alphas)
            assert np.array_equal(_bits(out), _bits(_ref_walsh_angles(alphas)))
        assert not np.signbit(walsh_angles(-np.zeros(n))).any()

    @pytest.mark.parametrize("n", [2, 16, 256])
    def test_tiny_and_huge_magnitudes(self, n):
        rng = np.random.default_rng(7 * n)
        exponents = rng.integers(-320, 308, size=n)
        alphas = rng.choice([-1.0, 1.0], size=n) * rng.uniform(1.0, 1.8, size=n) * 10.0**exponents
        alphas[0] = 5e-324
        alphas[-1] = 1.7e308  # overflows to inf in some rows
        with np.errstate(over="ignore"):
            assert np.array_equal(_bits(walsh_angles(alphas)), _bits(_ref_walsh_angles(alphas)))

    def test_block_boundaries(self, monkeypatch):
        # a block smaller than a row and blocks of several rows reproduce
        # the one-block result
        rng = np.random.default_rng(3)
        alphas = rng.normal(size=64)
        ref = _bits(_ref_walsh_angles(alphas))
        for block in (1, 64, 128, 1024):
            monkeypatch.setattr(synthesis, "_WALSH_BLOCK", block)
            assert np.array_equal(_bits(walsh_angles(alphas)), ref)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 8).flatmap(
            lambda p: st.lists(
                st.floats(allow_nan=False, allow_infinity=False), min_size=2**p, max_size=2**p
            )
        )
    )
    def test_property_bitwise_equal(self, alphas):
        with np.errstate(over="ignore"):
            assert np.array_equal(_bits(walsh_angles(alphas)), _bits(_ref_walsh_angles(alphas)))


# --- _apply_cnot -------------------------------------------------------------

class TestApplyCnot:
    @pytest.mark.parametrize("width", range(2, 9))
    def test_matches_gather_every_pair(self, width):
        rng = np.random.default_rng(width)
        dim = 2**width
        states = (
            rng.normal(size=dim) + 1j * rng.normal(size=dim),
            rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3)),
            np.eye(dim, dtype=complex),
        )
        for state in states:
            for control in range(width):
                for target in range(width):
                    if control == target:
                        continue
                    got = _apply_cnot(state, control, target, width)
                    assert got.shape == state.shape
                    assert np.array_equal(got, _ref_apply_cnot(state, control, target, width))

    def test_returns_a_fresh_array(self):
        state = np.arange(8, dtype=complex)
        out = _apply_cnot(state, 2, 0, 3)
        out[:] = 0
        assert np.array_equal(state, np.arange(8))


# --- slotted Gate and shared CNOT objects --------------------------------------

class TestSlottedGate:
    def test_no_instance_dict(self):
        assert not hasattr(q.rz(0, 0.5), "__dict__")
        assert Gate.__slots__ == ("kind", "qubits", "angle")

    def test_assignment_is_frozen(self):
        g = q.cnot(0, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.angle = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.kind = "x"

    def test_equality_and_hash_by_fields(self):
        a, b = q.rz(1, 0.25), Gate("rz", (1,), 0.25)
        assert a == b and hash(a) == hash(b) == hash(("rz", (1,), 0.25))
        assert q.rz(1, 0.25) != q.rx(1, 0.25) != q.rx(1, 0.5)
        assert q.rz(0, -0.0) == q.rz(0, 0.0)
        assert len({q.cnot(0, 1), q.cnot(0, 1), q.cnot(1, 0)}) == 2

    @pytest.mark.parametrize("pushed", [False, True])
    def test_uniform_block_shares_one_cnot_per_control(self, pushed):
        controls = [0, 2, 3, 5]
        gates = _uniform_block(controls, 1, np.linspace(0.1, 1.6, 16), pushed)
        cnots = [g for g in gates if g.kind == "cnot"]
        assert len(cnots) == 16
        assert len({id(g) for g in cnots}) == len(controls)
        fresh = [cir.cnot(*g.qubits) for g in cnots]
        assert cnots == fresh


# --- decompose_all_mcrz validates once ------------------------------------------

def test_decompose_all_mcrz_validates_each_gate_once(monkeypatch):
    rng = np.random.default_rng(2)
    table = q.DataTable(rng.normal(size=(4, 4))).normalized()
    naive, _ = q.build_regression_circuit(table, rng.uniform(-1, 1, 4), "naive")
    expected = []
    for node in naive:
        expected += q.decompose_mcrz(node).gates if node.kind == "mcrz" else (node,)
    calls = []
    validate = cir._validate_gate
    monkeypatch.setattr(cir, "_validate_gate", lambda g, w: calls.append(g) or validate(g, w))
    out = q.decompose_all_mcrz(naive)
    assert list(out.gates) == expected
    assert len(calls) == len(out)


# --- byte-identical files -------------------------------------------------------

# SHA-256 of each file below, recorded from the interpreted walsh_angles,
# the gather-based CNOT and the unslotted Gate: one seeded 32x8 naive
# circuit file, its `optimize` output and report, `prepare` on a seeded
# 1024-vector with its circuit file, and `bench` up to K=256.  Like the
# golden streams, they also pin this numpy's float formatting and BLAS.
GOLDEN_SHA256 = {
    "naive.json": "ba06213dca9bc7642e1f2fd155f800570e4316548a41ca01b1e138d302b956ff",
    "opt.json": "d73182bf9353c598bc15ea1f083b8b7c3999c316e8b84d30327bbe9a9ae79a79",
    "opt.report": "9ce802c7dcc5cf2fee3d4f8cdd7c483eccd7d9ad7df3990d2ed717dc5837e763",
    "prep.json": "1de58d6731fb7ee88f996d6c206228cbc64983667ccdfe81ca6f6908c4415b9f",
    "prep.circuit.json": "6681199a3e874d0c23a5b91ad4b3692125912642e02bbd68b08429688875123d",
    "bench.csv": "c28192354b66eee7033df2ca1d0a0ed5b1ced31caeb55c0cea074aa134c6270b",
}


def _cli_files(tmp_path) -> dict[str, str]:
    rng = np.random.default_rng(20261018)
    small = q.DataTable(rng.normal(size=(32, 8))).normalized()
    naive, _ = q.build_regression_circuit(small, rng.uniform(-np.pi, np.pi, 8), "naive")
    (tmp_path / "naive.json").write_text(circuit_to_json(naive))
    (tmp_path / "vector.json").write_text(json.dumps(rng.normal(size=1024).tolist()))
    f = {name: str(tmp_path / name) for name in ("vector.json", *GOLDEN_SHA256)}
    assert main(["optimize", f["naive.json"], "--out", f["opt.json"], "--report", f["opt.report"]]) == 0
    assert main(["prepare", f["vector.json"], "--out", f["prep.json"],
                 "--circuit-out", f["prep.circuit.json"]]) == 0
    assert main(["bench", "--k", "4,8,16,32,64,128,256", "--m", "1", "--seed", "5",
                 "--out", f["bench.csv"]]) == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}


def test_cli_files_byte_identical(tmp_path):
    assert _cli_files(tmp_path) == GOLDEN_SHA256
