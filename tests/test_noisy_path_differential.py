"""The one-sweep fault replay and the index-array outcome scoring against
the implementations they replaced.

The reference classes and functions below are the earlier per-length fault
replay (a batched single-fault path, a batched two-fault path and a serial
path for deeper patterns or past the byte budget) and the earlier
bitstring-keyed ``Counts`` scoring, kept verbatim except for the names
they call: the budget constants that chose its path live in this module,
and the reference loss calls the reference ``mitigate_counts``.  Final
states may move in the last bits (the sweep groups each matrix product's
rows differently and carries few rows gate by gate), so they are compared
to 1e-12.  Scoring keeps every float sum in its left-to-right order over
ascending outcomes, so estimates are compared with ``==``.
"""
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pytest

import qregress as q
from qregress import circuit as cir
from qregress import mitigation, simulator
from qregress.circuit import Circuit, apply_gate
from qregress.errors import EstimatorStarvedError
from qregress.mitigation import ConfusionSet
from qregress.simulator import LossEstimate, _apply_fault, _inverse_gate, _selection_masks

from conftest import random_circuit


# --- references ----------------------------------------------------------------

_DENSE_SUFFIX_LIMIT = 8  # precompute suffix operators up to 2**8 x 2**8
_DENSE_SUFFIX_BYTES = 256 * 2**20  # ... while all G + 1 of them fit in these bytes


@dataclass(frozen=True)
class _RefCounts:
    """Sampled measurement outcomes: bitstring (MSB first) -> shots."""

    counts: dict[str, int]
    shots: int
    seed: int | None = None
    width: int = 0

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to the shot total")

    def frequencies(self) -> dict[str, float]:
        return {k: v / self.shots for k, v in self.counts.items()}


def _bitstring(index: int, width: int) -> str:
    return format(index, f"0{width}b")


def _bitstring_values(bitstrings) -> np.ndarray:
    return np.array([int(bs, 2) for bs in bitstrings], dtype=np.int64)


def _ref_counts_from_indices(indices, width, shots, seed) -> _RefCounts:
    values, reps = np.unique(indices, return_counts=True)
    return _RefCounts(
        {_bitstring(int(v), width): int(c) for v, c in zip(values, reps)},
        shots,
        seed,
        width,
    )


class _RefSegmentCache:
    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.width = circuit.width
        dim = 2**circuit.width
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
        self.prefix = [state]
        for g in circuit.gates:
            state = apply_gate(state, g, circuit.width)
            self.prefix.append(state)
        self.dense = (
            circuit.width <= _DENSE_SUFFIX_LIMIT
            and (len(circuit) + 1) * dim * dim * 16 <= _DENSE_SUFFIX_BYTES
        )
        if self.dense:
            daggers = [np.eye(dim, dtype=complex)]
            for g in reversed(circuit.gates):
                daggers.append(apply_gate(daggers[-1], _inverse_gate(g), circuit.width))
            daggers.reverse()  # dagger[i] = (gates i..n-1)^dagger
            self.dagger = daggers

    def _suffix_apply(self, i: int, state: np.ndarray) -> np.ndarray:
        """Apply gates i..end: S_i v = (v^H D_i)^H with D_i = S_i^dagger."""
        return np.conj(np.conj(state) @ self.dagger[i])

    def final_state(self, pattern) -> np.ndarray:
        if not pattern:
            return self.prefix[-1]
        order = sorted(pattern)
        first_gate, first_code = order[0]
        state = _apply_fault(
            self.prefix[first_gate + 1].copy(),
            self.circuit.gates[first_gate],
            first_code,
            self.width,
        )
        pos = first_gate + 1
        if self.dense:
            state = self._suffix_apply(pos, state)
            for gi, code in order[1:]:
                # undo the tail back to gi+1, insert the fault, replay
                state = self.dagger[gi + 1] @ state
                state = _apply_fault(state, self.circuit.gates[gi], code, self.width)
                state = self._suffix_apply(gi + 1, state)
            return state
        for gi, code in order[1:]:
            for g in self.circuit.gates[pos : gi + 1]:
                state = apply_gate(state, g, self.width)
            state = _apply_fault(state, self.circuit.gates[gi], code, self.width)
            pos = gi + 1
        for g in self.circuit.gates[pos:]:
            state = apply_gate(state, g, self.width)
        return state


def _ref_pattern_states(cache: _RefSegmentCache, keys: list[tuple]) -> np.ndarray:
    dim = 2**cache.width
    states = np.empty((len(keys), dim), dtype=complex)
    singles: dict[int, list[int]] = {}
    doubles: dict[int, list[int]] = {}
    for row, key in enumerate(keys):
        if not key:
            states[row] = cache.prefix[-1]
        elif len(key) == 1 and cache.dense:
            singles.setdefault(key[0][0], []).append(row)
        elif len(key) == 2 and cache.dense:
            doubles.setdefault(key[0][0], []).append(row)
        else:
            states[row] = cache.final_state(key)

    def faulted_prefix(rows: list[int], gi: int) -> np.ndarray:
        gate = cache.circuit.gates[gi]
        codes = [keys[row][0][1] for row in rows]
        faulted = {
            code: _apply_fault(cache.prefix[gi + 1], gate, code, cache.width)
            for code in set(codes)
        }
        return np.stack([faulted[code] for code in codes])

    for gi, rows in singles.items():
        block = faulted_prefix(rows, gi)
        states[rows] = np.conj(np.conj(block) @ cache.dagger[gi + 1])

    evolved: dict[int, np.ndarray] = {}
    for gi, rows in doubles.items():
        block = faulted_prefix(rows, gi)
        full = np.conj(np.conj(block) @ cache.dagger[gi + 1])
        for b, row in enumerate(rows):
            evolved[row] = full[b]
    by_second: dict[int, list[int]] = {}
    for rows in doubles.values():
        for row in rows:
            by_second.setdefault(keys[row][1][0], []).append(row)
    for gj, rows in by_second.items():
        gate = cache.circuit.gates[gj]
        dag = cache.dagger[gj + 1]
        block = np.stack([evolved[row] for row in rows]) @ dag.T
        codes = np.array([keys[row][1][1] for row in rows])
        for code in np.unique(codes).tolist():
            hit = codes == code
            block[hit] = _apply_fault(block[hit], gate, code, cache.width)
        states[rows] = np.conj(np.conj(block) @ dag)
    return states


def _ref_mitigate_counts(counts: _RefCounts, confusion: ConfusionSet) -> dict[str, float]:
    if not counts.counts:
        raise ValueError("counts must be non-empty")
    width = counts.width or len(next(iter(counts.counts)))
    if confusion.width < width:
        raise ValueError("confusion set narrower than the measured register")
    observed = sorted(counts.counts)
    freq = np.array([counts.counts[b] / counts.shots for b in observed])
    if confusion.is_identity:
        return {b: float(f) for b, f in zip(observed, freq)}
    values = _bitstring_values(observed)
    try:
        quasi = np.linalg.solve(mitigation._restricted_matrix(confusion, width, values), freq)
    except np.linalg.LinAlgError:
        quasi = mitigation._full_inverse(freq, values, confusion, width)
    clipped = np.clip(quasi, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("mitigation collapsed every outcome to zero")
    clipped /= total
    return {b: float(p) for b, p in zip(observed, clipped) if p > 0.0}


def _ref_loss_from_counts(counts: _RefCounts, layout, confusion) -> LossEstimate:
    anc1_bit, anc2_bit, col_mask = _selection_masks(layout)
    constant = float(layout.k_pad * layout.m_pad)
    values = _bitstring_values(counts.counts)
    tallies = list(counts.counts.values())
    anc1 = (values & anc1_bit) != 0
    anc1_hits = int(np.dot(anc1, tallies))
    surviving = int(np.dot(anc1 & ((values & anc2_bit) == 0), tallies))
    if surviving == 0:
        raise EstimatorStarvedError("no shots survived the ancilla post-selection")
    if confusion is not None:
        freqs = _ref_mitigate_counts(counts, confusion)
        values = _bitstring_values(freqs)
    else:
        freqs = counts.frequencies()
    selected = ((values & anc1_bit) != 0) & ((values & (anc2_bit | col_mask)) == 0)
    # a plain left-to-right float sum in dict order
    joint = sum(f for f, keep in zip(freqs.values(), selected.tolist()) if keep)
    return LossEstimate(
        loss=constant * joint,
        success_probability=anc1_hits / counts.shots,
        effective_shots=surviving,
    )


def _ref_marginal_one(counts: _RefCounts, qubit: int) -> float:
    bits = (_bitstring_values(counts.counts) >> qubit) & 1
    return int(np.dot(bits, list(counts.counts.values()))) / counts.shots


def _ref_z_expectation(freqs: dict[str, float], qubit: int) -> float:
    val = 0.0
    for f, v in zip(freqs.values(), _bitstring_values(freqs).tolist()):
        val += -f if (v >> qubit) & 1 else f
    return val


def _ref_sample(circuit, shots, seed, noise) -> _RefCounts:
    indices = simulator._sample_indices(circuit, shots, seed, noise)
    return _ref_counts_from_indices(indices, circuit.width, shots, seed)


def _ref_calibrate(noise, width, shots, seed) -> ConfusionSet:
    """``calibrate_readout`` on the reference counts."""
    zeros = Circuit(width)
    ones = Circuit(width, tuple(cir.x(qubit) for qubit in range(width)))
    c0 = _ref_sample(zeros, shots, seed, noise)
    c1 = _ref_sample(ones, shots, seed + 1, noise)
    mats = []
    for qubit in range(width):
        p10 = _ref_marginal_one(c0, qubit)
        p01 = 1.0 - _ref_marginal_one(c1, qubit)
        mats.append(np.array([[1.0 - p10, p01], [p10, 1.0 - p01]]))
    return ConfusionSet(tuple(mats))


def _ref_study(circuit, noise, qubit, shots, trials, seed) -> dict[str, float]:
    """``expectation_error_study`` on the reference counts."""
    probs = np.abs(q.simulate(circuit)) ** 2
    bit = (np.arange(probs.shape[0]) >> qubit) & 1
    truth = float(probs[bit == 0].sum() - probs[bit == 1].sum())
    confusion = ConfusionSet.from_flip_rates(noise.readout_for(circuit.width))
    wins = 0
    raw_errs, fixed_errs = [], []
    for t in range(trials):
        counts = _ref_sample(circuit, shots, seed + t, noise)
        raw = _ref_z_expectation(counts.frequencies(), qubit)
        fixed = _ref_z_expectation(_ref_mitigate_counts(counts, confusion), qubit)
        raw_errs.append(abs(raw - truth))
        fixed_errs.append(abs(fixed - truth))
        wins += abs(fixed - truth) <= abs(raw - truth)
    return {
        "truth": truth,
        "win_fraction": wins / trials,
        "mean_raw_error": float(np.mean(raw_errs)),
        "mean_mitigated_error": float(np.mean(fixed_errs)),
    }


# --- fault replay ----------------------------------------------------------------

@pytest.mark.parametrize("side", ["carried", "dense"])
@pytest.mark.parametrize("width", range(2, 9))
def test_pattern_states_match_reference(width, side):
    """At most 2 * 2**width shots leave few enough faulted rows to carry;
    8 * 2**width shots at these rates fault more than that many."""
    dim = 2**width
    shots = 2 * dim if side == "carried" else 8 * dim
    rng = np.random.default_rng(700 + width)
    noise = q.NoiseModel(p1=0.08, p2=0.15)
    for _ in range(2):
        circ = random_circuit(width, int(rng.integers(15, 50)), rng)
        keys = sorted(
            simulator._sample_fault_patterns(circ, shots, noise, np.random.default_rng(width))
        )
        assert max(len(k) for k in keys) >= 3
        assert (sum(map(bool, keys)) > 2 * dim) == (side == "dense")
        states = simulator._pattern_states(circ, keys)
        reference = _ref_pattern_states(_RefSegmentCache(circ), keys)
        assert np.abs(states - reference).max() <= 1e-12


# --- outcome scoring ---------------------------------------------------------------

def _encoded_case(seed: int, n_features: int):
    rng = np.random.default_rng(seed)
    batch = q.DataTable(rng.normal(size=(8, n_features + 1))).normalized()
    phis = rng.uniform(0.2, 1.2, size=n_features + 1)
    circ, layout = q.build_regression_circuit(batch, phis)
    return circ, layout, q.default_noise(layout.width)


@pytest.mark.parametrize("n_features", [1, 7], ids=["width6", "width8"])
def test_loss_triples_equal_on_the_same_indices(n_features):
    zeros_clipped = 0
    for seed in range(3):
        circ, layout, noise = _encoded_case(seed, n_features)
        calibrated = q.calibrate_readout(noise, layout.width, 10000, seed=seed + 991)
        heavy = ConfusionSet.from_flip_rates([(0.08, 0.12)] * layout.width)
        indices = simulator._sample_indices(circ, 4000, seed + 7, noise)
        for chunk in np.split(indices, 10):
            new_counts = simulator._counts_from_indices(chunk, layout.width, chunk.size, seed)
            ref_counts = _ref_counts_from_indices(chunk, layout.width, chunk.size, seed)
            assert new_counts.counts == ref_counts.counts
            for confusion in (None, ConfusionSet.identity(layout.width), calibrated, heavy):
                try:
                    expected = _ref_loss_from_counts(ref_counts, layout, confusion)
                except EstimatorStarvedError:
                    with pytest.raises(EstimatorStarvedError):
                        simulator._loss_from_counts(new_counts, layout, confusion)
                    continue
                got = simulator._loss_from_counts(new_counts, layout, confusion)
                assert (got.loss, got.success_probability, got.effective_shots) == (
                    expected.loss, expected.success_probability, expected.effective_shots
                )
                if confusion is not None:
                    quasi = mitigation.mitigate_counts(new_counts, confusion)
                    zeros_clipped += int(np.count_nonzero(quasi == 0.0))
    # the reference drops clipped outcomes; the aligned array keeps them as 0.0
    assert zeros_clipped > 0


@pytest.mark.parametrize("width", [1, 3, 5])
def test_calibrate_readout_equals_reference(width):
    for seed, readout in enumerate([(0.02, 0.02), (0.01, 0.05), (0.0, 0.0)]):
        noise = q.NoiseModel(p1=0.01, readout=(readout,) * width)
        got = q.calibrate_readout(noise, width, 2000, seed=seed)
        expected = _ref_calibrate(noise, width, 2000, seed)
        for a, b in zip(got.matrices, expected.matrices):
            np.testing.assert_array_equal(a, b)


def test_expectation_error_study_equals_reference():
    rng = np.random.default_rng(31)
    for width, qubit in ((3, 0), (4, 2)):
        circ = random_circuit(width, 12, rng)
        noise = q.NoiseModel(p1=0.01, p2=0.02, readout=((0.04, 0.02),) * width)
        got = mitigation.expectation_error_study(circ, noise, qubit, 3000, 6, seed=width)
        assert got == _ref_study(circ, noise, qubit, 3000, 6, width)


def test_mitigated_shadow_loss_formats_and_parses_no_bitstring(monkeypatch):
    circ, layout, noise = _encoded_case(3, 1)
    confusion = q.calibrate_readout(noise, layout.width, 10000, seed=994)
    calls = defaultdict(int)

    def spy_format(*args):
        calls["format"] += 1
        return format(*args)

    def spy_int(*args, **kwargs):
        if args and isinstance(args[0], str):
            calls["parse"] += 1
        return int(*args, **kwargs)

    solve = mitigation.mitigate_counts

    def spy_mitigate(*args):
        calls["mitigate"] += 1
        return solve(*args)

    for module in (simulator, mitigation):
        monkeypatch.setattr(module, "format", spy_format, raising=False)
        monkeypatch.setattr(module, "int", spy_int, raising=False)
    monkeypatch.setattr(mitigation, "mitigate_counts", spy_mitigate)
    simulator.loss_from_run(
        circ, layout, 10000, seed=10, noise=noise, estimator="shadow", confusion=confusion
    )
    assert dict(calls) == {"mitigate": 10}
    # the spies are the names the modules' own code resolves
    counts = simulator.sample(circ, 200, seed=1, noise=noise)
    assert len(counts.counts) == calls["format"] > 0
    assert simulator.int("101", 2) == 5 and calls["parse"] == 1
