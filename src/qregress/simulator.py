"""Dense statevector simulation, sampling, noise and loss estimation.

States are little-endian complex vectors of length 2**width.  Sampled
bitstrings are printed most-significant qubit first, so qubit 0 is the
rightmost character.

``simulate`` applies a circuit built from uniformly controlled blocks (the
optimized regression circuit) one block at a time, as a Hadamard layer, a
diagonal and a Hadamard layer, so exact evaluation never lowers its gates
(they are lowered only when ``Circuit.gates`` is first read).  Every other
circuit runs gate by gate, and noisy sampling reads the lowered gates.

Noise follows a trajectory model: after each gate a Pauli fault fires with
the configured probability and flipped readout bits are applied at
measurement; shots sharing a fault pattern are simulated once and sampled
together, which is exactly per-shot sampling done in groups.
"""
from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, _Block, _list, _number, _object, apply_gate
from .data import RegisterLayout
from .errors import CapacityError, DegenerateProjectionError, EstimatorStarvedError

_SIMULATE_WIDTH_LIMIT = 24
_DENSE_SUFFIX_LIMIT = 8  # precompute suffix operators up to 2**8 x 2**8
_DENSE_SUFFIX_BYTES = 256 * 2**20  # ... while all G + 1 of them fit in these bytes

DEFAULT_P1 = 0.0011
DEFAULT_P2 = 0.0077
DEFAULT_READOUT_FLIP = 0.02


def simulate(circuit: Circuit) -> np.ndarray:
    """Noiseless statevector after applying every gate to |0...0>.

    A circuit that carries uniformly controlled blocks is applied block by
    block in O(|S| * 2**width) each, without lowering its gates.
    """
    if circuit.width > _SIMULATE_WIDTH_LIMIT:
        raise CapacityError(f"simulate supports width <= {_SIMULATE_WIDTH_LIMIT}")
    state = np.zeros(2**circuit.width, dtype=complex)
    state[0] = 1.0
    if circuit._blocks is not None:
        for block in circuit._blocks:
            state = _apply_block(state, block, circuit.width)
        return state
    for g in circuit:
        state = apply_gate(state, g, circuit.width)
    return state


def _apply_block(state: np.ndarray, block: _Block, width: int) -> np.ndarray:
    """H on every wire of S = controls + target, then exp(-i a_j z / 2) on
    each basis state (control index j, target Z eigenvalue z), then H on S
    again: the block's unitary, equal to its lowered gates.  The 2**-|S| of
    the two Hadamard layers is applied once, with the diagonal."""
    wires = (*block.controls, block.target)
    state = _unscaled_hadamards(state, wires, width)
    phase = np.exp(-0.5j * block.angles) * 2.0 ** -len(wires)
    table = np.concatenate([phase, phase.conj()])
    state *= table[_phase_index(width, block.controls, block.target)]
    return _unscaled_hadamards(state, wires, width)


@functools.lru_cache(maxsize=8)
def _phase_index(width: int, controls: tuple[int, ...], target: int) -> np.ndarray:
    """Per basis state, the index of its phase in a block's table: control
    index j while the target reads 0, 2**len(controls) + j while it reads 1.
    Computed once per register layout; read-only because it is shared."""
    idx = np.arange(2**width)
    out = ((idx >> target) & 1) << len(controls)
    for b, c in enumerate(controls):
        out |= ((idx >> c) & 1) << b
    out.flags.writeable = False
    return out


def _unscaled_hadamards(state: np.ndarray, wires, width: int) -> np.ndarray:
    """sqrt(2) * H on each of ``wires``: amplitudes (a, b) become (a + b, a - b)."""
    for q in wires:
        view = state.reshape(2 ** (width - 1 - q), 2, 2**q)
        out = np.empty_like(view)
        np.add(view[:, 0], view[:, 1], out=out[:, 0])
        np.subtract(view[:, 0], view[:, 1], out=out[:, 1])
        state = out.reshape(-1)
    return state


def project(state: np.ndarray, qubit: int, basis: str, outcome: int):
    """Project onto one single-qubit outcome.

    Returns (sub-normalized state, probability); the probability is the
    squared norm of the projection.  basis 'z' selects the computational
    outcome, basis 'x' the |+> (outcome 0) or |-> (outcome 1) state.
    """
    width = int(math.log2(state.shape[0]))
    if not 0 <= qubit < width:
        raise ValueError(f"qubit {qubit} out of range")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    view = state.reshape(2 ** (width - 1 - qubit), 2, 2**qubit)
    out = np.zeros_like(view)
    if basis.lower() == "z":
        out[:, outcome] = view[:, outcome]
    elif basis.lower() == "x":
        sign = 1.0 if outcome == 0 else -1.0
        comp = 0.5 * (view[:, 0] + sign * view[:, 1])
        out[:, 0] = comp
        out[:, 1] = sign * comp
    else:
        raise ValueError("basis must be 'z' or 'x'")
    projected = out.reshape(-1)
    prob = float(np.real(np.vdot(projected, projected)))
    if prob < 1e-14:
        raise DegenerateProjectionError(
            f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}"
        )
    return projected, prob


# --- noise model -------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing rates plus per-qubit readout flips.

    ``readout[q] = (p10, p01)``: probability of reading 1 given true 0 and
    of reading 0 given true 1.
    """

    p1: float = 0.0
    p2: float = 0.0
    readout: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for p in (self.p1, self.p2):
            if not 0.0 <= p <= 1.0:
                raise ValueError("gate fault probabilities must be in [0, 1]")
        for p10, p01 in self.readout:
            if not (0.0 <= p10 <= 1.0 and 0.0 <= p01 <= 1.0):
                raise ValueError("readout probabilities must be in [0, 1]")

    def readout_for(self, width: int) -> np.ndarray:
        """(width, 2) array of (p10, p01) for qubits 0..width-1.

        An empty ``readout`` means no readout noise (all zeros); a non-empty
        list shorter than ``width`` is rejected rather than padded.
        """
        if not self.readout:
            return np.zeros((width, 2))
        if len(self.readout) < width:
            raise ValueError(
                f"readout lists {len(self.readout)} qubits; the circuit has {width}"
            )
        return np.array(self.readout[:width], dtype=float)

    @property
    def trivial(self) -> bool:
        return (
            self.p1 == 0.0
            and self.p2 == 0.0
            and all(p10 == 0.0 and p01 == 0.0 for p10, p01 in self.readout)
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            {
                "p1": self.p1,
                "p2": self.p2,
                "readout": [{"p10": p10, "p01": p01} for p10, p01 in self.readout],
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "NoiseModel":
        """Parse a noise file: an object whose rates are JSON numbers and
        whose readout entries are {"p10": ..., "p01": ...} objects; anything
        else raises ValueError rather than being coerced."""
        obj = _object(json.loads(text), "a noise file")
        entries = [_object(r, "a readout entry") for r in _list(obj.get("readout", []), "readout")]
        readout = tuple((_number(r["p10"], "p10"), _number(r["p01"], "p01")) for r in entries)
        return cls(_number(obj.get("p1", 0.0), "p1"), _number(obj.get("p2", 0.0), "p2"), readout)


def default_noise(width: int) -> NoiseModel:
    """Stand-in hardware model: depolarizing rates from the quoted one- and
    two-qubit gate fidelities, symmetric 2% readout flips."""
    if width < 1:
        raise ValueError("width must be at least 1")
    return NoiseModel(
        p1=DEFAULT_P1,
        p2=DEFAULT_P2,
        readout=((DEFAULT_READOUT_FLIP, DEFAULT_READOUT_FLIP),) * width,
    )


# --- counts ------------------------------------------------------------------

@dataclass(frozen=True)
class Counts:
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

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            {
                "counts": dict(sorted(self.counts.items())),
                "shots": self.shots,
                "seed": self.seed,
                "width": self.width,
            },
            indent=indent,
        )


def _bitstring(index: int, width: int) -> str:
    return format(index, f"0{width}b")


def _bitstring_values(bitstrings) -> np.ndarray:
    """Outcome indices of MSB-first bitstrings, in iteration order; the
    inverse of ``_bitstring`` and the one place counts keys are parsed."""
    return np.array([int(bs, 2) for bs in bitstrings], dtype=np.int64)


def _counts_from_indices(indices: np.ndarray, width: int, shots: int, seed) -> Counts:
    values, reps = np.unique(indices, return_counts=True)
    return Counts(
        {_bitstring(int(v), width): int(c) for v, c in zip(values, reps)},
        shots,
        seed,
        width,
    )


# --- trajectory sampling ------------------------------------------------------

def _apply_pauli(state: np.ndarray, qubit: int, code: int, width: int) -> np.ndarray:
    """Apply X (1), Y (2) or Z (3) on one qubit of a state or a (rows, 2**width)
    block of states."""
    view = state.reshape(state.shape[:-1] + (2 ** (width - 1 - qubit), 2, 2**qubit))
    out = np.empty_like(view)
    if code == 1:
        out[..., 0, :], out[..., 1, :] = view[..., 1, :], view[..., 0, :]
    elif code == 2:
        out[..., 0, :], out[..., 1, :] = -1j * view[..., 1, :], 1j * view[..., 0, :]
    elif code == 3:
        out[..., 0, :], out[..., 1, :] = view[..., 0, :], -view[..., 1, :]
    else:
        raise ValueError("pauli code must be 1, 2 or 3")
    return out.reshape(state.shape)


def _apply_fault(state: np.ndarray, gate, pauli_code: int, width: int) -> np.ndarray:
    """Apply the sampled fault after ``gate``: a uniform non-identity Pauli
    on its site, two-qubit faults encoded base-4 as (code_c, code_t)."""
    if gate.kind == "cnot":
        c_code, t_code = divmod(pauli_code, 4)
        if c_code:
            state = _apply_pauli(state, gate.control, c_code, width)
        if t_code:
            state = _apply_pauli(state, gate.target, t_code, width)
        return state
    return _apply_pauli(state, gate.qubits[-1], pauli_code, width)


def _sample_fault_patterns(circuit: Circuit, shots: int, noise: NoiseModel, rng):
    """Map fault pattern -> shot multiplicity.  A pattern is a tuple of
    (gate index, pauli code), empty for clean shots."""
    gates = circuit.gates
    probs = np.array(
        [noise.p2 if g.kind == "cnot" else noise.p1 for g in gates]
    )
    patterns: dict[tuple, int] = {}
    if not gates or not np.any(probs > 0.0):
        patterns[()] = shots
        return patterns
    hits = rng.random((shots, len(gates))) < probs[None, :]
    shot_rows, gate_cols = np.nonzero(hits)
    # one draw per fault in (shot, gate) order; an array ``high`` yields the
    # same stream as one scalar call per fault
    highs = np.array([16 if g.kind == "cnot" else 4 for g in gates])
    codes = rng.integers(1, highs[gate_cols])
    faults = list(zip(gate_cols.tolist(), codes.tolist()))
    # nonzero is row-major: each faulted shot is one contiguous run
    starts = np.flatnonzero(np.diff(shot_rows, prepend=-1)).tolist()
    clean = shots - len(starts)
    if clean:
        patterns[()] = clean
    for a, b in zip(starts, starts[1:] + [len(faults)]):
        key = tuple(faults[a:b])
        patterns[key] = patterns.get(key, 0) + 1
    return patterns


def _inverse_gate(g):
    if g.kind in ("rz", "rx", "mcrz"):
        return g.shifted(-g.angle)
    return g  # x, h, cnot are self-inverse


class _SegmentCache:
    """Prefix states plus dagger-suffix operators for fast fault replay.

    ``dagger[i]`` is the adjoint of the product of gates i..end, built by
    applying inverse gates to an identity batch, so inserting a fault after
    gate i costs a couple of matrix-vector products instead of a fresh
    simulation.  The G + 1 dense operators are kept only while they fit
    ``_DENSE_SUFFIX_BYTES``; otherwise ``dense`` is False and every
    pattern is replayed gate by gate from its first fault.
    """

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


def _apply_readout_flips(indices: np.ndarray, width: int, readout: np.ndarray, rng):
    for q in range(width):
        p10, p01 = readout[q]
        if p10 == 0.0 and p01 == 0.0:
            continue
        bit = (indices >> q) & 1
        p_flip = np.where(bit == 1, p01, p10)
        flips = rng.random(indices.shape[0]) < p_flip
        indices = np.where(flips, indices ^ (1 << q), indices)
    return indices


def _pattern_states(cache: _SegmentCache, keys: list[tuple]) -> np.ndarray:
    """Final states for every fault pattern.

    One- and two-fault patterns (the bulk of the draw) are batched per
    insertion position so every tail replay runs as one matrix product;
    rarer deep patterns take the serial path.
    """
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
        """Prefix state after gate gi with each row's first fault inserted;
        each distinct fault code is applied once."""
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

    # two-fault replay in three batched hops: evolve past the first fault,
    # rewind to the second site, insert, replay the tail
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


def _sample_indices(
    circuit: Circuit, shots: int, seed, noise: NoiseModel | None
) -> np.ndarray:
    """Shuffled per-shot outcome indices; the building block of sampling."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    rng = np.random.default_rng(seed)
    width = circuit.width
    if noise is None or noise.trivial:
        probs = np.abs(simulate(circuit)) ** 2
        probs = probs / probs.sum()
        hist = rng.multinomial(shots, probs)
        indices = np.repeat(np.arange(probs.shape[0]), hist)
        return rng.permutation(indices)

    readout = noise.readout_for(width)
    patterns = _sample_fault_patterns(circuit, shots, noise, rng)
    cache = _SegmentCache(circuit)
    keys = sorted(patterns)
    mults = np.array([patterns[k] for k in keys])
    states = _pattern_states(cache, keys)
    probs = np.abs(states) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    chunks = []
    once = mults == 1
    if np.any(once):
        cum = np.cumsum(probs[once], axis=1)
        draws = rng.random(int(once.sum()))
        picks = (cum < draws[:, None]).sum(axis=1)
        chunks.append(np.minimum(picks, probs.shape[1] - 1))
    for row in np.nonzero(~once)[0]:
        hist = rng.multinomial(int(mults[row]), probs[row])
        chunks.append(np.repeat(np.arange(probs.shape[1]), hist))
    indices = np.concatenate(chunks)
    indices = _apply_readout_flips(indices, width, readout, rng)
    return rng.permutation(indices)


def sample(
    circuit: Circuit,
    shots: int,
    seed: int | None = None,
    noise: NoiseModel | None = None,
) -> Counts:
    """Measure every qubit ``shots`` times; reproducible for a fixed seed."""
    indices = _sample_indices(circuit, shots, seed, noise)
    return _counts_from_indices(indices, circuit.width, shots, seed)


# --- expectation and loss ------------------------------------------------------

def expectation_mhat(source, layout: RegisterLayout) -> float:
    """Expected value of the column-register projector observable,
    2**n_m times the probability that every column qubit reads + in the
    X basis (0 in already-rotated counts), marginal over everything else.
    """
    from . import circuit as cir

    scale = float(layout.m_pad)
    col_mask = sum(1 << q for q in layout.column_qubits)
    if isinstance(source, Counts):
        values = _bitstring_values(source.counts)
        good = int(np.dot((values & col_mask) == 0, list(source.counts.values())))
        return scale * good / source.shots
    state = np.asarray(source)
    if state.shape[0] != 2**layout.width:
        raise ValueError("state size does not match the layout width")
    rotated = state
    for q in layout.column_qubits:
        rotated = apply_gate(rotated, cir.h(q), layout.width)
    probs = np.abs(rotated) ** 2
    idx = np.arange(probs.shape[0])
    return scale * float(probs[(idx & col_mask) == 0].sum())


@dataclass(frozen=True)
class LossEstimate:
    loss: float
    success_probability: float  # data-prep ancilla projection success
    effective_shots: int | None  # shots surviving both ancilla conditions


def _selection_masks(layout: RegisterLayout):
    anc1 = 1 << layout.anc1
    anc2 = 1 << layout.anc2
    cols = sum(1 << q for q in layout.column_qubits)
    return anc1, anc2, cols


def _loss_from_counts(counts: Counts, layout: RegisterLayout, confusion) -> LossEstimate:
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
        from .mitigation import mitigate_counts

        freqs = mitigate_counts(counts, confusion)
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


def loss_from_run(
    circuit: Circuit,
    layout: RegisterLayout,
    shots: int | None = None,
    seed: int | None = None,
    noise: NoiseModel | None = None,
    estimator: str = "xbasis",
    batches: int = 10,
    confusion=None,
) -> LossEstimate:
    """Loss of one encoded circuit run.

    The estimate is C * P(anc1 reads 1, anc2 reads 0, all column qubits
    read 0) with C = 2**(n_l + n_m) * 2**n_m; the constant composes the
    uniform-superposition weight, the two ancilla projections and the
    observable scale, and in exact mode the result equals the closed-form
    loss with sin-encoded values.  ``shots=None`` computes probabilities
    from the statevector; otherwise counts are post-selected, optionally
    through a readout ``confusion`` correction first.  ``estimator`` is
    'xbasis' (plain frequencies) or 'shadow', a median-of-means estimator:
    the median of the plain estimates of ``batches`` equal groups of the
    shot budget.  Every shot is measured in the same fixed basis, so
    'shadow' is a historical name, not classical-shadow tomography.
    """
    if estimator not in ("xbasis", "shadow"):
        raise ValueError("estimator must be 'xbasis' or 'shadow'")
    if shots is None:
        anc1_bit, anc2_bit, col_mask = _selection_masks(layout)
        constant = float(layout.k_pad * layout.m_pad)
        state = simulate(circuit)
        probs = np.abs(state) ** 2
        idx = np.arange(probs.shape[0])
        sel1 = (idx & anc1_bit) != 0
        joint = sel1 & ((idx & anc2_bit) == 0) & ((idx & col_mask) == 0)
        return LossEstimate(
            loss=constant * float(probs[joint].sum()),
            success_probability=float(probs[sel1].sum()),
            effective_shots=None,
        )
    if estimator == "shadow":
        if batches < 1:
            raise ValueError("need at least one batch")
        if shots % batches:
            raise ValueError("shots must divide evenly across batches")
        estimates = _batched_estimates(
            circuit, layout, shots, batches, seed, noise, confusion
        )
        loss = float(np.median([e.loss for e in estimates]))
        weight = shots // batches
        success = sum(e.success_probability * weight for e in estimates) / shots
        effective = sum(e.effective_shots for e in estimates)
        return LossEstimate(loss, success, effective)
    counts = sample(circuit, shots, seed, noise)
    return _loss_from_counts(counts, layout, confusion)


def _batched_estimates(
    circuit, layout, shots, batches, seed, noise, confusion
) -> list[LossEstimate]:
    """One shot budget drawn in a single pass, split into batches.

    The per-shot stream is shuffled, so contiguous chunks are exchangeable
    with independent runs of shots/batches each.
    """
    per_batch = shots // batches
    indices = _sample_indices(circuit, shots, seed, noise)
    out = []
    for b in range(batches):
        chunk = indices[b * per_batch : (b + 1) * per_batch]
        counts = _counts_from_indices(chunk, circuit.width, per_batch, seed)
        try:
            out.append(_loss_from_counts(counts, layout, confusion))
        except EstimatorStarvedError:
            warnings.warn(f"measurement batch {b} starved; dropping it", stacklevel=3)
    if not out:
        raise EstimatorStarvedError("every measurement batch starved")
    return out


def shadow_estimate(
    circuit: Circuit,
    layout: RegisterLayout,
    shots: int,
    batches: int,
    seed: int | None = None,
    noise: NoiseModel | None = None,
    confusion=None,
) -> float:
    """Median-of-means loss over fixed-basis measurement batches.

    The shot budget splits evenly across ``batches`` groups; starved
    batches are dropped with a warning.  With one batch this reduces to
    the plain estimator.  This is the loss of ``loss_from_run`` with
    ``estimator='shadow'``; despite the name it uses no random measurement
    bases, so it is not a classical-shadow estimator (Huang, Kueng,
    Preskill 2020).
    """
    return loss_from_run(
        circuit, layout, shots, seed, noise,
        estimator="shadow", batches=batches, confusion=confusion,
    ).loss
