"""Dense statevector simulation, sampling, noise and loss estimation.

States are little-endian complex vectors of length 2**width.  Sampled
outcomes are integer indices (qubit q is bit q) from the sampler to the
loss; bitstrings, printed most-significant qubit first so qubit 0 is the
rightmost character, exist only in the ``Counts.counts`` view and in JSON.

``simulate`` applies a circuit built from uniformly controlled blocks (the
optimized regression circuit) one block at a time, as a Hadamard layer, a
diagonal and a Hadamard layer, so exact evaluation never lowers its gates
(they are lowered only when ``Circuit.gates`` is first read).  Every other
circuit runs gate by gate, and noisy sampling reads the lowered gates.

The exact loss of a block circuit never applies its last block, the
coefficient block on the column qubits and anc2.  Post-selection reads 0
on exactly that block's wires, and the all-zero row of its closing
Hadamard layer is all ones, so the selected amplitudes are M . t(phi):
M is the anc1 = 1 slice of the unscaled Hadamards on those wires applied
to the state before the block, and t(phi) is the block's phase table.
M and P(anc1 = 1) do not depend on phi (``_data_slice``), so a trainer
evaluator computes them once per batch and each loss is one small
contraction (``_contracted_loss``).

Noise follows a trajectory model: after each gate a Pauli fault fires with
the configured probability and flipped readout bits are applied at
measurement; shots sharing a fault pattern are simulated once and sampled
together, which is exactly per-shot sampling done in groups.  Patterns are
replayed in one forward sweep over the gates (``_pattern_states``): many
faulted patterns are kept as final states and faulted through one running
adjoint of the remaining gates, few are carried through every gate as one
block.
"""
from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .circuit import Circuit, _Block, _list, _number, _object, apply_gate
from .data import RegisterLayout
from .errors import CapacityError, DegenerateProjectionError, EstimatorStarvedError

_SIMULATE_WIDTH_LIMIT = 24
# simulate holds a state and its working copy: two at width 24
_SIMULATE_BYTES = 2 * 16 * 2**24

DEFAULT_P1 = 0.0011
DEFAULT_P2 = 0.0077
DEFAULT_READOUT_FLIP = 0.02


def simulate(circuit: Circuit) -> np.ndarray:
    """Noiseless statevector after applying every gate to |0...0>.

    A circuit that carries uniformly controlled blocks is applied block by
    block in O(|S| * 2**width) each, without lowering its gates.  The state
    and its working copy must fit ``_SIMULATE_BYTES``.
    """
    _require_states(2, circuit.width, "simulate")
    state = _zero_state(circuit.width)
    if circuit._blocks is not None:
        for block in circuit._blocks:
            state = _apply_block(state, block, circuit.width)
        return state
    for g in circuit:
        state = apply_gate(state, g, circuit.width)
    return state


def _require_states(states: float, width: int, what: str) -> None:
    """Refuse, before allocating, work that holds ``states`` dense states
    of ``width`` qubits at once beyond ``_SIMULATE_BYTES``."""
    need = int(states * 16 * 2**width)
    if need > _SIMULATE_BYTES:
        raise CapacityError(
            f"{what} at width {width} needs {need} bytes; the budget is {_SIMULATE_BYTES}"
        )


def _zero_state(width: int) -> np.ndarray:
    state = np.zeros(2**width, dtype=complex)
    state[0] = 1.0
    return state


def _apply_block(state: np.ndarray, block: _Block, width: int) -> np.ndarray:
    """H on every wire of S = controls + target, then exp(-i a_j z / 2) on
    each basis state (control index j, target Z eigenvalue z), then H on S
    again: the block's unitary, equal to its lowered gates."""
    wires = (*block.controls, block.target)
    state = _unscaled_hadamards(state, wires, width)
    state *= _phase_table(block)[_phase_index(width, block.controls, block.target)]
    return _unscaled_hadamards(state, wires, width)


def _phase_table(block: _Block) -> np.ndarray:
    """A block's diagonal by phase index (see ``_phase_index``), with the
    2**-|S| of its two unscaled Hadamard layers applied once here."""
    phase = np.exp(-0.5j * block.angles) * 2.0 ** -(len(block.controls) + 1)
    return np.concatenate([phase, phase.conj()])


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

@dataclass(frozen=True, eq=False)
class Counts:
    """Sampled measurement outcomes: the distinct outcome indices in
    ascending order (qubit q is bit q) and the shots that read each."""

    outcomes: np.ndarray
    tallies: np.ndarray
    shots: int
    seed: int | None
    width: int

    def __post_init__(self):
        if int(self.tallies.sum()) != self.shots:
            raise ValueError("counts must sum to the shot total")

    @classmethod
    def from_bitstrings(
        cls, counts: dict[str, int], shots: int, seed: int | None = None, width: int = 0
    ) -> "Counts":
        """Build from a bitstring (MSB first) -> shots dict; a zero ``width``
        is read from the key length.  The one place bitstrings are parsed."""
        width = width or len(next(iter(counts), ""))
        for key, n in counts.items():
            if len(key) != width or key.strip("01") or type(n) is not int or n < 0:
                raise ValueError(f"bad {width}-bit counts entry {key!r}: {n!r}")
        pairs = sorted((int(key, 2), n) for key, n in counts.items())
        outcomes, tallies = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        return cls(outcomes, tallies, shots, seed, width)

    @functools.cached_property
    def counts(self) -> MappingProxyType:
        """Read-only bitstring (MSB first) -> shots view, in outcome order."""
        pairs = zip(self.outcomes.tolist(), self.tallies.tolist())
        return MappingProxyType({_bitstring(v, self.width): t for v, t in pairs})

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            {
                "counts": dict(self.counts),
                "shots": self.shots,
                "seed": self.seed,
                "width": self.width,
            },
            indent=indent,
        )


def _bitstring(index: int, width: int) -> str:
    return format(index, f"0{width}b")


def _counts_from_indices(indices: np.ndarray, width: int, shots: int, seed) -> Counts:
    outcomes, tallies = np.unique(indices, return_counts=True)
    return Counts(outcomes, tallies, shots, seed, width)


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


def _pattern_states(circuit: Circuit, keys: list[tuple]) -> np.ndarray:
    """Final states for every fault pattern, in one forward sweep over the gates.

    The sweep advances the noiseless state, and each pattern's row is born
    at its first fault as a faulted copy of it.  With more than 2 * 2**width
    faulted rows, the rows are kept as final states and the sweep carries
    one adjoint A = (gates g+1..end)^dagger: a fault after gate g rewinds its
    row by A, applies the Pauli and runs it to the end by A^dagger, all rows
    hit at g in one matrix product.  Fewer rows take every gate as one block
    instead: carrying R rows costs G * R * 2**width amplitude updates, less
    than the adjoint's build and sweep (2 * G * 4**width) exactly when
    R <= 2 * 2**width, and past that A is under half the size of the rows.
    """
    width, gates = circuit.width, circuit.gates
    dim = 2**width
    hits: dict[int, list[tuple[int, int, bool]]] = {}
    for row, key in enumerate(keys):
        for depth, (g, code) in enumerate(key):
            hits.setdefault(g, []).append((row, code, depth == 0))
    clean = sum(not key for key in keys)  # () sorts first
    dense = len(keys) - clean > 2 * dim
    state = np.zeros(dim, dtype=complex)
    state[0] = 1.0
    states = np.empty((len(keys), dim), dtype=complex)
    if dense:
        adj = np.eye(dim, dtype=complex)
        for gate in reversed(gates):
            adj = apply_gate(adj, _inverse_gate(gate), width)
    else:
        carried = np.empty((dim, 0), dtype=complex)  # one column per born row
    for g, gate in enumerate(gates):
        state = apply_gate(state, gate, width)
        if dense:
            adj = apply_gate(adj, gate, width)
        elif carried.shape[1]:
            carried = apply_gate(carried, gate, width)
        if g not in hits:
            continue
        rows, codes, born = map(np.array, zip(*hits[g]))
        if dense:
            base = np.empty((rows.size, dim), dtype=complex)
            base[born] = state
            base[~born] = states[rows[~born]] @ adj.T
            states[rows] = np.conj(np.conj(_apply_faults(base, gate, codes, width)) @ adj)
        else:
            born_cols = np.broadcast_to(state[:, None], (dim, int(born.sum())))
            carried = np.concatenate([carried, born_cols], axis=1)
            cols = rows - clean
            carried[:, cols] = _apply_faults(carried[:, cols].T, gate, codes, width).T
    states[:clean] = state
    if not dense:
        states[clean:] = carried.T
    return states


def _apply_faults(block: np.ndarray, gate, codes: np.ndarray, width: int) -> np.ndarray:
    """Each row of ``block`` with its own fault after ``gate``, each distinct
    code applied once."""
    out = np.empty_like(block)
    for code in np.unique(codes).tolist():
        hit = codes == code
        out[hit] = _apply_fault(block[hit], gate, code, width)
    return out


def _sample_indices(
    circuit: Circuit, shots: int, seed, noise: NoiseModel | None
) -> np.ndarray:
    """Shuffled per-shot outcome indices; the building block of sampling."""
    if circuit.width > _SIMULATE_WIDTH_LIMIT:
        raise CapacityError(f"sampling supports width <= {_SIMULATE_WIDTH_LIMIT}")
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
    keys = sorted(patterns)
    mults = np.array([patterns[k] for k in keys])
    states = _pattern_states(circuit, keys)
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
        good = int(np.dot((source.outcomes & col_mask) == 0, source.tallies))
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
    values = counts.outcomes
    anc1 = (values & anc1_bit) != 0
    anc1_hits = int(np.dot(anc1, counts.tallies))
    surviving = int(np.dot(anc1 & ((values & anc2_bit) == 0), counts.tallies))
    if surviving == 0:
        raise EstimatorStarvedError("no shots survived the ancilla post-selection")
    if confusion is not None:
        from .mitigation import mitigate_counts

        freqs = mitigate_counts(counts, confusion)
    else:
        freqs = counts.tallies / counts.shots
    selected = anc1 & ((values & (anc2_bit | col_mask)) == 0)
    # a plain left-to-right float sum over ascending outcomes
    joint = sum(freqs[selected].tolist())
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
        if circuit._blocks is not None:
            data = circuit._data_slice or _data_slice(circuit, layout)
            return _contracted_loss(data, circuit._blocks[-1], layout)
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


def _data_slice(circuit: Circuit, layout: RegisterLayout) -> tuple[np.ndarray, float]:
    """(M, P(anc1 = 1)) of a block circuit: the part of its exact loss that
    does not depend on its last block.

    The last block must be the layout's coefficient block (column qubits
    -> anc2), whose wires are exactly those post-selection reads as 0.
    M[l, s] is the amplitude at anc1 = 1, row l and (anc2, columns) = s of
    the unscaled Hadamards on those wires applied to the state before the
    block; s is the block's phase index.  The block leaves anc1 alone, so
    P(anc1 = 1) is read before it.  M is half a state, on top of the state
    and its working copy.
    """
    *data, last = circuit._blocks
    if circuit.width != layout.width or (last.controls, last.target) != (
        layout.column_qubits,
        layout.anc2,
    ):
        raise ValueError(
            "the exact loss needs a block circuit of the layout's width whose"
            " last block is the column qubits -> anc2 block"
        )
    width = circuit.width
    _require_states(2.5, width, "the exact loss")
    state = _zero_state(width)
    for block in data:
        state = _apply_block(state, block, width)
    selected = state.reshape(2, 2, -1)[:, 1]  # [anc2, anc1, row and column]
    success = float(np.vdot(selected, selected).real)
    # once anc1 is dropped, anc2 is bit n_data of the selected half
    wires = (*layout.column_qubits, layout.n_data)
    selected = _unscaled_hadamards(selected.reshape(-1), wires, width - 1)
    m = selected.reshape(2, -1, layout.m_pad).transpose(1, 0, 2)
    return m.reshape(-1, 2 * layout.m_pad), success


def _contracted_loss(data, block: _Block, layout: RegisterLayout) -> LossEstimate:
    """Exact loss from a ``_data_slice`` and the last block: C * |M . t|**2."""
    m, success = data
    amplitudes = m @ _phase_table(block)
    return LossEstimate(
        loss=float(layout.k_pad * layout.m_pad) * float(np.vdot(amplitudes, amplitudes).real),
        success_probability=success,
        effective_shots=None,
    )


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
