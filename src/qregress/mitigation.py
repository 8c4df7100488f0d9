"""Readout-error calibration and count correction.

Calibration runs the all-zeros and all-ones circuits through the noisy
sampler and estimates one 2x2 confusion matrix per qubit.  Correction
inverts the tensor-product confusion restricted to the observed-bitstring
subspace, then clips negative entries and renormalizes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuit as cir
from .circuit import Circuit
from .simulator import Counts, NoiseModel, sample


@dataclass(frozen=True)
class ConfusionSet:
    """Per-qubit column-stochastic confusion matrices M[measured, true]."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=float) for m in self.matrices)
        for m in mats:
            if m.shape != (2, 2) or np.any(m < -1e-12):
                raise ValueError("confusion matrices must be 2x2 and non-negative")
            if np.abs(m.sum(axis=0) - 1.0).max() > 1e-9:
                raise ValueError("confusion matrix columns must sum to 1")
            if abs(np.linalg.det(m)) <= 1e-12:
                raise ValueError("confusion matrix is singular; readout cannot be inverted")
        object.__setattr__(self, "matrices", mats)

    @property
    def width(self) -> int:
        return len(self.matrices)

    @property
    def is_identity(self) -> bool:
        return all(np.abs(m - np.eye(2)).max() <= 1e-12 for m in self.matrices)

    @classmethod
    def identity(cls, width: int) -> "ConfusionSet":
        return cls(tuple(np.eye(2) for _ in range(width)))

    @classmethod
    def from_flip_rates(cls, rates) -> "ConfusionSet":
        """Build from per-qubit (p10, p01) flip probabilities."""
        mats = []
        for p10, p01 in rates:
            mats.append(np.array([[1.0 - p10, p01], [p10, 1.0 - p01]]))
        return cls(tuple(mats))


def calibrate_readout(
    noise: NoiseModel, width: int, shots: int, seed: int | None = None
) -> ConfusionSet:
    """Estimate per-qubit confusion from all-zeros and all-ones runs."""
    if shots < 1000:
        raise ValueError("calibration needs at least 1000 shots")
    zeros = Circuit(width)
    ones = Circuit(width, tuple(cir.x(q) for q in range(width)))
    base = 0 if seed is None else seed
    c0 = sample(zeros, shots, base, noise)
    c1 = sample(ones, shots, base + 1, noise)
    mats = []
    for q in range(width):
        p10 = _marginal_one(c0, q)
        p01 = 1.0 - _marginal_one(c1, q)
        mats.append(np.array([[1.0 - p10, p01], [p10, 1.0 - p01]]))
    return ConfusionSet(tuple(mats))


def _marginal_one(counts: Counts, qubit: int) -> float:
    bits = (counts.outcomes >> qubit) & 1
    return int(np.dot(bits, counts.tallies)) / counts.shots


def mitigate_counts(counts: Counts, confusion: ConfusionSet) -> np.ndarray:
    """Quasi-probabilities after inverting the readout confusion, one per
    entry of ``counts.outcomes``.

    The tensor-product confusion matrix is restricted to the n observed
    outcomes and solved directly.  The n x n restricted matrix is built
    with one broadcast product per qubit, A *= M_q[b_q, b_q^T] over the
    observed bit columns b_q, in qubit order, so every entry is the same
    float as the per-entry product M_0[..] * M_1[..] * ...  If the
    restricted system is singular the full per-qubit inverse is applied
    instead.  Negative entries are clipped to zero and the result
    renormalized to sum to one.  With identity confusion the empirical
    frequencies come back unchanged.
    """
    if not counts.outcomes.size:
        raise ValueError("counts must be non-empty")
    if confusion.width < counts.width:
        raise ValueError("confusion set narrower than the measured register")
    freq = counts.tallies / counts.shots
    if confusion.is_identity:
        return freq
    values, width = counts.outcomes, counts.width
    try:
        quasi = np.linalg.solve(_restricted_matrix(confusion, width, values), freq)
    except np.linalg.LinAlgError:
        quasi = _full_inverse(freq, values, confusion, width)
    clipped = np.clip(quasi, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("mitigation collapsed every outcome to zero")
    clipped /= total
    return clipped


def _restricted_matrix(confusion: ConfusionSet, width: int, values: np.ndarray):
    """Tensor-product confusion restricted to the observed outcome indices:
    A[i, j] = prod_q M_q[bit_q(values[i]), bit_q(values[j])]."""
    a = np.ones((values.shape[0], values.shape[0]))
    for q in range(width):
        bits = (values >> q) & 1
        a *= confusion.matrices[q][bits[:, None], bits[None, :]]
    return a


def _full_inverse(freq, values, confusion: ConfusionSet, width: int):
    """Fallback: exact tensor-product inverse over the full index space,
    restricted back to the observed outcome indices."""
    vec = np.zeros(2**width)
    vec[values] = freq
    state = vec.reshape([2] * width)
    for q in range(width):
        inv = np.linalg.inv(confusion.matrices[q])
        axis = width - 1 - q
        state = np.moveaxis(
            np.tensordot(inv, np.moveaxis(state, axis, 0), axes=([1], [0])), 0, axis
        )
    return state.reshape(-1)[values]


def expectation_error_study(
    circuit: Circuit,
    noise: NoiseModel,
    observable_qubit: int,
    shots: int,
    trials: int,
    seed: int = 0,
) -> dict[str, float]:
    """Seeded comparison of mitigated vs raw single-qubit Z expectations.

    Runs ``trials`` independent sampled estimates of <Z> on one qubit under
    readout noise and reports how often applying the exact confusion
    inverse lands closer to the noiseless value.
    """
    from .simulator import simulate

    state = simulate(circuit)
    probs = np.abs(state) ** 2
    idx = np.arange(probs.shape[0])
    bit = (idx >> observable_qubit) & 1
    truth = float(probs[bit == 0].sum() - probs[bit == 1].sum())
    confusion = ConfusionSet.from_flip_rates(noise.readout_for(circuit.width))
    wins = 0
    raw_errs, fixed_errs = [], []
    for t in range(trials):
        counts = sample(circuit, shots, seed + t, noise)
        raw = _z_expectation(counts, counts.tallies / counts.shots, observable_qubit)
        fixed = _z_expectation(counts, mitigate_counts(counts, confusion), observable_qubit)
        raw_errs.append(abs(raw - truth))
        fixed_errs.append(abs(fixed - truth))
        wins += abs(fixed - truth) <= abs(raw - truth)
    return {
        "truth": truth,
        "win_fraction": wins / trials,
        "mean_raw_error": float(np.mean(raw_errs)),
        "mean_mitigated_error": float(np.mean(fixed_errs)),
    }


def _z_expectation(counts: Counts, freqs: np.ndarray, qubit: int) -> float:
    """Left-to-right signed sum of ``freqs`` over ascending ``counts.outcomes``."""
    val = 0.0
    for f, bit in zip(freqs.tolist(), ((counts.outcomes >> qubit) & 1).tolist()):
        val += -f if bit else f
    return val
