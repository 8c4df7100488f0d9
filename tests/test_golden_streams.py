"""Frozen seeded outputs of the noisy, mitigated evaluation path.

Every value below was recorded from the per-entry reference implementation
of fault sampling, fault replay and the restricted readout solve.  The
comparisons are exact (``==``): a faster path that reorders arithmetic, or
a numpy whose ``Generator.integers`` stream with an array ``high`` differs
from the scalar calls, shows up here as a changed bit.
"""
import numpy as np
import pytest

import qregress as q
from qregress.mitigation import ConfusionSet, mitigate_counts
from qregress.simulator import loss_from_run, shadow_estimate


def _encoded_case(seed: int, n_features: int):
    """Folded regression circuit on a seeded 8-row batch, default noise and
    a seeded readout calibration."""
    rng = np.random.default_rng(seed)
    batch = q.DataTable(rng.normal(size=(8, n_features + 1))).normalized()
    phis = rng.uniform(0.2, 1.2, size=n_features + 1)
    circ, layout = q.build_regression_circuit(batch, phis)
    noise = q.default_noise(layout.width)
    confusion = q.calibrate_readout(noise, layout.width, 10000, seed=seed + 991)
    return circ, layout, noise, confusion


def _small_noisy_circuit():
    circ = q.new_circuit(3)
    for gate in (
        q.h(0), q.cnot(0, 1), q.rx(2, 0.9), q.cnot(1, 2), q.rz(0, 0.4), q.h(1), q.cnot(2, 0),
    ):
        circ = circ.append(gate)
    noise = q.NoiseModel(p1=0.05, p2=0.1, readout=((0.03, 0.05), (0.02, 0.02), (0.06, 0.01)))
    return circ, noise


# (seed, estimator) -> (loss, success_probability, effective_shots), width 6
GOLDEN_W6 = {
    (3, "shadow"): (0.7734305847949351, 0.1287, 751),
    (3, "xbasis"): (0.8167432265111716, 0.1287, 751),
    (17, "shadow"): (1.1312111496572497, 0.1389, 919),
    (17, "xbasis"): (1.0760115449207381, 0.1389, 919),
    (58, "shadow"): (0.5460605078168772, 0.1338, 283),
    (58, "xbasis"): (0.5128229262530352, 0.1338, 283),
}
# seed -> (loss, success_probability, effective_shots), width 8, shadow
GOLDEN_W8 = {5: (7.9785734655862495, 0.249, 698)}
GOLDEN_SAMPLE_COUNTS = {
    "000": 490, "001": 214, "010": 512, "011": 227,
    "100": 533, "101": 217, "110": 557, "111": 250,
}
GOLDEN_MITIGATED = {
    "000": 0.17332232741156303,
    "001": 0.07354147187159107,
    "010": 0.18137223390992677,
    "011": 0.07821557971014495,
    "100": 0.1706767667913355,
    "101": 0.06648721170328814,
    "110": 0.17825186029297177,
    "111": 0.07813254830917875,
}


@pytest.mark.parametrize("seed,estimator", sorted(GOLDEN_W6))
def test_width6_loss_triples(seed, estimator):
    circ, layout, noise, confusion = _encoded_case(seed, 1)
    assert layout.width == 6
    est = loss_from_run(
        circ, layout, 10000, seed=seed + 7, noise=noise, estimator=estimator,
        confusion=confusion,
    )
    assert (est.loss, est.success_probability, est.effective_shots) == GOLDEN_W6[
        (seed, estimator)
    ]
    if estimator == "shadow":
        assert shadow_estimate(
            circ, layout, 10000, 10, seed=seed + 7, noise=noise, confusion=confusion
        ) == est.loss


@pytest.mark.parametrize("seed", sorted(GOLDEN_W8))
def test_width8_shadow_triple(seed):
    circ, layout, noise, confusion = _encoded_case(seed, 7)
    assert layout.width == 8
    est = loss_from_run(
        circ, layout, 5000, seed=seed + 7, noise=noise, estimator="shadow",
        confusion=confusion,
    )
    assert (est.loss, est.success_probability, est.effective_shots) == GOLDEN_W8[seed]


def test_sample_counts_and_mitigated_quasi_probabilities():
    circ, noise = _small_noisy_circuit()
    counts = q.sample(circ, 3000, seed=424242, noise=noise)
    assert counts.counts == GOLDEN_SAMPLE_COUNTS
    confusion = ConfusionSet.from_flip_rates(noise.readout)
    assert dict(zip(counts.counts, mitigate_counts(counts, confusion).tolist())) == GOLDEN_MITIGATED
