import numpy as np
import pytest

import qregress as q
from qregress import mitigation
from qregress.mitigation import ConfusionSet, expectation_error_study, mitigate_counts
from qregress.simulator import Counts


def _restricted_matrix_reference(confusion, width, values):
    """Per-entry product over qubits, one scalar at a time."""
    n = len(values)
    a = np.ones((n, n))
    for row, vi in enumerate(values):
        for col, vj in enumerate(values):
            p = 1.0
            for qubit in range(width):
                p *= confusion.matrices[qubit][(vi >> qubit) & 1, (vj >> qubit) & 1]
            a[row, col] = p
    return a


class TestCalibration:
    def test_noiseless_is_identity_within_noise(self):
        noise = q.NoiseModel()
        conf = q.calibrate_readout(noise, 3, 10000, seed=1)
        for m in conf.matrices:
            assert np.abs(m - np.eye(2)).max() == 0.0

    def test_symmetric_flip_recovered(self):
        noise = q.NoiseModel(readout=((0.03, 0.03),) * 2)
        conf = q.calibrate_readout(noise, 2, 10000, seed=2)
        sigma = 3 * np.sqrt(0.03 * 0.97 / 10000)
        for m in conf.matrices:
            assert abs(m[1, 0] - 0.03) <= sigma
            assert abs(m[0, 1] - 0.03) <= sigma

    def test_asymmetric_flips_recovered(self):
        noise = q.NoiseModel(readout=((0.01, 0.05),))
        conf = q.calibrate_readout(noise, 1, 20000, seed=3)
        m = conf.matrices[0]
        assert abs(m[1, 0] - 0.01) <= 3 * np.sqrt(0.01 * 0.99 / 20000)
        assert abs(m[0, 1] - 0.05) <= 3 * np.sqrt(0.05 * 0.95 / 20000)

    def test_minimum_shots_enforced(self):
        with pytest.raises(ValueError):
            q.calibrate_readout(q.NoiseModel(), 1, 10)


class TestMitigateCounts:
    def test_identity_confusion_returns_frequencies(self):
        counts = Counts.from_bitstrings({"01": 600, "10": 400}, 1000, None, 2)
        out = dict(zip(counts.counts, mitigate_counts(counts, ConfusionSet.identity(2)).tolist()))
        assert out == {"01": 0.6, "10": 0.4}

    def test_single_qubit_hand_inverse(self):
        counts = Counts.from_bitstrings({"0": 980, "1": 20}, 1000, None, 1)
        conf = ConfusionSet.from_flip_rates([(0.02, 0.02)])
        out = dict(zip(counts.counts, mitigate_counts(counts, conf).tolist()))
        assert abs(out.get("0", 0.0) - 1.0) <= 0.01

    def test_quasi_probabilities_sum_to_one(self):
        counts = Counts.from_bitstrings({"00": 500, "01": 300, "11": 200}, 1000, None, 2)
        conf = ConfusionSet.from_flip_rates([(0.03, 0.02), (0.01, 0.04)])
        out = dict(zip(counts.counts, mitigate_counts(counts, conf).tolist()))
        assert abs(sum(out.values()) - 1.0) <= 1e-12
        assert all(v >= 0.0 for v in out.values())

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            mitigate_counts(Counts.from_bitstrings({}, 0, None, 1), ConfusionSet.identity(1))

    def test_restricted_matrix_matches_per_entry_loop(self, rng):
        for width in range(1, 9):
            for trial in range(4):
                conf = ConfusionSet.from_flip_rates(rng.uniform(0.0, 0.3, size=(width, 2)))
                n = 2**width if trial == 0 else int(rng.integers(1, 2**width + 1))
                values = np.sort(rng.choice(2**width, size=n, replace=False))
                np.testing.assert_array_equal(
                    mitigation._restricted_matrix(conf, width, values),
                    _restricted_matrix_reference(conf, width, values.tolist()),
                )

    def test_singular_restricted_system_takes_full_inverse(self, monkeypatch):
        # qubit 0 always flips: the restricted matrix over 00, 01, 10 has
        # proportional rows 00 and 10, while the full 4x4 confusion inverts
        conf = ConfusionSet.from_flip_rates([(1.0, 1.0), (0.1, 0.1)])
        counts = Counts.from_bitstrings({"00": 500, "01": 300, "10": 200}, 1000, None, 2)
        calls = []
        original = mitigation._full_inverse

        def spy(*args):
            calls.append(original(*args))
            return calls[-1]

        monkeypatch.setattr(mitigation, "_full_inverse", spy)
        out = dict(zip(counts.counts, mitigate_counts(counts, conf).tolist()))
        assert len(calls) == 1
        dense = np.kron(conf.matrices[1], conf.matrices[0])  # index = 2*b1 + b0
        freq = np.array([0.5, 0.3, 0.2, 0.0])
        quasi = np.linalg.solve(dense, freq)[:3]
        assert np.abs(calls[0] - quasi).max() <= 1e-12
        clipped = np.clip(quasi, 0.0, None)
        expected = clipped / clipped.sum()
        for bs, p in zip(("00", "01", "10"), expected):
            assert abs(out.get(bs, 0.0) - p) <= 1e-12

    def test_study_mitigation_wins(self, rng):
        circ = q.new_circuit(4)
        for qubit in range(4):
            circ = circ.append(q.rx(qubit, float(rng.uniform(0, np.pi / 3))))
        noise = q.NoiseModel(readout=((0.02, 0.02),) * 4)
        res = expectation_error_study(circ, noise, 1, 10000, 20, seed=5)
        assert res["win_fraction"] >= 0.9
        assert res["mean_mitigated_error"] <= res["mean_raw_error"]


class TestConfusionSet:
    def test_columns_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ConfusionSet((np.array([[0.9, 0.0], [0.2, 1.0]]),))

    @pytest.mark.parametrize("rates", [(0.5, 0.5), (0.3, 0.7), (1.0, 0.0)])
    def test_singular_matrix_rejected(self, rates):
        with pytest.raises(ValueError, match="singular"):
            ConfusionSet.from_flip_rates([(0.02, 0.02), rates])

    def test_from_flip_rates(self):
        conf = ConfusionSet.from_flip_rates([(0.1, 0.2)])
        m = conf.matrices[0]
        assert m[1, 0] == 0.1 and m[0, 1] == 0.2
        assert np.allclose(m.sum(axis=0), 1.0)
