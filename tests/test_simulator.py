import math

import numpy as np
import pytest

import qregress as q
from qregress.errors import DegenerateProjectionError, EstimatorStarvedError

from conftest import random_circuit, random_normalized_table


class TestSimulate:
    def test_single_hadamard(self):
        state = q.simulate(q.new_circuit(1).append(q.h(0)))
        assert np.abs(state - 1 / math.sqrt(2)).max() < 1e-12

    def test_empty_three_qubits(self):
        state = q.simulate(q.new_circuit(3))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.abs(state - expected).max() == 0.0

    def test_encoder_matches_closed_form(self, rng):
        # data-prep block: (1/sqrt(K)) sum_k (e^{-ix_k}|0> + e^{ix_k}|1>)/sqrt(2) (x) |k>
        table = random_normalized_table(2, 1, rng)
        layout = q.layout_for(2, 1)
        flat = q.flatten_padded(table, layout)
        circ = q.build_ud_naive(table, layout)
        state = q.simulate(circ)
        k_pad = layout.k_pad
        expected = np.zeros(2**layout.width, dtype=complex)
        for k in range(k_pad):
            for anc in (0, 1):
                amp = np.exp(1j * flat[k] * (2 * anc - 1)) / math.sqrt(2 * k_pad)
                expected[k + (anc << layout.anc1)] = amp
        # anc2 stays |0>; entries above 2**(anc2) are zero
        assert np.abs(state - expected).max() <= 1e-10

    def test_norm_preserved(self, rng):
        for _ in range(20):
            c = random_circuit(int(rng.integers(1, 6)), int(rng.integers(1, 40)), rng)
            assert abs(np.linalg.norm(q.simulate(c)) - 1.0) <= 1e-10

    def test_mcrz_applied_as_diagonal(self, rng):
        c = q.new_circuit(3).append(q.h(0)).append(q.h(1)).append(
            q.mcrz([0, 1], 2, 0.7)
        )
        state = q.simulate(c)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


class TestProject:
    def test_plus_onto_minus_degenerate(self):
        state = q.simulate(q.new_circuit(1).append(q.h(0)))
        with pytest.raises(DegenerateProjectionError):
            q.project(state, 0, "x", 1)

    def test_encoded_state_projection(self, rng):
        table = random_normalized_table(2, 1, rng)
        layout = q.layout_for(2, 1)
        flat = q.flatten_padded(table, layout)
        state = q.simulate(q.build_ud_naive(table, layout))
        projected, prob = q.project(state, layout.anc1, "x", 1)
        expected_prob = float(np.sum(np.sin(flat) ** 2) / layout.k_pad)
        assert abs(prob - expected_prob) <= 1e-12
        post = projected[(1 << layout.anc1) + np.arange(layout.k_pad)]
        post = post / np.linalg.norm(post)
        target = np.sin(flat) / np.linalg.norm(np.sin(flat))
        k = int(np.argmax(np.abs(target)))
        phase = target[k] / post[k]
        phase /= abs(phase)
        assert np.abs(post * phase - target).max() <= 1e-10

    def test_completeness(self, rng):
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        for basis in ("z", "x"):
            total = 0.0
            for outcome in (0, 1):
                try:
                    total += q.project(vec, 1, basis, outcome)[1]
                except DegenerateProjectionError:
                    pass
            assert abs(total - 1.0) <= 1e-12


class TestSample:
    def test_h_binomial_bound(self):
        counts = q.sample(q.new_circuit(1).append(q.h(0)), 20000, seed=3)
        sigma = math.sqrt(20000 * 0.25)
        assert abs(counts.counts["0"] - 10000) <= 3 * sigma

    def test_deterministic_circuit(self):
        counts = q.sample(q.new_circuit(1).append(q.x(0)), 500, seed=1)
        assert counts.counts == {"1": 500}

    def test_readout_flip_rate(self):
        noise = q.NoiseModel(readout=((0.0, 0.02),))
        counts = q.sample(q.new_circuit(1).append(q.x(0)), 20000, seed=2, noise=noise)
        flips = counts.counts.get("0", 0)
        sigma = math.sqrt(20000 * 0.02 * 0.98)
        assert abs(flips - 400) <= 3 * sigma

    def test_seed_reproducible(self, rng):
        c = random_circuit(3, 12, rng)
        noise = q.default_noise(3)
        a = q.sample(c, 4000, seed=11, noise=noise)
        b = q.sample(c, 4000, seed=11, noise=noise)
        assert a.counts == b.counts

    def test_chi_square_against_amplitudes(self, rng):
        # noiseless sampling distribution equals |amplitude|^2
        for _ in range(3):
            c = random_circuit(4, 15, rng)
            probs = np.abs(q.simulate(c)) ** 2
            counts = q.sample(c, 20000, seed=7)
            chi2 = 0.0
            dof = 0
            for idx, p in enumerate(probs):
                expected = 20000 * p
                if expected < 5:
                    continue
                observed = counts.counts.get(format(idx, "04b"), 0)
                chi2 += (observed - expected) ** 2 / expected
                dof += 1
            # alpha = 0.001 critical value for chi-square, dof <= 16
            critical = {k: v for k, v in enumerate(
                [0, 10.83, 13.82, 16.27, 18.47, 20.52, 22.46, 24.32, 26.12,
                 27.88, 29.59, 31.26, 32.91, 34.53, 36.12, 37.70, 39.25]
            )}
            assert chi2 <= critical[max(dof - 1, 1)] + 10  # slack across 3 draws

    def test_trajectory_noise_changes_distribution(self, rng):
        c = q.new_circuit(2).append(q.x(0)).append(q.cnot(0, 1))
        noise = q.NoiseModel(p1=0.2, p2=0.2)
        counts = q.sample(c, 5000, seed=9, noise=noise)
        assert counts.counts.get("11", 0) < 5000
        assert sum(counts.counts.values()) == 5000


class TestFaultSweep:
    """Fault patterns are replayed in one forward sweep: more than
    2 * 2**width faulted rows are kept as final states and faulted through
    one swept adjoint, fewer are carried through every gate as one block."""

    @staticmethod
    def _counting_apply_gate(monkeypatch):
        from qregress import simulator

        calls = []
        apply_gate = simulator.apply_gate

        def spy(state, gate, width):
            calls.append(state.shape)
            return apply_gate(state, gate, width)

        monkeypatch.setattr(simulator, "apply_gate", spy)
        return calls

    def test_sides_agree_and_follow_the_rule(self, rng, monkeypatch):
        from qregress import simulator

        c = random_circuit(4, 30, rng)
        noise = q.NoiseModel(p1=0.1, p2=0.2)
        keys = sorted(simulator._sample_fault_patterns(c, 400, noise, np.random.default_rng(5)))
        assert keys[0] == () and max(len(k) for k in keys) >= 3
        calls = self._counting_apply_gate(monkeypatch)
        dense = simulator._pattern_states(c, keys)
        assert len(keys) - 1 > 2 * 2**4 and len(calls) == 3 * len(c)  # state, build, sweep
        # the same keys, at most 2 * 2**4 faulted rows at a time
        for a in range(1, len(keys), 2 * 2**4):
            chunk = [()] + keys[a : a + 2 * 2**4]
            calls.clear()
            carried = simulator._pattern_states(c, chunk)
            assert len(calls) < 2 * len(c)  # state, then the block once rows are born
            assert np.abs(carried[0] - dense[0]).max() <= 1e-12
            assert np.abs(carried[1:] - dense[a : a + 2 * 2**4]).max() <= 1e-12

    def test_long_width8_circuit_applies_each_gate_a_few_times(self, monkeypatch):
        c = random_circuit(8, 300, np.random.default_rng(8300))
        calls = self._counting_apply_gate(monkeypatch)
        counts = q.sample(c, 200, seed=4, noise=q.NoiseModel(p1=0.01, p2=0.02))
        assert counts.tallies.sum() == 200
        assert len(calls) <= 3 * len(c)

    def test_sample_wide_shape_memory(self):
        import tracemalloc

        from qregress import simulator

        rng = np.random.default_rng(20)
        circ, layout = q.build_regression_circuit(
            random_normalized_table(8, 7, rng), rng.uniform(0.2, 1.2, size=8)
        )
        assert (layout.width, len(circ)) == (8, 144)
        circ.gates  # lowered outside the measurement
        tracemalloc.start()
        try:
            simulator._sample_indices(circ, 20000, 3, q.default_noise(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_noisy_sampling_checks_the_width_first(self, monkeypatch):
        from qregress import simulator
        from qregress.errors import CapacityError

        def no_draws(*args):
            raise AssertionError("faults drawn past the width limit")

        monkeypatch.setattr(simulator, "_SIMULATE_WIDTH_LIMIT", 3)
        monkeypatch.setattr(simulator, "_sample_fault_patterns", no_draws)
        c = q.new_circuit(4).append(q.h(0)).append(q.cnot(0, 3))
        layout = q.layout_for(2, 1)
        assert layout.width == 4
        for noise in (
            None,
            q.NoiseModel(p1=0.1, p2=0.1),
            q.NoiseModel(readout=((0.02, 0.02),) * 4),
        ):
            with pytest.raises(CapacityError):
                q.sample(c, 100, seed=1, noise=noise)
            for estimator in ("xbasis", "shadow"):
                with pytest.raises(CapacityError):
                    q.loss_from_run(c, layout, 100, seed=1, noise=noise, estimator=estimator)


class TestExpectationMhat:
    def test_all_plus_maximal(self):
        layout = q.layout_for(2, 3)  # n_m = 2
        circ = q.new_circuit(layout.width)
        for qq in layout.column_qubits:
            circ = circ.append(q.h(qq))
        assert abs(q.expectation_mhat(q.simulate(circ), layout) - 4.0) <= 1e-12

    def test_minus_gives_zero(self):
        layout = q.layout_for(2, 1)  # n_m = 1
        circ = q.new_circuit(layout.width).append(q.x(0)).append(q.h(0))  # |->
        assert abs(q.expectation_mhat(q.simulate(circ), layout)) <= 1e-12

    def test_matches_dense_operator(self, rng):
        layout = q.layout_for(2, 3)  # width 5, n_m = 2
        vec = rng.normal(size=2**layout.width) + 1j * rng.normal(size=2**layout.width)
        vec /= np.linalg.norm(vec)
        x_mat = np.array([[0, 1], [1, 0]], dtype=complex)
        op = np.eye(1, dtype=complex)
        for qubit in reversed(range(layout.width)):
            factor = np.eye(2) + x_mat if qubit in layout.column_qubits else np.eye(2)
            op = np.kron(op, factor)
        dense = float(np.real(vec.conj() @ op @ vec))
        assert abs(q.expectation_mhat(vec, layout) - dense) <= 1e-10

    def test_counts_source(self):
        layout = q.layout_for(2, 1)
        counts = q.Counts.from_bitstrings({"0000": 600, "0001": 400}, 1000, None, layout.width)
        assert abs(q.expectation_mhat(counts, layout) - 2 * 0.6) <= 1e-12


class TestLossFromRun:
    def test_exact_matches_closed_form(self, rng):
        for _ in range(10):
            rows = int(rng.integers(1, 5))
            feats = int(rng.choice([1, 3]))
            table = random_normalized_table(rows, feats, rng)
            phis = rng.uniform(0, np.pi, feats + 1)
            circ, layout = q.build_regression_circuit(table, phis, "optimized")
            est = q.loss_from_run(circ, layout)
            sin_table = q.DataTable(np.sin(table.values))
            assert abs(est.loss - q.loss_closed_form(sin_table, phis)) <= 1e-9

    def test_right_angle_phis_zero_loss(self, rng):
        table = random_normalized_table(2, 1, rng)
        phis = np.full(2, math.pi / 2)
        circ, layout = q.build_regression_circuit(table, phis, "optimized")
        assert q.loss_from_run(circ, layout).loss <= 1e-12

    def test_survival_near_one_over_k(self, rng):
        table = random_normalized_table(8, 7, rng)  # K = 64
        phis = rng.uniform(0, np.pi, 8)
        circ, layout = q.build_regression_circuit(table, phis, "optimized")
        est = q.loss_from_run(circ, layout)
        assert abs(est.success_probability - 1 / 64) < 0.25 / 64
        sampled = q.loss_from_run(circ, layout, shots=20000, seed=5)
        assert sampled.effective_shots is not None
        assert abs(sampled.success_probability - est.success_probability) < 5e-3

    def test_starvation_raises(self, rng):
        # tiny amplitudes: survival probability ~ sin^2/K ~ 1e-8, so a short
        # run keeps no shots
        table = random_normalized_table(2, 1, rng)
        tiny = q.DataTable(table.values * 1e-4)
        phis = rng.uniform(0, np.pi, 2)
        circ, layout = _build_unchecked(tiny, phis)
        with pytest.raises(EstimatorStarvedError):
            q.loss_from_run(circ, layout, shots=50, seed=3)


def _build_unchecked(table, phis):
    """Build the folded circuit without the unit-norm precondition."""
    from qregress.data import flatten_padded, layout_for
    from qregress.synthesis import _padded_phi_angles, _uniform_block, walsh_angles
    from qregress.circuit import Circuit

    layout = layout_for(table.n_rows, table.n_features)
    flat = flatten_padded(table, layout)
    ud = _uniform_block(layout.data_qubits, layout.anc1, walsh_angles(2.0 * flat), True)
    uc = _uniform_block(
        layout.column_qubits,
        layout.anc2,
        walsh_angles(_padded_phi_angles(np.asarray(phis, float), layout)),
        True,
    )
    return Circuit(layout.width, tuple(ud + uc)), layout


class TestShadow:
    def test_single_batch_reduces_to_plain(self, rng):
        table = random_normalized_table(2, 1, rng)
        phis = rng.uniform(0, np.pi, 2)
        circ, layout = q.build_regression_circuit(table, phis, "optimized")
        plain = q.loss_from_run(circ, layout, shots=4000, seed=3)
        shadow = q.shadow_estimate(circ, layout, 4000, 1, seed=3)
        assert shadow == plain.loss

    def test_within_spread_of_exact(self, rng):
        table = random_normalized_table(2, 1, rng)
        phis = rng.uniform(0, np.pi, 2)
        circ, layout = q.build_regression_circuit(table, phis, "optimized")
        exact = q.loss_from_run(circ, layout).loss
        estimates = [
            q.shadow_estimate(circ, layout, 20000, 10, seed=s) for s in range(6)
        ]
        spread = np.std(estimates) + 1e-6
        assert abs(np.median(estimates) - exact) <= 3 * spread + 0.05 * exact

    def test_median_robust_to_contaminated_batch(self):
        values = [1.0, 1.02, 0.98, 1.01, 0.99, 25.0]
        assert abs(np.median(values) - 1.0) < 0.02

    def test_uneven_split_rejected(self, rng):
        table = random_normalized_table(2, 1, rng)
        circ, layout = q.build_regression_circuit(
            table, rng.uniform(0, 1, 2), "optimized"
        )
        with pytest.raises(ValueError):
            q.shadow_estimate(circ, layout, 1001, 10)


class TestNoiseModelIO:
    def test_json_round_trip(self):
        noise = q.NoiseModel(p1=0.0011, p2=0.0077, readout=((0.02, 0.03), (0.0, 0.01)))
        again = q.NoiseModel.from_json(noise.to_json())
        assert again == noise

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1]", "a noise file must be a JSON object, got [1]"),
            ('{"readout": [1]}', "a readout entry must be a JSON object, got 1"),
            ('{"readout": [[0.02, 0.02]]}',
             "a readout entry must be a JSON object, got [0.02, 0.02]"),
            ('{"readout": {"p10": 0.1, "p01": 0.1}}',
             "readout must be a list, got {'p10': 0.1, 'p01': 0.1}"),
            ('{"p1": "0.1"}', "p1 must be a number, got '0.1'"),
            ('{"p1": true}', "p1 must be a number, got True"),
            ('{"p2": null}', "p2 must be a number, got None"),
            ('{"readout": [{"p10": "0.02", "p01": 0.02}]}', "p10 must be a number, got '0.02'"),
        ],
        ids=["list-top-level", "int-entry", "list-entry", "object-readout", "string-p1",
             "bool-p1", "null-p2", "string-p10"],
    )
    def test_json_non_object_or_non_number_rejected(self, text, message):
        with pytest.raises(ValueError) as err:
            q.NoiseModel.from_json(text)
        assert str(err.value) == message

    def test_default_values(self):
        noise = q.default_noise(4)
        assert noise.p1 == 0.0011 and noise.p2 == 0.0077
        assert noise.readout == ((0.02, 0.02),) * 4

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            q.NoiseModel(p1=1.5)

    def test_counts_json(self):
        counts = q.Counts.from_bitstrings({"01": 3, "10": 2}, 5, seed=9, width=2)
        import json

        payload = json.loads(counts.to_json())
        assert payload["shots"] == 5 and payload["counts"]["01"] == 3

    @pytest.mark.parametrize(
        "entries", [{"01": 3, "1": 2}, {"0b": 5}, {"01": 2.5}, {"01": True}, {"01": -1}]
    )
    def test_counts_from_bitstrings_rejects_bad_entries(self, entries):
        with pytest.raises(ValueError, match="counts entry"):
            q.Counts.from_bitstrings(entries, 5)

    def test_short_readout_list_rejected(self):
        # two readout pairs for a width-3 circuit: no silent perfect readout
        noise = q.NoiseModel(readout=((0.02, 0.02), (0.02, 0.02)))
        circ = q.new_circuit(3).append(q.x(2))
        with pytest.raises(ValueError, match="readout"):
            q.sample(circ, 100, seed=1, noise=noise)
        assert q.sample(circ, 100, seed=1, noise=q.NoiseModel(p1=0.2)).shots == 100
