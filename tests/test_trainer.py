import math
import warnings

import numpy as np
import pytest

import qregress as q
from qregress.trainer import AdamState, initial_phis

from conftest import random_normalized_table


class TestWeights:
    def test_direct_evaluation(self):
        w = q.weights_from_phis([math.pi, math.pi / 3])
        assert abs(w[0] - 0.5) <= 1e-12

    def test_right_angles_give_zero_weights(self):
        w = q.weights_from_phis([0.3, math.pi / 2, math.pi / 2])
        assert np.abs(w).max() <= 1e-12

    def test_sign_flip_invariance(self, rng):
        phis = rng.uniform(0.1, 1.3, 5)
        assert np.allclose(q.weights_from_phis(phis), q.weights_from_phis(-phis))

    def test_degenerate_phi0_rejected(self):
        with pytest.raises(ValueError):
            q.weights_from_phis([math.pi / 2, 0.3])


class TestClosedFormLoss:
    def test_right_angles_zero(self, rng):
        table = random_normalized_table(3, 2, rng)
        assert q.loss_closed_form(table, [math.pi / 2] * 3) <= 1e-12

    def test_matches_simulator_with_sin_encoding(self, rng):
        table = random_normalized_table(2, 1, rng)
        phis = rng.uniform(0, np.pi, 2)
        circ, layout = q.build_regression_circuit(table, phis, "optimized")
        est = q.loss_from_run(circ, layout)
        sin_loss = q.loss_closed_form(q.DataTable(np.sin(table.values)), phis)
        assert abs(est.loss - sin_loss) <= 1e-9

    def test_perfect_single_row_fit(self):
        # y = x1 and W_1 = 1: residual vanishes
        table = q.DataTable(np.array([[0.5, 0.5]]))
        phis = np.array([math.pi / 3, math.pi - math.pi / 3])
        assert q.loss_closed_form(table, phis) <= 1e-12

    def test_non_negative(self, rng):
        for _ in range(20):
            table = random_normalized_table(4, 2, rng)
            assert q.loss_closed_form(table, rng.uniform(-np.pi, np.pi, 3)) >= 0.0

    def test_scale_equivariance(self, rng):
        table = random_normalized_table(4, 2, rng)
        phis = rng.uniform(0, np.pi, 3)
        base = q.loss_closed_form(table, phis)
        scaled = q.loss_closed_form(q.DataTable(3.0 * table.values), phis)
        assert abs(scaled - 9.0 * base) <= 1e-9 * max(1.0, scaled)


class TestGradient:
    def test_exact_shift_matches_finite_differences(self, rng):
        for _ in range(10):
            table = random_normalized_table(5, 3, rng)
            phis = rng.uniform(0.2, 1.2, 4)
            ev = lambda p: q.loss_closed_form(table, p)
            grad = q.gradient(phis, ev, "exact-shift")
            h = 1e-5
            for m in range(4):
                e = np.zeros(4)
                e[m] = h
                fd = (ev(phis + e) - ev(phis - e)) / (2 * h)
                assert abs(grad[m] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_stationary_point(self, rng):
        table = random_normalized_table(3, 2, rng)
        phis = np.full(3, math.pi / 2)
        grad = q.gradient(phis, lambda p: q.loss_closed_form(table, p), "exact-shift")
        assert np.abs(grad).max() <= 1e-8

    def test_paper_two_term_evaluation_count(self, rng):
        table = random_normalized_table(8, 7, rng)
        calls = [0]

        def counting(p):
            calls[0] += 1
            return q.loss_closed_form(table, p)

        q.gradient(rng.uniform(0, 1, 8), counting, "two-term")
        assert calls[0] == 16

    def test_exact_shift_evaluation_count(self, rng):
        table = random_normalized_table(4, 3, rng)
        calls = [0]

        def counting(p):
            calls[0] += 1
            return q.loss_closed_form(table, p)

        q.gradient(rng.uniform(0, 1, 4), counting, "exact-shift")
        assert calls[0] == 1 + 4 * 4  # shared base plus four shifts per angle


class TestAdam:
    def test_zero_gradient_no_move(self):
        state = AdamState.initial(np.array([0.3, 0.4]))
        stepped = q.adam_step(state, np.zeros(2), 0.01)
        assert np.allclose(stepped.phis, state.phis)

    def test_first_step_magnitude(self):
        state = AdamState.initial(np.array([0.0]))
        stepped = q.adam_step(state, np.array([2.5]), 0.01)
        assert abs(stepped.phis[0] + 0.01) <= 1e-6  # ~ lr * sign(g)

    def test_constant_gradient_monotone(self):
        state = AdamState.initial(np.array([1.0]))
        values = [1.0]
        for _ in range(10):
            state = q.adam_step(state, np.array([0.7]), 0.05)
            values.append(float(state.phis[0]))
        assert all(b < a for a, b in zip(values, values[1:]))


class TestNelderMead:
    def test_quadratic_bowl(self):
        f = lambda v: float((v[0] - 1.5) ** 2 + 2.0 * (v[1] + 0.5) ** 2)
        x, fx, _ = q.nelder_mead_minimize(f, np.zeros(2), 200)
        assert np.abs(x - np.array([1.5, -0.5])).max() <= 1e-6

    def test_start_at_minimum_converges_fast(self):
        f = lambda v: float(v @ v)
        x, fx, used = q.nelder_mead_minimize(f, np.zeros(3), 500)
        assert fx <= 1e-10 and used < 500

    def test_comparable_to_adam_on_closed_form(self, rng):
        table, w = q.synthetic_linear_table(16, 2, noise=0.0, seed=9)
        train, _ = q.standardize(q.DataTable(table.values))
        ev = lambda p: q.loss_closed_form(train, p)
        start = initial_phis(3, np.random.default_rng(4))
        nm_x, _, _ = q.nelder_mead_minimize(ev, start, 400)
        state = AdamState.initial(start.copy())
        for _ in range(400):
            state = q.adam_step(state, q.gradient(state.phis, ev), 0.05)
        r2_nm = q.r2_score(train.response, train.features @ q.weights_from_phis(nm_x))
        r2_adam = q.r2_score(
            train.response, train.features @ q.weights_from_phis(state.phis)
        )
        assert abs(r2_nm - r2_adam) <= 0.05


class TestClassicalBaseline:
    def test_exact_linear_recovery(self):
        x1 = np.linspace(-1, 1, 12)
        table = q.DataTable(np.column_stack([2.0 * x1, x1]))
        fit = q.fit_classical_least_squares(table)
        assert abs(fit.weights[0] - 2.0) <= 1e-12 and abs(fit.train_r2 - 1.0) <= 1e-12

    def test_optimality_against_random_vectors(self, rng):
        table, _ = q.synthetic_linear_table(40, 3, noise=0.4, seed=2)
        train, _ = q.standardize(q.DataTable(table.values))
        fit = q.fit_classical_least_squares(train)
        for _ in range(100):
            w = rng.normal(size=3)
            r2 = q.r2_score(train.response, train.features @ w)
            assert r2 <= fit.train_r2 + 1e-12

    def test_rank_deficiency_warns(self):
        values = np.column_stack([np.arange(6.0), np.ones(6), np.ones(6)])
        with pytest.warns(UserWarning):
            q.fit_classical_least_squares(q.DataTable(values))


class TestR2:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert q.r2_score(y, y) == 1.0

    def test_mean_prediction_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert abs(q.r2_score(y, np.full(3, 2.0))) <= 1e-12

    def test_worse_than_mean_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert q.r2_score(y, np.array([3.0, 1.0, -2.0])) < 0.0

    def test_constant_truth_rejected(self):
        with pytest.raises(ValueError):
            q.r2_score(np.ones(4), np.zeros(4))


class TestTrainConfig:
    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"optimizer": "sgd"}, "optimizer"),
            ({"estimator": "shadows"}, "estimator"),
            ({"gradient_mode": "two_term"}, "gradient mode"),
            ({"shots": 0}, "shots"),
            ({"shadow_batches": 0}, "shadow batches"),
            ({"estimator": "shadow", "shots": 1001}, "divide evenly"),
            ({"iterations": -1}, "iterations"),
        ],
    )
    def test_bad_field_rejected_when_built(self, fields, message):
        with pytest.raises(ValueError, match=message):
            q.TrainConfig(**fields)

    def test_uneven_split_allowed_for_plain_or_exact(self):
        q.TrainConfig(estimator="xbasis", shots=1001)
        q.TrainConfig(estimator="shadow", shots=None)


class TestFitQuantum:
    def test_zero_iterations_returns_init(self, rng):
        table, _ = q.synthetic_linear_table(16, 3, seed=3)
        train, _ = q.standardize(q.DataTable(table.values))
        cfg = q.TrainConfig(iterations=0, shots=None, seed=5)
        model = q.fit_quantum(train, cfg)
        expected = initial_phis(4, np.random.default_rng(5))
        assert np.allclose(model.phis, expected)
        assert model.history == []

    def test_exact_mode_recovers_synthetic_weights(self):
        table, w_true = q.synthetic_linear_table(32, 3, noise=0.0, seed=11)
        train, test = q.split_rows(table, 0.75, seed=11)
        train_s, test_s = q.standardize(train, test)
        cfg = q.TrainConfig(
            learning_rate=0.05, iterations=300, batch_size=8, shots=None, seed=11
        )
        model = q.fit_quantum(train_s, cfg, test_s)
        std = train.values.std(axis=0)
        w_std = w_true * std[1:] / std[0]
        assert np.abs(model.weights - w_std).max() <= 0.05
        assert model.history[-1]["train_r2"] >= 0.95
        assert len(model.history) == cfg.iterations

    def test_deterministic_histories(self, rng):
        table, _ = q.synthetic_linear_table(16, 3, seed=3)
        train, _ = q.standardize(q.DataTable(table.values))
        cfg = q.TrainConfig(iterations=5, shots=None, seed=17)
        h1 = q.fit_quantum(train, cfg).history
        h2 = q.fit_quantum(train, cfg).history
        assert h1 == h2

    def test_sampled_mode_runs(self, rng):
        table, _ = q.synthetic_linear_table(8, 3, seed=3)
        train, _ = q.standardize(q.DataTable(table.values))
        cfg = q.TrainConfig(
            iterations=2,
            batch_size=8,
            shots=2000,
            gradient_mode="two-term",
            seed=3,
        )
        model = q.fit_quantum(train, cfg)
        assert len(model.history) == 2
        assert model.n_circuit_evaluations == 2 * (1 + 2 * 4)
        assert 0.0 < model.mean_success_probability <= 1.0
