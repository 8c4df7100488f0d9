"""Variational training loop, gradients, optimizers and baselines.

The model encodes a weight per column through cos(phi_m); the recovered
regression coefficient for feature m is W_m = -cos(phi_m) / cos(phi_0).
The loss of a table under angles phi is sum_l (sum_m x_lm cos phi_m)**2,
which the quantum estimator reproduces with sin-encoded entries.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import _block_circuit
from .data import DataTable, layout_for
from .errors import EstimatorStarvedError
from .simulator import NoiseModel, _data_slice, loss_from_run
from .synthesis import _checked_phis, _phi_block, build_regression_circuit

_DEGENERATE_COS = 1e-9


def weights_from_phis(phis) -> np.ndarray:
    """Regression coefficients W_m = -cos(phi_m) / cos(phi_0), m >= 1."""
    phis = np.asarray(phis, dtype=float)
    c0 = math.cos(phis[0])
    if abs(c0) <= _DEGENERATE_COS:
        raise ValueError("cos(phi_0) is numerically zero; weights are undefined")
    return -np.cos(phis[1:]) / c0


def loss_closed_form(table: DataTable, phis) -> float:
    """sum_l (sum_m x_lm cos phi_m)**2 over the table entries."""
    c = np.cos(np.asarray(phis, dtype=float))
    if c.shape[0] != table.values.shape[1]:
        raise ValueError("need one angle per table column")
    residual = table.values @ c
    return float(residual @ residual)


# --- gradients ----------------------------------------------------------------

# Five-point trigonometric fit: the loss restricted to one angle is
# a + b cos s + c sin s + d cos 2s + e sin 2s in the shift s, so five
# evaluations determine it and d/ds at 0 is c + 2e.
_SHIFTS = (0.0, math.pi / 2, -math.pi / 2, math.pi / 4, -math.pi / 4)
_DESIGN = np.array(
    [[1.0, math.cos(s), math.sin(s), math.cos(2 * s), math.sin(2 * s)] for s in _SHIFTS]
)
_DERIV_WEIGHTS = np.linalg.solve(_DESIGN.T, np.array([0.0, 0.0, 1.0, 0.0, 2.0]))


def gradient(phis, evaluator, mode: str = "exact-shift", base_loss: float | None = None):
    """Gradient of an arbitrary loss oracle at ``phis``.

    'exact-shift' reconstructs the degree-2 trigonometric dependence per
    parameter from four shifted evaluations (plus one shared base value)
    and differentiates it exactly.  'two-term' is the plain two-point
    rule (E(+pi/2) - E(-pi/2)) / 2 with exactly two evaluations per
    parameter; it is biased for losses with frequency-2 terms.
    """
    phis = np.asarray(phis, dtype=float)
    grad = np.empty_like(phis)
    if mode == "two-term":
        for m in range(phis.shape[0]):
            up = _shifted(phis, m, math.pi / 2)
            dn = _shifted(phis, m, -math.pi / 2)
            grad[m] = 0.5 * (evaluator(up) - evaluator(dn))
        return grad
    if mode != "exact-shift":
        raise ValueError("mode must be 'exact-shift' or 'two-term'")
    if base_loss is None:
        base_loss = evaluator(phis)
    for m in range(phis.shape[0]):
        values = np.empty(5)
        values[0] = base_loss
        for i, s in enumerate(_SHIFTS[1:], start=1):
            values[i] = evaluator(_shifted(phis, m, s))
        grad[m] = float(_DERIV_WEIGHTS @ values)
    return grad


def _shifted(phis: np.ndarray, index: int, shift: float) -> np.ndarray:
    out = phis.copy()
    out[index] += shift
    return out


# --- optimizers -----------------------------------------------------------------

@dataclass(frozen=True)
class AdamState:
    phis: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def initial(cls, phis) -> "AdamState":
        phis = np.asarray(phis, dtype=float)
        return cls(phis, np.zeros_like(phis), np.zeros_like(phis), 0)


def adam_step(
    state: AdamState,
    grad,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """One bias-corrected first/second-moment update."""
    grad = np.asarray(grad, dtype=float)
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    phis = state.phis - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return AdamState(phis, m, v, t)


def nelder_mead_minimize(
    loss_fn,
    x0,
    iterations: int,
    step: float = 0.1,
    diameter_tol: float = 1e-8,
    callback=None,
):
    """Plain simplex search: reflection 1, expansion 2, contraction 0.5,
    shrink 0.5, initial per-axis step 0.1.  Stops at the iteration cap or
    when the simplex diameter falls below ``diameter_tol``.  Returns
    (best point, best value, iterations used)."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    simplex = [x0.copy()]
    for i in range(n):
        v = x0.copy()
        v[i] += step
        simplex.append(v)
    values = [loss_fn(v) for v in simplex]
    used = 0
    for it in range(iterations):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(np.linalg.norm(v - simplex[0]) for v in simplex[1:])
        if callback is not None:
            callback(it, simplex[0], values[0])
        used = it + 1
        if diameter < diameter_tol:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = loss_fn(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = loss_fn(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_c = loss_fn(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                best = simplex[0]
                simplex = [best] + [best + 0.5 * (v - best) for v in simplex[1:]]
                values = [values[0]] + [loss_fn(v) for v in simplex[1:]]
    order = np.argsort(values)
    return simplex[order[0]], values[order[0]], used


# --- classical baseline ----------------------------------------------------------

def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.shape[0] < 2:
        raise ValueError("need two equal-length vectors of at least 2 entries")
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot <= 0.0:
        raise ValueError("constant y_true has no explainable variance")
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class ClassicalFit:
    weights: np.ndarray
    train_r2: float


def fit_classical_least_squares(table: DataTable) -> ClassicalFit:
    """Closed-form least squares of response on features (no intercept;
    use standardized tables).  Rank-deficient designs fall back to the
    pseudo-inverse with a warning."""
    feats, y = table.features, table.response
    w, _, rank, _ = np.linalg.lstsq(feats, y, rcond=None)
    if rank < table.n_features:
        warnings.warn("rank-deficient feature matrix; using the pseudo-inverse", stacklevel=2)
        w = np.linalg.pinv(feats) @ y
    return ClassicalFit(w, r2_score(y, feats @ w))


# --- quantum training loop --------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"  # or "nelder-mead"
    learning_rate: float = 0.01
    iterations: int = 100
    batch_size: int = 8
    shots: int | None = 20000  # None = exact statevector mode
    gradient_mode: str = "exact-shift"  # or "two-term"
    # "shadow" is median-of-means over shadow_batches equal shot groups,
    # all in one fixed basis (not classical shadows); "xbasis" is plain
    estimator: str = "xbasis"  # or "shadow"
    shadow_batches: int = 10
    mitigate: bool = False
    noise: NoiseModel | None = None
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("adam", "nelder-mead"):
            raise ValueError("optimizer must be 'adam' or 'nelder-mead'")
        if self.estimator not in ("xbasis", "shadow"):
            raise ValueError("estimator must be 'xbasis' or 'shadow'")
        if self.gradient_mode not in ("exact-shift", "two-term"):
            raise ValueError("gradient mode must be 'exact-shift' or 'two-term'")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be at least 1, or None for exact mode")
        if self.shadow_batches < 1:
            raise ValueError("shadow batches must be at least 1")
        if (
            self.estimator == "shadow"
            and self.shots is not None
            and self.shots % self.shadow_batches
        ):
            raise ValueError("shots must divide evenly across shadow batches")

    def as_dict(self) -> dict:
        return {
            "optimizer": self.optimizer,
            "learning_rate": self.learning_rate,
            "iterations": self.iterations,
            "batch_size": self.batch_size,
            "shots": self.shots,
            "gradient_mode": self.gradient_mode,
            "estimator": self.estimator,
            "shadow_batches": self.shadow_batches,
            "mitigate": self.mitigate,
            "noise": None if self.noise is None else self.noise.to_json(),
            "seed": self.seed,
        }


@dataclass
class TrainedModel:
    phis: np.ndarray
    weights: np.ndarray | None
    history: list[dict]
    # mean data-prep ancilla success over every evaluation, None before any
    mean_success_probability: float | None = None
    n_circuit_evaluations: int = 0
    config: TrainConfig | None = None


class _Evaluator:
    """Loss oracle for one normalized batch; counts every circuit run.

    The first call builds the batch's circuit.  Later calls build only the
    coefficient block, with the builder's checks and errors, and reuse the
    data block.  In exact mode the first call also computes the batch's
    ``simulator._data_slice`` (M and the success probability), which every
    call hands to ``loss_from_run`` on the circuit it builds, so each exact
    loss is one small contraction.  The slice lives as long as the
    evaluator; the circuits that carry it are dropped after each call.
    """

    def __init__(self, batch: DataTable, config: TrainConfig, confusion, seed_base: int):
        self.batch = batch
        self.config = config
        self.confusion = confusion
        self.seed_base = seed_base
        self.calls = 0
        self.success: list[float] = []
        self.layout = None
        self.data_block = None
        self.data_slice = None

    def __call__(self, phis) -> float:
        if self.layout is None:
            circ, self.layout = build_regression_circuit(self.batch, phis, "optimized")
            self.data_block, phi_block = circ._blocks
            if self.config.shots is None:
                self.data_slice = _data_slice(circ, self.layout)
        else:
            phis = _checked_phis(phis, self.batch.n_features + 1)
            phi_block = _phi_block(phis, self.layout)
        circ = _block_circuit(
            self.layout.width, (self.data_block, phi_block), self.data_slice
        )
        layout = self.layout
        cfg = self.config
        self.calls += 1
        if cfg.shots is None:
            est = loss_from_run(circ, layout)
        else:
            est = loss_from_run(
                circ,
                layout,
                cfg.shots,
                seed=self.seed_base + self.calls,
                noise=cfg.noise,
                estimator=cfg.estimator,
                batches=cfg.shadow_batches,
                confusion=self.confusion,
            )
        self.success.append(est.success_probability)
        return est.loss


def initial_phis(n_angles: int, rng) -> np.ndarray:
    """Uniform draw around pi/4 so every cos(phi) starts well away from 0."""
    return rng.uniform(math.pi / 4 - 0.2, math.pi / 4 + 0.2, size=n_angles)


def _history_entry(iteration, loss, phis, train: DataTable, test: DataTable | None):
    try:
        w = weights_from_phis(phis)
        train_r2 = r2_score(train.response, train.features @ w)
        test_r2 = (
            r2_score(test.response, test.features @ w) if test is not None else None
        )
    except ValueError:
        train_r2, test_r2 = float("nan"), float("nan") if test is not None else None
    return {
        "iteration": iteration,
        "loss": loss,
        "train_r2": train_r2,
        "test_r2": test_r2,
    }


def _confusion_for(config: TrainConfig, width: int):
    if not config.mitigate or config.shots is None:
        return None
    from .mitigation import calibrate_readout

    noise = config.noise
    if noise is None:
        return None
    return calibrate_readout(noise, width, 10000, seed=config.seed + 991)


def fit_quantum(
    train: DataTable, config: TrainConfig, test: DataTable | None = None
) -> TrainedModel:
    """Train the encoded model on ``train`` (standardized values).

    Each iteration partitions the rows into batches of ``batch_size``,
    builds one folded circuit per batch on its unit-normalized slice,
    averages the per-batch gradients and takes one optimizer step.  An
    iteration whose estimator starves is skipped with a warning.
    """
    rng = np.random.default_rng(config.seed)
    phis = initial_phis(train.n_features + 1, rng)
    layout = layout_for(min(config.batch_size, train.n_rows), train.n_features)
    confusion = _confusion_for(config, layout.width)
    model = TrainedModel(phis=phis, weights=None, history=[], config=config)
    if config.optimizer == "nelder-mead":
        return _fit_nelder_mead(train, test, config, phis, confusion, rng, model)

    successes: list[float] = []
    state = AdamState.initial(phis)
    n_batches = max(1, train.n_rows // config.batch_size)
    for it in range(config.iterations):
        perm = rng.permutation(train.n_rows)
        grads, losses = [], []
        starved = False
        for b in range(n_batches):
            idx = perm[b * config.batch_size : (b + 1) * config.batch_size]
            batch = train.rows(idx).normalized()
            ev = _Evaluator(batch, config, confusion, _eval_seed(config.seed, it, b))
            try:
                base = ev(state.phis)
                if config.gradient_mode == "two-term":
                    grads.append(gradient(state.phis, ev, "two-term"))
                else:
                    grads.append(
                        gradient(state.phis, ev, "exact-shift", base_loss=base)
                    )
                losses.append(base)
            except EstimatorStarvedError:
                starved = True
            model.n_circuit_evaluations += ev.calls
            successes.extend(ev.success)
            if starved:
                break
        if starved or not grads:
            warnings.warn(f"iteration {it}: estimator starved, skipping", stacklevel=2)
            model.history.append(
                _history_entry(it, float("nan"), state.phis, train, test)
            )
            continue
        state = adam_step(state, np.mean(grads, axis=0), config.learning_rate)
        model.history.append(
            _history_entry(it, float(np.mean(losses)), state.phis, train, test)
        )
    model.phis = state.phis
    model.weights = _safe_weights(state.phis)
    return _with_mean_success(model, successes)


def _with_mean_success(model: TrainedModel, successes: list[float]) -> TrainedModel:
    """Keep only the mean of a fit's per-evaluation success probabilities."""
    model.mean_success_probability = float(np.mean(successes)) if successes else None
    return model


def _fit_nelder_mead(train, test, config, phis, confusion, rng, model) -> TrainedModel:
    n_batches = max(1, train.n_rows // config.batch_size)
    perm = rng.permutation(train.n_rows)
    evaluators = []
    for b in range(n_batches):
        idx = perm[b * config.batch_size : (b + 1) * config.batch_size]
        batch = train.rows(idx).normalized()
        evaluators.append(
            _Evaluator(batch, config, confusion, _eval_seed(config.seed, 0, b))
        )

    starved_penalty = 2.0 ** (train.n_features + 1)  # pessimistic stand-in loss

    def objective(p):
        total = 0.0
        for ev in evaluators:
            try:
                total += ev(p)
            except EstimatorStarvedError:
                total += starved_penalty
        return total / len(evaluators)

    def record(it, best, value):
        model.history.append(_history_entry(it, value, best, train, test))

    best, _, _ = nelder_mead_minimize(
        objective, phis, config.iterations, callback=record
    )
    successes: list[float] = []
    for ev in evaluators:
        model.n_circuit_evaluations += ev.calls
        successes.extend(ev.success)
    model.phis = best
    model.weights = _safe_weights(best)
    return _with_mean_success(model, successes)


def _safe_weights(phis):
    try:
        return weights_from_phis(phis)
    except ValueError:
        warnings.warn("final angles are weight-degenerate", stacklevel=2)
        return None


def _eval_seed(seed: int, iteration: int, batch: int) -> int:
    return ((seed * 1000003 + iteration) * 1000003 + batch * 131071) % (2**63)
