"""Command-line surface: gate-count benchmarks, state-prep verification,
circuit-file optimization and end-to-end training runs.

Exit codes: 0 success, 2 input error, 3 estimator starvation, 4 capacity.
All file writes go through a temp-file rename so partial output never
lands under the final name.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .circuit import (
    _list,
    _number,
    _object,
    circuit_from_json,
    circuit_to_json,
    equivalent_up_to_phase,
    gate_counts,
)
from .data import DataTable, ingest_csv, layout_for, synthetic_linear_table
from .errors import CapacityError, EstimatorStarvedError
from .passes import optimize_pipeline
from .simulator import NoiseModel, default_noise, project, simulate
from .synthesis import (
    build_state_prep,
    naive_gate_count_formula,
    optimized_gate_count,
    synthesize_reference_real_state,
)
from .trainer import (
    TrainConfig,
    fit_classical_least_squares,
    fit_quantum,
    r2_score,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STARVED = 3
EXIT_CAPACITY = 4


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qregress-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config_defaults(parser: argparse.ArgumentParser, argv) -> None:
    """Apply --config file values as parser defaults; flags still override.
    A key that is not a train flag, or a value its flag would reject on the
    command line (a switch takes a JSON boolean), raises ValueError."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    with open(known.config) as fh:
        file_values = _object(json.load(fh), "a config file")
    flags = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    for key, value in file_values.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} is not a train flag")
        if action.nargs == 0 and type(value) is not bool:
            raise ValueError(f"config {key!r} must be true or false, got {value!r}")
        if isinstance(action, argparse._AppendAction):
            value = [_flag_value(action, key, v) for v in _list(value, f"config {key!r}")]
        elif action.nargs != 0:
            value = _flag_value(action, key, value)
        parser.set_defaults(**{action.dest: value})


def _flag_value(action: argparse.Action, key: str, value):
    """A config value run through its flag's ``type`` and ``choices``, as
    the text it would be on the command line."""
    if type(value) in (str, int, float):
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            out = action.type(text) if action.type else text
            if action.choices is None or out in action.choices:
                return out
        except ValueError:
            pass
    raise ValueError(f"config {key!r}: invalid value {value!r}")


# --- bench -------------------------------------------------------------------

def cmd_bench(args) -> int:
    ks = [int(k) for k in args.k.split(",")]
    m = args.m
    rng = np.random.default_rng(args.seed)
    rows = []
    for k in ks:
        if k < 1 or k & (k - 1):
            raise ValueError(f"K values must be powers of two, got {k}")
        formula = naive_gate_count_formula(k, m)
        built = _naive_counts_by_construction(k, m, rng)
        opt = optimized_gate_count(k, m)
        vec = rng.normal(size=k)
        vec /= np.linalg.norm(vec)
        prep, _, _ = build_state_prep(vec, normalize=False)
        prep_counts = gate_counts(prep)
        ref_counts = gate_counts(synthesize_reference_real_state(vec))
        rows.append(
            {
                "k": k,
                "m": m,
                "naive_formula_total": formula.total,
                "naive_built_total": built.total,
                "optimized_total": opt.total,
                "optimized_cnot": opt.cnot,
                "stateprep_total": prep_counts.total,
                "stateprep_cnot": prep_counts.cnot,
                "reference_total": ref_counts.total,
                "reference_cnot": ref_counts.cnot,
            }
        )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write(args.out, buf.getvalue())
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _naive_counts_by_construction(k: int, m: int, rng):
    from .synthesis import build_regression_circuit, decompose_all_mcrz

    cols = m + 1
    rows = max(1, k // cols)
    table = DataTable(rng.normal(size=(rows, cols))).normalized()
    phis = rng.uniform(0.0, math.pi, cols)
    naive, _ = build_regression_circuit(table, phis, "naive")
    return gate_counts(decompose_all_mcrz(naive))


# --- prepare -----------------------------------------------------------------

def cmd_prepare(args) -> int:
    vec = _read_vector(args.vector)
    circuit, rule, encoded = build_state_prep(vec, normalize=not args.no_normalize)
    counts = gate_counts(circuit)
    state = simulate(circuit)
    projected, prob = project(state, rule.qubit, rule.basis, rule.outcome)
    dim = 1 << (circuit.width - 1)
    post = projected[dim:]  # ancilla collapsed; read the data block
    post = post / np.linalg.norm(post)
    target = np.sin(encoded)
    target = target / np.linalg.norm(target)
    phase = _alignment_phase(post, target)
    err = float(np.abs(post * phase - target).max())
    report = {
        "input_length": len(vec),
        "encoded_dimension": int(encoded.shape[0]),
        "gate_counts": counts.as_dict(),
        "post_selection": {
            "qubit": rule.qubit,
            "basis": rule.basis,
            "outcome": rule.outcome,
        },
        "success_probability": prob,
        "max_amplitude_error": err,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        _atomic_write(args.out, text)
    if args.circuit_out:
        _atomic_write(args.circuit_out, circuit_to_json(circuit, indent=2))
    print(text)
    return EXIT_OK


def _alignment_phase(actual: np.ndarray, target: np.ndarray) -> complex:
    k = int(np.argmax(np.abs(target)))
    if abs(actual[k]) < 1e-14:
        return 1.0
    phase = target[k] / actual[k]
    return phase / abs(phase)


def _read_vector(path: str) -> np.ndarray:
    """A flat JSON list of JSON numbers, or whitespace-separated numbers."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return np.array([float(t) for t in text.split()])
    return np.array([_number(v, "a vector entry") for v in _list(data, "a vector file")])


# --- optimize ------------------------------------------------------------------

def cmd_optimize(args) -> int:
    with open(args.circuit) as fh:
        circuit = circuit_from_json(fh.read())
    if args.verify and circuit.width > 10:  # before any work or output
        raise CapacityError("--verify needs width <= 10")
    optimized, report = optimize_pipeline(circuit)
    _atomic_write(args.out, circuit_to_json(optimized, indent=2))
    payload = report.as_dict()
    if args.verify:
        payload["equivalent"] = equivalent_up_to_phase(circuit, optimized, 1e-9)
    if args.report:
        _atomic_write(args.report, json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# --- train ---------------------------------------------------------------------

def _resolve_tables(args):
    if args.data:
        return ingest_csv(args.data, args.target, args.seed, args.train_fraction)
    spec = args.synthetic or "64x7"
    rows, feats = (int(p) for p in spec.split("x"))
    table, _ = synthetic_linear_table(rows, feats, noise=args.synthetic_noise, seed=args.seed)
    from .data import split_rows, standardize

    train, test = split_rows(table, args.train_fraction, args.seed)
    return standardize(train, test)


def _noise_from_args(args, width: int) -> NoiseModel | None:
    if not args.noise:
        return None
    if args.noise == "default":
        return default_noise(width)
    with open(args.noise) as fh:
        noise = NoiseModel.from_json(fh.read())
    noise.readout_for(width)  # a short readout list fails before any output
    return noise


def cmd_train(args) -> int:
    train, test = _resolve_tables(args)
    models = args.model or ["exact"]
    layout = layout_for(min(args.batch, train.n_rows), train.n_features)
    noise = _noise_from_args(args, layout.width)
    os.makedirs(args.out, exist_ok=True)
    scale = train.normalized().scale
    _atomic_write(
        os.path.join(args.out, "layout.json"),
        json.dumps(layout.to_obj(scale=scale), indent=2),
    )
    baseline = fit_classical_least_squares(train)
    baseline_test_r2 = r2_score(test.response, test.features @ baseline.weights)
    report: dict = {
        "config": _train_config_echo(args),
        "baseline": {
            "weights": baseline.weights.tolist(),
            "train_r2": baseline.train_r2,
            "test_r2": baseline_test_r2,
        },
        "models": {},
    }
    for model_name in models:
        if model_name == "classical":
            history = [
                {
                    "iteration": 0,
                    "loss": float(
                        np.sum((train.response - train.features @ baseline.weights) ** 2)
                    ),
                    "train_r2": baseline.train_r2,
                    "test_r2": baseline_test_r2,
                }
            ]
            entry = {
                "weights": baseline.weights.tolist(),
                "train_r2": baseline.train_r2,
                "test_r2": baseline_test_r2,
            }
        else:
            config = TrainConfig(
                optimizer=args.optimizer,
                learning_rate=args.lr,
                iterations=args.iters,
                batch_size=args.batch,
                shots=None if (args.exact or model_name == "exact") else args.shots,
                gradient_mode="exact-shift" if args.grad == "exact" else "two-term",
                estimator=args.estimator,
                mitigate=args.mitigate,
                noise=None if model_name == "exact" else noise,
                seed=args.seed,
            )
            fitted = fit_quantum(train, config, test)
            history = fitted.history
            weights = (
                fitted.weights.tolist() if fitted.weights is not None else None
            )
            entry = {
                "weights": weights,
                "final_phis": fitted.phis.tolist(),
                "n_circuit_evaluations": fitted.n_circuit_evaluations,
                "mean_success_probability": fitted.mean_success_probability,
            }
            if history:
                entry["train_r2"] = history[-1]["train_r2"]
                entry["test_r2"] = history[-1]["test_r2"]
            if weights is not None:
                entry["weight_distances_to_baseline"] = [
                    abs(w - b) for w, b in zip(weights, baseline.weights)
                ]
        _write_history(os.path.join(args.out, f"history_{model_name}.csv"), history)
        report["models"][model_name] = entry
    _atomic_write(os.path.join(args.out, "report.json"), json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _write_history(path: str, history) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["iteration", "loss", "train_r2", "test_r2"])
    for row in history:
        writer.writerow(
            [row["iteration"], row["loss"], row["train_r2"], row["test_r2"]]
        )
    _atomic_write(path, buf.getvalue())


def _train_config_echo(args) -> dict:
    return {
        "data": args.data,
        "synthetic": args.synthetic,
        "synthetic_noise": args.synthetic_noise,
        "target": args.target,
        "train_fraction": args.train_fraction,
        "model": args.model,
        "iters": args.iters,
        "lr": args.lr,
        "batch": args.batch,
        "shots": args.shots,
        "exact": args.exact,
        "noise": args.noise,
        "mitigate": args.mitigate,
        "estimator": args.estimator,
        "optimizer": args.optimizer,
        "grad": args.grad,
        "seed": args.seed,
        "out": args.out,
    }


# --- parser --------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """Returns (parser, train subparser); the latter takes config-file defaults."""
    parser = argparse.ArgumentParser(
        prog="qregress",
        description="Encoded-regression circuit toolkit: build, optimize, simulate, train.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="gate-count scaling table")
    p_bench.add_argument("--k", default="4,8,16,32,64,128,256", help="comma-separated K values")
    p_bench.add_argument("--m", type=int, default=1, help="feature count")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default="bench.csv")
    p_bench.set_defaults(func=cmd_bench)

    p_prep = sub.add_parser("prepare", help="verify sign-encoded state preparation")
    p_prep.add_argument("vector", help="JSON list or whitespace-separated numbers")
    p_prep.add_argument("--no-normalize", action="store_true")
    p_prep.add_argument("--out", default=None, help="report JSON path")
    p_prep.add_argument("--circuit-out", default=None, help="circuit JSON path")
    p_prep.set_defaults(func=cmd_prepare)

    p_opt = sub.add_parser("optimize", help="optimize a circuit JSON file")
    p_opt.add_argument("circuit")
    p_opt.add_argument("--out", required=True)
    p_opt.add_argument("--report", default=None)
    p_opt.add_argument("--verify", action="store_true", help="oracle equivalence check")
    p_opt.set_defaults(func=cmd_optimize)

    p_train = sub.add_parser("train", help="train classical and encoded models")
    p_train.add_argument("--config", default=None, help="JSON file of flag defaults")
    p_train.add_argument("--data", default=None, help="CSV dataset path")
    p_train.add_argument("--target", default=None, help="response column name")
    p_train.add_argument("--synthetic", default=None, help="ROWSxFEATURES generator spec")
    p_train.add_argument("--synthetic-noise", type=float, default=0.05)
    p_train.add_argument("--train-fraction", type=float, default=0.64)
    p_train.add_argument(
        "--model",
        action="append",
        choices=["classical", "exact", "sampled"],
        help="repeatable; default exact",
    )
    p_train.add_argument("--iters", type=int, default=100)
    p_train.add_argument("--lr", type=float, default=0.01)
    p_train.add_argument("--batch", type=int, default=8)
    p_train.add_argument("--shots", type=int, default=20000)
    p_train.add_argument("--exact", action="store_true", help="exact expectations")
    p_train.add_argument("--noise", default=None, help="'default' or a JSON file")
    p_train.add_argument("--mitigate", action="store_true")
    p_train.add_argument(
        "--estimator",
        choices=["xbasis", "shadow"],
        default="xbasis",
        help="xbasis: plain post-selected frequencies; shadow: median of means "
        "over equal shot batches (a fixed-basis estimator, not classical shadows)",
    )
    p_train.add_argument("--optimizer", choices=["adam", "nelder-mead"], default="adam")
    p_train.add_argument("--grad", choices=["exact", "two-term"], default="exact")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", default="train-out")
    p_train.set_defaults(func=cmd_train)
    return parser, p_train


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, train_parser = build_parser()
    try:
        if argv and argv[0] == "train":
            _load_config_defaults(train_parser, argv)
        args = parser.parse_args(argv)
        if args.command == "train" and args.data and not args.target:
            parser.error("--target is required with --data")
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except EstimatorStarvedError as exc:
        print(f"estimator starved: {exc}", file=sys.stderr)
        return EXIT_STARVED
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
