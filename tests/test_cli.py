import csv
import json
import os

import numpy as np
import pytest

import qregress as q
from qregress.cli import main


def run_cli(args):
    return main(list(args))


class TestIngest:
    def _write_csv(self, path, n_rows=40, seed=0):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n_rows, 3))
        y = feats @ np.array([0.5, -0.2, 0.8]) + 0.05 * rng.normal(size=n_rows)
        with open(path, "w") as fh:
            fh.write("f1,f2,f3,target\n")
            for row, yy in zip(feats, y):
                fh.write(",".join(f"{v:.8f}" for v in row) + f",{yy:.8f}\n")

    def test_split_sizes(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write_csv(path, n_rows=400)
        train, test = q.ingest_csv(path, "target", split_seed=3, train_fraction=0.64)
        assert train.n_rows == 256 and test.n_rows == 144

    def test_target_moved_to_front_and_standardized(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write_csv(path)
        train, test = q.ingest_csv(path, "target", split_seed=3, train_fraction=0.5)
        assert abs(train.values.mean(axis=0)).max() <= 1e-12
        assert np.abs(train.values.std(axis=0) - 1.0).max() <= 1e-12

    def test_same_seed_identical_tables(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write_csv(path)
        a_train, a_test = q.ingest_csv(path, "target", 9, 0.5)
        b_train, b_test = q.ingest_csv(path, "target", 9, 0.5)
        assert a_train.to_json() == b_train.to_json()
        assert a_test.to_json() == b_test.to_json()

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write_csv(path)
        with pytest.raises(ValueError):
            q.ingest_csv(path, "nope", 1, 0.5)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,x\n2.0,3.0\n")
        with pytest.raises(ValueError):
            q.ingest_csv(path, "b", 1, 0.5)

    def test_constant_column_warns(self, tmp_path):
        path = tmp_path / "const.csv"
        rows = ["a,b,t"] + [f"1.0,{i}.0,{2*i}.0" for i in range(10)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.warns(UserWarning):
            q.ingest_csv(path, "t", 1, 0.5)


class TestBench:
    def test_csv_columns_and_invariants(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli(["bench", "--k", "4,8,16", "--m", "1", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert int(row["naive_formula_total"]) == int(row["naive_built_total"])
            k = int(row["k"])
            assert int(row["optimized_total"]) == 2 * (k + 2)
            assert int(row["k"]) > 0 and int(row["reference_total"]) > 0

    def test_rejects_non_power_of_two(self, tmp_path):
        assert run_cli(["bench", "--k", "5", "--out", str(tmp_path / "x.csv")]) == 2


class TestPrepare:
    def test_uniform_vector_report(self, tmp_path):
        vec = tmp_path / "vec.json"
        vec.write_text(json.dumps([0.3536] * 8))
        out = tmp_path / "report.json"
        circ_out = tmp_path / "circ.json"
        code = run_cli(
            ["prepare", str(vec), "--out", str(out), "--circuit-out", str(circ_out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["max_amplitude_error"] <= 1e-10
        sin_val = np.sin(1 / np.sqrt(8))
        assert abs(report["success_probability"] - sin_val**2) <= 1e-9
        circ = q.circuit_from_json(circ_out.read_text())
        assert circ.width == 4

    def test_basis_vector(self, tmp_path):
        vec = tmp_path / "vec.json"
        vec.write_text(json.dumps([1.0, 0.0, 0.0, 0.0]))
        out = tmp_path / "report.json"
        assert run_cli(["prepare", str(vec), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_amplitude_error"] <= 1e-10

    def test_dim64_success_probability_reported(self, tmp_path, rng):
        x = rng.normal(size=64)
        x /= np.linalg.norm(x)
        vec = tmp_path / "vec.json"
        vec.write_text(json.dumps(list(x)))
        out = tmp_path / "report.json"
        assert run_cli(["prepare", str(vec), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert abs(report["success_probability"] - 1 / 64) <= 0.2 / 64

    def test_zero_vector_exit_code(self, tmp_path):
        vec = tmp_path / "vec.json"
        vec.write_text(json.dumps([0.0, 0.0]))
        assert run_cli(["prepare", str(vec)]) == 2

    def test_circuit_out_without_out(self, tmp_path):
        vec = tmp_path / "vec.json"
        vec.write_text(json.dumps([0.5, -0.25, 0.75]))
        circ_out = tmp_path / "circ.json"
        assert run_cli(["prepare", str(vec), "--circuit-out", str(circ_out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["circ.json", "vec.json"]
        circ = q.circuit_from_json(circ_out.read_text())
        assert circ.gates == q.build_state_prep([0.5, -0.25, 0.75])[0].gates

    @pytest.mark.parametrize(
        "payload",
        [["0.5", True, 1], {"a": 1}, [[0.5, 1], [2, 3]]],
        ids=["string-and-bool-entries", "object", "nested-lists"],
    )
    def test_vector_file_must_be_flat_numbers(self, tmp_path, payload):
        vec = tmp_path / "vec.json"
        vec.write_text(json.dumps(payload))
        assert run_cli(["prepare", str(vec), "--out", str(tmp_path / "r.json")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vec.json"]

    def test_whitespace_separated_vector(self, tmp_path):
        vec = tmp_path / "vec.txt"
        vec.write_text("0.5 -0.25\n0.75\n")
        out = tmp_path / "r.json"
        assert run_cli(["prepare", str(vec), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["input_length"] == 3


class TestOptimize:
    def test_small_encoder_file(self, tmp_path, rng):
        table = q.DataTable(rng.normal(size=(2, 2))).normalized()
        naive, _ = q.build_regression_circuit(table, rng.uniform(0, 1, 2), "naive")
        src = tmp_path / "naive.json"
        src.write_text(q.circuit_to_json(naive))
        dst = tmp_path / "opt.json"
        report_path = tmp_path / "report.json"
        code = run_cli(
            [
                "optimize",
                str(src),
                "--out",
                str(dst),
                "--report",
                str(report_path),
                "--verify",
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["equivalent"] is True
        optimized = q.circuit_from_json(dst.read_text())
        assert q.gate_counts(optimized).total == 12

    def test_empty_circuit(self, tmp_path):
        src = tmp_path / "empty.json"
        src.write_text(q.circuit_to_json(q.new_circuit(2)))
        dst = tmp_path / "out.json"
        assert run_cli(["optimize", str(src), "--out", str(dst)]) == 0
        assert len(q.circuit_from_json(dst.read_text())) == 0

    def test_idempotent_at_file_level(self, tmp_path, rng):
        table = q.DataTable(rng.normal(size=(2, 2))).normalized()
        naive, _ = q.build_regression_circuit(table, rng.uniform(0, 1, 2), "naive")
        src = tmp_path / "a.json"
        src.write_text(q.circuit_to_json(naive))
        mid = tmp_path / "b.json"
        final = tmp_path / "c.json"
        assert run_cli(["optimize", str(src), "--out", str(mid)]) == 0
        assert run_cli(["optimize", str(mid), "--out", str(final)]) == 0
        assert mid.read_text() == final.read_text()

    def test_verify_too_wide_writes_nothing(self, tmp_path):
        wide = q.new_circuit(12).extended(q.h(w) for w in range(12))
        src = tmp_path / "wide.json"
        src.write_text(q.circuit_to_json(wide))
        dst, report_path = tmp_path / "out.json", tmp_path / "report.json"
        argv = ["optimize", str(src), "--out", str(dst), "--report", str(report_path), "--verify"]
        assert run_cli(argv) == 4
        assert not dst.exists() and not report_path.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.json"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"width": 3.9, "gates": []},
            {"width": 3, "gates": [{"kind": "x", "qubit": 2.7}]},
            {"width": 3, "gates": [{"kind": "x", "qubit": True}]},
            {"width": 3, "gates": [{"kind": "x", "qubit": "0"}]},
        ],
        ids=["float-width", "float-qubit", "bool-qubit", "string-qubit"],
    )
    def test_non_integer_index_exit_code(self, tmp_path, payload):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(payload))
        assert run_cli(["optimize", str(src), "--out", str(tmp_path / "o.json")]) == 2
        assert not (tmp_path / "o.json").exists()

    def test_malformed_json_exit_code(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text("{not json")
        assert run_cli(["optimize", str(src), "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "[1,2]",
            '{"width": 1, "gates": [5]}',
            '{"width": 1, "gates": [{"kind": "rz", "qubit": 0, "angle": "0.5"}]}',
            '{"width": 1, "gates": [{"kind": "rz", "qubit": 0, "angle": true}]}',
        ],
        ids=["list-top-level", "int-gate-entry", "string-angle", "bool-angle"],
    )
    def test_malformed_circuit_file_exit_code(self, tmp_path, text):
        src = tmp_path / "bad.json"
        src.write_text(text)
        assert run_cli(["optimize", str(src), "--out", str(tmp_path / "o.json")]) == 2
        assert not (tmp_path / "o.json").exists()


class TestTrain:
    def test_zero_iterations_exit_zero(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            [
                "train",
                "--synthetic",
                "16x3",
                "--iters",
                "0",
                "--exact",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "exact" in report["models"]
        assert (out / "history_exact.csv").exists()

    def test_classical_model_history(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            [
                "train",
                "--synthetic",
                "32x3",
                "--model",
                "classical",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out / "history_classical.csv") as fh:
            header = fh.readline().strip()
        assert header == "iteration,loss,train_r2,test_r2"
        report = json.loads((out / "report.json").read_text())
        assert report["models"]["classical"]["train_r2"] > 0.9

    def test_config_file_defaults_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iters": 0, "synthetic": "16x3", "seed": 9}))
        out = tmp_path / "run"
        code = run_cli(
            ["train", "--config", str(cfg), "--exact", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["iters"] == 0 and report["config"]["seed"] == 9

    @pytest.mark.parametrize(
        "values",
        [{"iters": 2.7}, {"iter": 3}],
        ids=["non-integer-iters", "unknown-key"],
    )
    def test_bad_config_file_is_input_error(self, tmp_path, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic": "16x1", **values}))
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(cfg), "--exact", "--out", str(out)]) == 2
        assert not (out / "layout.json").exists()

    def test_exact_training_improves_r2(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            [
                "train",
                "--synthetic",
                "32x3",
                "--iters",
                "150",
                "--lr",
                "0.05",
                "--exact",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out / "history_exact.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["train_r2"]) > 0.9
        assert float(rows[-1]["train_r2"]) > float(rows[0]["train_r2"])

    def test_missing_data_file_exit_code(self, tmp_path):
        code = run_cli(
            [
                "train",
                "--data",
                str(tmp_path / "absent.csv"),
                "--target",
                "y",
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == 2

    def test_uneven_shadow_split_is_input_error(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            [
                "train", "--synthetic", "16x1", "--model", "sampled",
                "--estimator", "shadow", "--shots", "1001", "--noise", "default",
                "--mitigate", "--out", str(out),
            ]
        )
        assert code == 2
        assert not (out / "report.json").exists()

    def test_short_readout_noise_file_is_input_error(self, tmp_path):
        noise = tmp_path / "short.json"
        noise.write_text(q.NoiseModel(p1=0.001, p2=0.001, readout=((0.02, 0.02),) * 2).to_json())
        out = tmp_path / "run"
        code = run_cli(
            [
                "train", "--synthetic", "16x1", "--model", "sampled",
                "--shots", "1000", "--noise", str(noise), "--out", str(out),
            ]
        )
        assert code == 2
        assert not (out / "report.json").exists()
        assert not (out / "layout.json").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[1]",
            '{"readout": [1]}',
            '{"readout": [[0.02, 0.02]]}',
            '{"p1": "0.1"}',
            '{"p1": true}',
        ],
        ids=["list-top-level", "int-readout-entry", "list-readout-entry", "string-p1", "bool-p1"],
    )
    def test_malformed_noise_file_is_input_error(self, tmp_path, text):
        noise = tmp_path / "n.json"
        noise.write_text(text)
        out = tmp_path / "run"
        code = run_cli(
            [
                "train", "--synthetic", "16x1", "--model", "sampled",
                "--shots", "1000", "--noise", str(noise), "--out", str(out),
            ]
        )
        assert code == 2
        assert not (out / "layout.json").exists()


@pytest.mark.slow
class TestSeededStudies:
    def test_full_post_processing_flag_stack(self, tmp_path):
        # the complete sampled pipeline through the CLI: noise model, readout
        # correction, median-of-means estimation, simplex optimizer
        out = tmp_path / "run"
        code = run_cli(
            [
                "train",
                "--synthetic",
                "32x1",
                "--model",
                "sampled",
                "--optimizer",
                "nelder-mead",
                "--estimator",
                "shadow",
                "--noise",
                "default",
                "--mitigate",
                "--iters",
                "40",
                "--shots",
                "10000",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["models"]["sampled"]
        assert entry["n_circuit_evaluations"] > 40
        assert 0.0 < entry["mean_success_probability"] < 0.5
        with open(out / "history_sampled.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
