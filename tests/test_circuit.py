import math

import numpy as np
import pytest

import qregress as q
from qregress import circuit as cir
from qregress.errors import CapacityError

from conftest import max_unitary_distance, random_circuit


class TestConstruction:
    def test_new_circuit_empty(self):
        c = q.new_circuit(4)
        assert c.width == 4 and len(c) == 0

    def test_new_circuit_eight_qubit_layout(self):
        assert q.new_circuit(8).width == 8

    def test_new_circuit_zero_width_rejected(self):
        with pytest.raises(ValueError):
            q.new_circuit(0)

    def test_append_returns_new_circuit(self):
        empty = q.new_circuit(2)
        one = empty.append(q.cnot(0, 1))
        assert len(empty) == 0 and len(one) == 1

    def test_append_rejects_control_equal_target(self):
        with pytest.raises(ValueError):
            q.new_circuit(2).append(q.Gate("cnot", (1, 1)))

    def test_cnot_factory_rejects_control_equal_target(self):
        with pytest.raises(ValueError):
            q.cnot(1, 1)

    def test_append_mcrz_three_controls(self):
        c = q.new_circuit(4).append(q.mcrz([0, 1, 2], 3, 0.5))
        assert len(c) == 1 and c.gates[0].controls == (0, 1, 2)

    def test_mcrz_duplicate_controls_rejected(self):
        with pytest.raises(ValueError):
            q.mcrz([0, 0], 2, 0.1)

    def test_mcrz_target_in_controls_rejected(self):
        with pytest.raises(ValueError):
            q.mcrz([0, 1], 1, 0.1)

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError):
            q.new_circuit(2).append(q.h(2))

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            q.rz(0, float("nan"))

    def test_append_and_extended_validate_only_the_new_gates(self, monkeypatch):
        base = q.new_circuit(3).extended([q.h(0), q.cnot(0, 1), q.rz(2, 0.5)])
        calls = []
        validate = cir._validate_gate
        monkeypatch.setattr(cir, "_validate_gate", lambda g, w: calls.append(g) or validate(g, w))
        gate = q.x(2)
        longer = base.append(gate)
        assert calls == [gate]
        calls.clear()
        new = [q.rx(1, 0.25), q.mcrz([0, 1], 2, 0.5)]
        again = longer.extended(iter(new))
        assert calls == new
        assert again.gates == base.gates + (gate, *new)
        assert type(again.gates) is tuple and again.width == 3

    def test_extended_rejects_an_invalid_new_gate(self):
        base = q.new_circuit(2).append(q.h(0))
        with pytest.raises(ValueError, match="qubit 2 out of range for width 2"):
            base.extended([q.x(1), q.h(2)])
        with pytest.raises(ValueError, match="cnot control and target must differ"):
            base.append(q.Gate("cnot", (1, 1)))


class TestCounts:
    def test_empty_circuit_all_zero(self):
        report = q.gate_counts(q.new_circuit(3))
        assert report.total == 0 and not report.non_elementary

    def test_three_control_decomposition_counts(self):
        dec = q.decompose_mcrz(q.mcrz([0, 1, 2], 3, 0.3))
        report = q.gate_counts(dec)
        assert report.cnot == 8 and report.rz == 8 and report.total == 16

    def test_optimized_k64_m7_counts(self, rng):
        table = q.DataTable(rng.normal(size=(8, 8))).normalized()
        circ, _ = q.build_regression_circuit(table, rng.uniform(0, 1, 8), "optimized")
        report = q.gate_counts(circ)
        assert report.rx == 72 and report.cnot == 72
        assert report.x == report.h == report.mcrz == 0

    def test_mcrz_flagged_non_elementary(self):
        c = q.new_circuit(3).append(q.mcrz([0], 2, 0.1))
        assert q.gate_counts(c).non_elementary

    def test_additive_under_concatenation(self, rng):
        a = random_circuit(3, 12, rng)
        b = random_circuit(3, 9, rng)
        joined = a.extended(b.gates)
        assert q.gate_counts(joined).as_dict() == (
            q.gate_counts(a) + q.gate_counts(b)
        ).as_dict()


class TestUnitaryOracle:
    def test_hadamard_matrix(self):
        u = q.unitary_of(q.new_circuit(1).append(q.h(0)))
        s = 1 / math.sqrt(2)
        assert np.abs(u - np.array([[s, s], [s, -s]])).max() < 1e-15

    def test_rz_convention(self):
        theta = 0.77
        u = q.unitary_of(q.new_circuit(1).append(q.rz(0, theta)))
        expected = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        assert np.abs(u - expected).max() < 1e-15

    def test_rx_convention(self):
        theta = 1.21
        u = q.unitary_of(q.new_circuit(1).append(q.rx(0, theta)))
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        expected = np.array([[c, -1j * s], [-1j * s, c]])
        assert np.abs(u - expected).max() < 1e-15

    def test_gate_order_semantics(self, rng):
        c = q.new_circuit(2).append(q.h(0)).append(q.cnot(0, 1))
        u1 = q.unitary_of(q.new_circuit(2).append(q.h(0)))
        u2 = q.unitary_of(q.new_circuit(2).append(q.cnot(0, 1)))
        assert np.abs(q.unitary_of(c) - u2 @ u1).max() < 1e-12

    def test_random_circuits_unitary(self, rng):
        for _ in range(25):
            width = int(rng.integers(1, 7))
            c = random_circuit(width, int(rng.integers(1, 30)), rng)
            if width >= 2:
                c = c.append(q.mcrz(list(range(width - 1)), width - 1, 0.3))
            u = q.unitary_of(c)
            assert np.abs(u.conj().T @ u - np.eye(2**width)).max() <= 1e-10

    def test_width_capacity_guard(self):
        with pytest.raises(CapacityError):
            q.unitary_of(q.new_circuit(11))

    def test_decomposition_matches_node_up_to_phase(self):
        gate = q.mcrz([0, 1, 2], 3, 1.234)
        left = q.new_circuit(4).append(gate)
        right = q.decompose_mcrz(gate)
        u_l, u_r = q.unitary_of(left), q.unitary_of(right)
        assert max_unitary_distance(u_l, u_r) <= 1e-10


class TestEquivalence:
    def test_reflexive(self, rng):
        c = random_circuit(3, 15, rng)
        assert q.equivalent_up_to_phase(c, c, 1e-12)

    def test_symmetric(self, rng):
        a = random_circuit(3, 10, rng)
        b, _ = q.push_paulis(a)
        assert q.equivalent_up_to_phase(a, b, 1e-9)
        assert q.equivalent_up_to_phase(b, a, 1e-9)

    def test_decomposition_equivalent(self):
        gate = q.mcrz([0, 1, 2], 3, 0.9)
        assert q.equivalent_up_to_phase(
            q.new_circuit(4).append(gate), q.decompose_mcrz(gate), 1e-9
        )

    def test_x_not_equivalent_h(self):
        a = q.new_circuit(1).append(q.x(0))
        b = q.new_circuit(1).append(q.h(0))
        assert not q.equivalent_up_to_phase(a, b, 1e-9)

    def test_invariant_under_common_suffix(self, rng):
        a = random_circuit(2, 8, rng)
        b, _ = q.push_paulis(a)
        g = q.rz(0, 0.3)
        assert q.equivalent_up_to_phase(a.append(g), b.append(g), 1e-9)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            q.equivalent_up_to_phase(q.new_circuit(1), q.new_circuit(2), 1e-9)

    def test_global_phase_ignored(self):
        # rz pair realizing a pure global phase against the empty circuit
        a = q.new_circuit(1).append(q.rz(0, 0.4)).append(q.x(0)).append(
            q.rz(0, 0.4)
        ).append(q.x(0))
        b = q.new_circuit(1)
        assert q.equivalent_up_to_phase(a, b, 1e-12)


class TestJson:
    def test_round_trip(self, rng):
        c = random_circuit(4, 20, rng).append(q.mcrz([0, 1], 3, 0.5))
        again = q.circuit_from_json(q.circuit_to_json(c))
        assert again.width == c.width and again.gates == c.gates

    def test_schema_fields(self):
        c = q.new_circuit(4).append(q.cnot(0, 1)).append(q.rz(2, 0.125)).append(
            q.mcrz([0, 1], 3, 0.5)
        )
        import json

        payload = json.loads(q.circuit_to_json(c))
        assert payload["width"] == 4
        assert payload["gates"][0] == {"kind": "cnot", "control": 0, "target": 1}
        assert payload["gates"][1] == {"kind": "rz", "qubit": 2, "angle": 0.125}
        assert payload["gates"][2] == {
            "kind": "mcrz",
            "controls": [0, 1],
            "target": 3,
            "angle": 0.5,
        }

    def test_unknown_kind_rejected(self):
        import json

        with pytest.raises(ValueError):
            q.circuit_from_json(json.dumps({"width": 1, "gates": [{"kind": "t", "qubit": 0}]}))

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"width": 3.9, "gates": []}, "width must be an integer, got 3.9"),
            ({"width": 3.0, "gates": []}, "width must be an integer, got 3.0"),
            ({"width": True, "gates": []}, "width must be an integer, got True"),
            ({"width": "3", "gates": []}, "width must be an integer, got '3'"),
            ({"width": 3, "gates": [{"kind": "x", "qubit": 2.7}]}, "qubit must be an integer, got 2.7"),
            ({"width": 3, "gates": [{"kind": "h", "qubit": True}]}, "qubit must be an integer, got True"),
            ({"width": 3, "gates": [{"kind": "rz", "qubit": "0", "angle": 0.5}]},
             "qubit must be an integer, got '0'"),
            ({"width": 3, "gates": [{"kind": "rx", "qubit": None, "angle": 0.5}]},
             "qubit must be an integer, got None"),
            ({"width": 3, "gates": [{"kind": "cnot", "control": 0.0, "target": 1}]},
             "control must be an integer, got 0.0"),
            ({"width": 3, "gates": [{"kind": "cnot", "control": 0, "target": False}]},
             "target must be an integer, got False"),
            ({"width": 3, "gates": [{"kind": "mcrz", "controls": [0, "1"], "target": 2, "angle": 0.5}]},
             "control must be an integer, got '1'"),
            ({"width": 3, "gates": [{"kind": "mcrz", "controls": "01", "target": 2, "angle": 0.5}]},
             "mcrz controls must be a list, got '01'"),
            ({"width": 3, "gates": [{"kind": "mcrz", "controls": [0], "target": 1.5, "angle": 0.5}]},
             "target must be an integer, got 1.5"),
        ],
    )
    def test_non_integer_index_rejected(self, payload, message):
        import json

        with pytest.raises(ValueError) as err:
            q.circuit_from_json(json.dumps(payload))
        assert str(err.value) == message

    def test_integer_indexes_accepted(self):
        import json

        payload = {"width": 3, "gates": [
            {"kind": "x", "qubit": 2},
            {"kind": "cnot", "control": 0, "target": 2},
            {"kind": "mcrz", "controls": [], "target": 1, "angle": 0.5},
        ]}
        c = q.circuit_from_json(json.dumps(payload))
        assert c.gates == (q.x(2), q.cnot(0, 2), q.mcrz([], 1, 0.5))
        assert all(type(v) is int for g in c for v in g.qubits)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1, 2]", "a circuit file must be a JSON object, got [1, 2]"),
            ('{"width": 1, "gates": [5]}', "gate must be a JSON object, got 5"),
            ('{"width": 1, "gates": 5}', "gates must be a list, got 5"),
            ('{"width": 1, "gates": [{"kind": "rz", "qubit": 0, "angle": "0.5"}]}',
             "angle must be a number, got '0.5'"),
            ('{"width": 1, "gates": [{"kind": "rx", "qubit": 0, "angle": true}]}',
             "angle must be a number, got True"),
            ('{"width": 2, "gates": [{"kind": "mcrz", "controls": [0], "target": 1, "angle": null}]}',
             "angle must be a number, got None"),
            ('{"width": 1, "gates": [{"kind": "rz", "qubit": 0, "angle": 1' + "0" * 400 + "}]}",
             "angle is out of range"),
        ],
        ids=["list-top-level", "int-gate", "int-gates", "string-angle", "bool-angle",
             "null-angle", "huge-int-angle"],
    )
    def test_non_object_or_non_number_rejected(self, text, message):
        with pytest.raises(ValueError) as err:
            q.circuit_from_json(text)
        assert str(err.value) == message

    def test_integer_and_signed_zero_angles_accepted(self):
        text = (
            '{"width": 1, "gates": [{"kind": "rz", "qubit": 0, "angle": 1},'
            ' {"kind": "rx", "qubit": 0, "angle": -0.0}]}'
        )
        c = q.circuit_from_json(text)
        assert [str(g.angle) for g in c.gates] == ["1.0", "-0.0"]
