"""Gate-level circuit IR and brute-force unitary oracles.

The gate set is {X, H, CNOT, RZ, RX, MCRZ} with the rotation convention
RZ(t) = exp(-i t Z / 2), RX(t) = exp(-i t X / 2).  Basis ordering is
little-endian throughout: qubit 0 is the least significant bit of a
basis-state index.  Circuits are immutable; every operation that changes
a circuit returns a new one.
"""
from __future__ import annotations

import cmath
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .errors import CapacityError

GATE_KINDS = ("x", "h", "cnot", "rz", "rx", "mcrz")

# unitary_of holds the dense matrix and its working copy: two at width 10
_UNITARY_BYTES = 2 * 16 * 4**10


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate instance.

    ``qubits`` holds (q,) for 1-qubit kinds, (control, target) for cnot and
    (*controls, target) for mcrz.  Angles are radians and are stored as
    given, never reduced mod 2*pi.  Gates are immutable, so one instance
    may appear many times in a circuit; slots keep each one small.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float = 0.0

    @property
    def qubit(self) -> int:
        return self.qubits[0]

    @property
    def control(self) -> int:
        return self.qubits[0]

    @property
    def target(self) -> int:
        return self.qubits[-1]

    @property
    def controls(self) -> tuple[int, ...]:
        return self.qubits[:-1]

    def shifted(self, angle: float) -> "Gate":
        return Gate(self.kind, self.qubits, angle)


def x(q: int) -> Gate:
    return Gate("x", (int(q),))


def h(q: int) -> Gate:
    return Gate("h", (int(q),))


def cnot(control: int, target: int) -> Gate:
    if control == target:
        raise ValueError("cnot control and target must differ")
    return Gate("cnot", (int(control), int(target)))


def rz(q: int, angle: float) -> Gate:
    return Gate("rz", (int(q),), _checked_angle(angle))


def rx(q: int, angle: float) -> Gate:
    return Gate("rx", (int(q),), _checked_angle(angle))


def mcrz(controls, target: int, angle: float) -> Gate:
    ctrls = tuple(int(c) for c in controls)
    if len(set(ctrls)) != len(ctrls):
        raise ValueError("mcrz controls must be distinct")
    if target in ctrls:
        raise ValueError("mcrz controls must exclude the target")
    return Gate("mcrz", ctrls + (int(target),), _checked_angle(angle))


def _checked_angle(angle: float) -> float:
    a = float(angle)
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {angle!r}")
    return a


class _Block(NamedTuple):
    """One pushed uniformly controlled rotation.

    As a unitary it is H^(x)S . D . H^(x)S over S = controls + target, where
    D = diag(exp(-i a_j z / 2)), j is the control index (little-endian over
    ``controls``) and z = +1 or -1 as the target reads 0 or 1
    (Mottonen et al., PRL 93, 130502 (2004)).  Its gates are
    ``synthesis._uniform_block(controls, target, walsh_angles(angles),
    pushed=True)``: an RX and a CNOT per selector, or one RX without controls.
    """

    controls: tuple[int, ...]
    target: int
    angles: np.ndarray  # a_j, one per control index j


def _block_tally(block: _Block) -> "CountReport":
    size = 2 ** len(block.controls)
    return CountReport(rx=size, cnot=size if block.controls else 0)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed number of qubits.

    Each gate is validated once, where it enters a circuit: here, and in
    ``append`` and ``extended`` for the new gates only.  Rewrite passes that
    emit only gates derived from an already validated circuit build their
    output without validating it again.

    A circuit built from uniformly controlled blocks (the optimized
    ``build_regression_circuit``) keeps them in ``_blocks`` and lowers its
    ``gates`` from them when they are first read; ``len`` and
    ``gate_counts`` come from the block sizes, and ``simulate`` applies the
    blocks themselves.
    """

    width: int
    # no class-level default: a block circuit has no ``gates`` until
    # __getattr__ lowers them
    gates: tuple[Gate, ...] = field(default_factory=tuple)
    # flat columns of ``gates`` left by the code that built them; see _gate_columns
    _columns: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # the _Block tuple ``gates`` lowers from, or None
    _blocks: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # ``simulator._data_slice`` of this circuit, already computed; set only on
    # the short-lived circuits a trainer evaluator builds for one batch
    _data_slice: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("circuit width must be at least 1")
        validate, width = _validate_gate, self.width
        for g in self.gates:
            validate(g, width)

    def __getattr__(self, name):
        # reached only for attributes the instance lacks: ``gates`` of a
        # block circuit before its first read
        if name != "gates" or self._blocks is None:
            raise AttributeError(f"'Circuit' object has no attribute {name!r}")
        from .synthesis import _lower_blocks

        gates = _lower_blocks(self._blocks)
        object.__setattr__(self, "gates", gates)
        return gates

    def append(self, gate: Gate) -> "Circuit":
        """Return a new circuit with ``gate`` appended."""
        _validate_gate(gate, self.width)
        return _trusted_circuit(self.width, self.gates + (gate,))

    def extended(self, gates) -> "Circuit":
        """Return a new circuit with ``gates`` appended."""
        new = tuple(gates)
        validate, width = _validate_gate, self.width
        for g in new:
            validate(g, width)
        return _trusted_circuit(width, self.gates + new)

    def __len__(self) -> int:
        if self._blocks is not None:
            return gate_counts(self).total
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)


_KIND_CODE = {kind: code for code, kind in enumerate(GATE_KINDS)}


def _qubit_column(qubits: list[int]):
    """``qubits`` as bytes when every one fits in a byte, else as is."""
    try:
        return bytes(qubits)
    except ValueError:
        return qubits


def _read_columns(gates):
    kinds = bytes(map(_KIND_CODE.__getitem__, map(attrgetter("kind"), gates)))
    qubits = list(map(attrgetter("qubits"), gates))
    first = _qubit_column(list(map(itemgetter(0), qubits)))
    return kinds, first, _qubit_column(list(map(itemgetter(-1), qubits)))


def _gate_columns(gates):
    """(kinds, first, last) columns of a circuit or a sequence of valid gates.

    kinds holds each gate's kind code (its index into GATE_KINDS) as one
    byte; first and last hold its first and last qubit (a CNOT's control
    and target, the one wire of a single-qubit gate), one byte each while
    every qubit is below 256.  Code that builds gates together with their
    columns (the mcrz expansion, the rewrite passes) leaves them on its
    output as ``_columns``, so the next pass reads ints instead of ``Gate``
    attributes; other inputs have their columns read from the gates.
    """
    columns = getattr(gates, "_columns", None)
    return _read_columns(gates) if columns is None else columns


def _with_columns(circ: Circuit, columns) -> Circuit:
    """``circ`` carrying ``columns``, the flat columns of its gates."""
    object.__setattr__(circ, "_columns", columns)
    return circ


def _trusted_circuit(width: int, gates: tuple[Gate, ...], columns=None) -> Circuit:
    """A circuit over gates already valid for ``width``, not validated again."""
    circ = object.__new__(Circuit)
    object.__setattr__(circ, "width", width)
    object.__setattr__(circ, "gates", gates)
    return _with_columns(circ, columns)


def _block_circuit(width: int, blocks, data_slice=None) -> Circuit:
    """A circuit of valid ``blocks`` whose gates are lowered on first read,
    optionally with its ``simulator._data_slice`` already computed."""
    circ = object.__new__(Circuit)
    object.__setattr__(circ, "width", width)
    object.__setattr__(circ, "_blocks", tuple(blocks))
    if data_slice is not None:
        object.__setattr__(circ, "_data_slice", data_slice)
    return circ


def new_circuit(width: int) -> Circuit:
    """Create an empty circuit on ``width`` qubits (width >= 1)."""
    return Circuit(int(width))


# qubit count per kind; None: mcrz, which takes one target and any controls
_ARITY = {"x": 1, "h": 1, "rz": 1, "rx": 1, "cnot": 2, "mcrz": None}


def _validate_gate(gate: Gate, width: int) -> None:
    kind, qubits = gate.kind, gate.qubits
    try:
        arity = _ARITY[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"unknown gate kind {kind!r}") from None
    if arity == 1:
        if len(qubits) != 1:
            raise ValueError(f"{kind} takes 1 qubit(s)")
        if not 0 <= qubits[0] < width:
            raise ValueError(f"qubit {qubits[0]} out of range for width {width}")
    elif arity == 2:
        if len(qubits) != 2:
            raise ValueError(f"{kind} takes 2 qubit(s)")
        control, target = qubits
        if not 0 <= control < width:
            raise ValueError(f"qubit {control} out of range for width {width}")
        if not 0 <= target < width:
            raise ValueError(f"qubit {target} out of range for width {width}")
        if control == target:
            raise ValueError("cnot control and target must differ")
    else:
        if len(qubits) < 1:
            raise ValueError("mcrz needs a target qubit")
        for q in qubits:
            if not 0 <= q < width:
                raise ValueError(f"qubit {q} out of range for width {width}")
        ctrls = qubits[:-1]
        if len(set(ctrls)) != len(ctrls) or qubits[-1] in ctrls:
            raise ValueError("mcrz controls must be distinct and exclude the target")
    if not math.isfinite(gate.angle):
        raise ValueError("gate angle must be finite")


@dataclass(frozen=True)
class CountReport:
    """Per-kind gate tally.  ``total`` sums every kind; mcrz nodes are
    flagged because they are not elementary."""

    x: int = 0
    h: int = 0
    cnot: int = 0
    rz: int = 0
    rx: int = 0
    mcrz: int = 0

    @property
    def total(self) -> int:
        return self.x + self.h + self.cnot + self.rz + self.rx + self.mcrz

    @property
    def non_elementary(self) -> bool:
        return self.mcrz > 0

    def __add__(self, other: "CountReport") -> "CountReport":
        return CountReport(
            self.x + other.x,
            self.h + other.h,
            self.cnot + other.cnot,
            self.rz + other.rz,
            self.rx + other.rx,
            self.mcrz + other.mcrz,
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "x": self.x,
            "h": self.h,
            "cnot": self.cnot,
            "rz": self.rz,
            "rx": self.rx,
            "mcrz": self.mcrz,
            "total": self.total,
        }


def gate_counts(circuit: Circuit) -> CountReport:
    """Exact per-kind gate tally of ``circuit``."""
    if circuit._blocks is not None:
        return sum(map(_block_tally, circuit._blocks), CountReport())
    if circuit._columns is not None:
        return _tally(circuit._columns[0])
    return CountReport(**Counter(map(attrgetter("kind"), circuit)))


def _tally(kinds: bytes) -> CountReport:
    """Per-kind gate tally of a kind column (CountReport follows GATE_KINDS)."""
    return CountReport(*map(kinds.count, range(len(GATE_KINDS))))


# --- dense linear algebra -------------------------------------------------
#
# States are arrays whose FIRST axis is the 2**width basis index; extra
# trailing axes are batch dimensions, which is how unitary_of evolves all
# basis columns at once.

_SQ2 = 1.0 / math.sqrt(2.0)
_H_MAT = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X_MAT = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _rz_mat(angle: float) -> np.ndarray:
    return np.array([[cmath.exp(-0.5j * angle), 0.0], [0.0, cmath.exp(0.5j * angle)]])


def _rx_mat(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _apply_1q(state: np.ndarray, mat: np.ndarray, q: int, width: int) -> np.ndarray:
    batch = state.shape[1:]
    view = state.reshape((2 ** (width - 1 - q), 2, 2**q) + batch)
    a, b = view[:, 0], view[:, 1]
    out = np.empty_like(view)
    out[:, 0] = mat[0, 0] * a + mat[0, 1] * b
    out[:, 1] = mat[1, 0] * a + mat[1, 1] * b
    return out.reshape(state.shape)


def _apply_cnot(state: np.ndarray, control: int, target: int, width: int) -> np.ndarray:
    """Copy of ``state`` with the target halves of the control-1 block
    swapped; pure data movement, so exact for any batch axes."""
    hi, lo = max(control, target), min(control, target)
    shape = (2 ** (width - 1 - hi), 2, 2 ** (hi - lo - 1), 2, 2**lo) + state.shape[1:]
    view = state.reshape(shape)
    out = view.copy()
    if control > target:
        out[:, 1, :, 0], out[:, 1, :, 1] = view[:, 1, :, 1], view[:, 1, :, 0]
    else:
        out[:, 0, :, 1], out[:, 1, :, 1] = view[:, 1, :, 1], view[:, 0, :, 1]
    return out.reshape(state.shape)


def _mcrz_diagonal(gate: Gate, width: int) -> np.ndarray:
    idx = np.arange(2**width)
    selected = np.ones(2**width, dtype=bool)
    for c in gate.controls:
        selected &= ((idx >> c) & 1) == 1
    tgt_bit = (idx >> gate.target) & 1
    diag = np.ones(2**width, dtype=complex)
    diag[selected] = np.exp(-0.5j * gate.angle * (1.0 - 2.0 * tgt_bit[selected]))
    return diag


def apply_gate(state: np.ndarray, gate: Gate, width: int) -> np.ndarray:
    """Apply one gate to a state (first axis = basis index)."""
    if gate.kind == "x":
        return _apply_1q(state, _X_MAT, gate.qubit, width)
    if gate.kind == "h":
        return _apply_1q(state, _H_MAT, gate.qubit, width)
    if gate.kind == "rz":
        return _apply_1q(state, _rz_mat(gate.angle), gate.qubit, width)
    if gate.kind == "rx":
        return _apply_1q(state, _rx_mat(gate.angle), gate.qubit, width)
    if gate.kind == "cnot":
        return _apply_cnot(state, gate.control, gate.target, width)
    if gate.kind == "mcrz":
        diag = _mcrz_diagonal(gate, width)
        return state * diag.reshape((-1,) + (1,) * (state.ndim - 1))
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit, gates applied in list order.

    Column j is the image of basis state |j>.  The matrix and its working
    copy must fit ``_UNITARY_BYTES`` (width <= 10), checked before either
    is allocated.
    """
    need = 2 * 16 * 4**circuit.width
    if need > _UNITARY_BYTES:
        raise CapacityError(
            f"unitary_of at width {circuit.width} needs {need} bytes;"
            f" the budget is {_UNITARY_BYTES}"
        )
    mat = np.eye(2**circuit.width, dtype=complex)
    for g in circuit:
        mat = apply_gate(mat, g, circuit.width)
    return mat


def equivalent_up_to_phase(a: Circuit, b: Circuit, tol: float = 1e-9) -> bool:
    """True iff the two unitaries agree up to one global phase factor.

    The phase is read off at the largest-magnitude entry of ``b``'s matrix.
    """
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    ua, ub = unitary_of(a), unitary_of(b)
    flat = np.argmax(np.abs(ub))
    ref = ub.reshape(-1)[flat]
    if abs(ref) < 1e-12:
        return bool(np.abs(ua - ub).max() <= tol)
    c = ua.reshape(-1)[flat] / ref
    mag = abs(c)
    if mag < 1e-12:
        return False
    c /= mag
    return bool(np.abs(ua - c * ub).max() <= tol)


# --- JSON interchange -----------------------------------------------------

def gate_to_obj(gate: Gate) -> dict:
    if gate.kind in ("x", "h"):
        return {"kind": gate.kind, "qubit": gate.qubit}
    if gate.kind in ("rz", "rx"):
        return {"kind": gate.kind, "qubit": gate.qubit, "angle": gate.angle}
    if gate.kind == "cnot":
        return {"kind": "cnot", "control": gate.control, "target": gate.target}
    return {
        "kind": "mcrz",
        "controls": list(gate.controls),
        "target": gate.target,
        "angle": gate.angle,
    }


def _index(value, what: str) -> int:
    """A JSON qubit index or width, which must be an integer: no float,
    string or boolean is coerced."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A JSON number (integer or float); no string or boolean is coerced."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} is out of range") from None


def _object(value, what: str) -> dict:
    """A JSON object, which is all a file's top level or entry may be."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def gate_from_obj(obj: dict) -> Gate:
    kind = _object(obj, "gate")["kind"]
    if kind == "x":
        return x(_index(obj["qubit"], "qubit"))
    if kind == "h":
        return h(_index(obj["qubit"], "qubit"))
    if kind == "rz":
        return rz(_index(obj["qubit"], "qubit"), _number(obj["angle"], "angle"))
    if kind == "rx":
        return rx(_index(obj["qubit"], "qubit"), _number(obj["angle"], "angle"))
    if kind == "cnot":
        return cnot(_index(obj["control"], "control"), _index(obj["target"], "target"))
    if kind == "mcrz":
        controls = _list(obj["controls"], "mcrz controls")
        return mcrz(
            [_index(c, "control") for c in controls],
            _index(obj["target"], "target"),
            _number(obj["angle"], "angle"),
        )
    raise ValueError(f"unknown gate kind {kind!r}")


def circuit_to_json(circuit: Circuit, indent: int | None = None) -> str:
    payload = {"width": circuit.width, "gates": [gate_to_obj(g) for g in circuit]}
    return json.dumps(payload, indent=indent)


def circuit_from_json(text: str) -> Circuit:
    payload = _object(json.loads(text), "a circuit file")
    width = _index(payload["width"], "width")
    gates = tuple(gate_from_obj(o) for o in _list(payload["gates"], "gates"))
    return Circuit(width, gates)
