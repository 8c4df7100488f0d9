"""Circuit construction: Gray-code multiplexors, naive and folded encoders.

The key primitive is the uniformly controlled Z rotation.  A block of
2**n rotations on one target, interleaved with CNOTs whose controls walk
a closed Gray-code cycle, realizes prod_j exp(-i (a_j / 2) Z_target (x) |j><j|)
when the rotation angles are the scaled Walsh-Hadamard transform of the
per-selector angles a_j.  Everything here reduces to that identity.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from operator import itemgetter

import numpy as np

from . import circuit as cir
from .circuit import (
    Circuit,
    CountReport,
    Gate,
    _Block,
    _block_circuit,
    _gate_columns,
    _with_columns,
)
from .data import DataTable, RegisterLayout, flatten_padded, layout_for
from .errors import CapacityError

_GRAY_LIMIT = 20
_DECOMPOSE_LIMIT = 12
_STATE_PREP_LIMIT = 1024
_WALSH_BLOCK = 1 << 14  # signed terms summed per block of walsh_angles rows


def gray_sequence(n: int) -> list[int]:
    """Control-bit flip order of the closed Gray-code walk on n bits.

    Element i is the bit that flips between consecutive Gray codes; the
    final element returns the top bit so the CNOT parity telescopes back
    to identity over the full cycle.
    """
    return list(_gray_walk(n)[1])


@functools.lru_cache(maxsize=4)
def _gray_walk(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(masks, bits) of the closed Gray-code walk on n bits, computed once
    per n: step k visits selector mask ``k ^ (k >> 1)`` and then flips
    control bit ``bits[k]``."""
    if n < 1:
        raise ValueError("gray_sequence needs n >= 1")
    if n > _GRAY_LIMIT:
        raise CapacityError(f"gray_sequence supports n <= {_GRAY_LIMIT}")
    size = 2**n
    masks = tuple(k ^ (k >> 1) for k in range(size))
    bits = tuple((k & -k).bit_length() - 1 for k in range(1, size)) + (n - 1,)
    return masks, bits


def _parity_table(n: int) -> np.ndarray:
    """Boolean popcount parity of ``arange(n)``, built one bit at a time."""
    idx = np.arange(n)
    par = np.zeros(n, dtype=bool)
    bit = 1
    while bit < n:
        par ^= (idx & bit) != 0
        bit <<= 1
    return par


def walsh_angles(alphas) -> np.ndarray:
    """Scaled Walsh-Hadamard transform of per-selector angles.

    out[y] = 2**-n * sum_j (-1)**popcount(y & j) * alphas[j], indexed by
    parity mask y.  Applying the map twice returns the input divided by
    2**n.  Each out[y] is a sequential left-to-right running sum over j
    (``np.cumsum`` along a row of signed terms, never a pairwise or
    butterfly sum), so rebuilding a folded circuit reproduces these floats
    bit for bit.  Rows are taken in blocks of ``_WALSH_BLOCK`` terms (one
    row at least): the sign pattern of block y0 is the first block's
    pattern XOR the parities of ``y0 & j``, so memory stays O(N).
    """
    a = np.asarray(alphas, dtype=float)
    n_sel = a.shape[0]
    if n_sel == 0 or n_sel & (n_sel - 1):
        raise ValueError("alphas length must be a power of two")
    idx = np.arange(n_sel)
    par = _parity_table(n_sel)
    rows = min(n_sel, max(1, _WALSH_BLOCK // n_sel))
    first_signs = par[idx[:rows, None] & idx]
    neg = -a
    out = np.empty(n_sel, dtype=float)
    for y0 in range(0, n_sel, rows):
        signs = first_signs ^ par[y0 & idx] if y0 else first_signs
        out[y0 : y0 + rows] = np.cumsum(np.where(signs, neg, a), axis=1)[:, -1]
    # cumsum starts from the first term, not from +0.0: a row of -0.0 terms
    # sums to -0.0, where a sum seeded with +0.0 gives +0.0
    return (out + 0.0) / n_sel


def _uniform_block(controls, target: int, angles_by_mask, pushed: bool) -> list[Gate]:
    """Gate list of one uniformly controlled rotation cycle.

    Step k rotates by ``angles_by_mask[k ^ (k >> 1)]``, then a CNOT flips
    the control bit ``gray_sequence(n)[k]`` of the running parity.
    ``angles_by_mask[y]`` is indexed by control-index mask y (bit b stands
    for ``controls[b]``).

    ``pushed=False`` emits the plain form (RZ on the target, CNOTs control
    -> target), used by ``synthesize_uniform_z``, ``build_state_prep``,
    ``passes.resynthesize`` and the reference cascade.  ``pushed=True``
    emits the basis-changed form with RX rotations and CNOT direction
    reversed, used by ``_lower_blocks`` for the optimized
    ``build_regression_circuit``.
    """
    controls = list(controls)
    # every rotation of the cycle shares one qubit tuple
    kind, wire = ("rx" if pushed else "rz"), (int(target),)
    if not controls:
        return [Gate(kind, wire, cir._checked_angle(float(angles_by_mask[0])))]
    flips = [cir.cnot(target, c) if pushed else cir.cnot(c, target) for c in controls]
    values = list(map(float, angles_by_mask))
    if 0.0 in values:  # 0.0 == -0.0: key zeros by str so both signs stay
        values = [a if a else str(a) for a in values]
    walked = itemgetter(*_gray_walk(len(controls))[0])(values)
    # one rotation per distinct angle, made in walk order
    rots = {key: Gate(kind, wire, cir._checked_angle(float(key))) for key in dict.fromkeys(walked)}
    return _gray_cycle(map(rots.__getitem__, walked), flips)


def _lower_blocks(blocks) -> tuple[Gate, ...]:
    """The gates of pushed uniformly controlled blocks, in order: the one
    lowering of a ``circuit._Block``."""
    gates: list[Gate] = []
    for b in blocks:
        gates += _uniform_block(b.controls, b.target, walsh_angles(b.angles), pushed=True)
    return tuple(gates)


def _lowers_cleanly(block: _Block) -> bool:
    """True when lowering ``block`` cannot raise: its Gray walk is in range
    and no running sum of ``walsh_angles`` can overflow, since each of its N
    terms is at most max|a_j| and N * max|a_j| is at most half the largest
    float.  NaN or infinite angles fail the bound."""
    a = block.angles
    bound = float(np.abs(a).max()) * a.shape[0]
    return len(block.controls) <= _GRAY_LIMIT and bound <= sys.float_info.max / 2


def _gray_cycle(rotations, flips: list[Gate]) -> list[Gate]:
    """The only Gray-cycle emitter: rotation k of the walk, then the CNOT
    of the control bit the walk flips after step k.  ``flips[b]`` is the
    shared CNOT of control b; a cycle repeats each one many times."""
    bits = _gray_walk(len(flips))[1]
    gates: list = [None] * (2 * len(bits))
    gates[0::2] = rotations
    gates[1::2] = itemgetter(*bits)(flips)
    return gates


def synthesize_uniform_z(control_qubits, target: int, alphas) -> Circuit:
    """Folded realization of prod_j exp(-i (a_j / 2) Z_target (x) |j><j|).

    Control state j is read little-endian over ``control_qubits``.  The
    identity is exact, including global phase.
    """
    controls = list(control_qubits)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape[0] != 2 ** len(controls):
        raise ValueError("need exactly 2**len(controls) angles")
    width = max([target, *controls]) + 1
    gates = _uniform_block(controls, target, walsh_angles(alphas), pushed=False)
    return Circuit(width, tuple(gates))


def _mcrz_gates(gate: Gate) -> list[Gate]:
    """Gray-cycle expansion of one mcrz gate, unvalidated."""
    controls, target = gate.controls, gate.target
    n = len(controls)
    if n > _DECOMPOSE_LIMIT:
        raise CapacityError(f"decompose_mcrz supports up to {_DECOMPOSE_LIMIT} controls")
    base = gate.angle / 2**n
    if not n:
        return [cir.rz(target, base)]
    flips = [cir.cnot(c, target) for c in controls]
    # selector y rotates by (-1)**popcount(y) * base, and the parity of the
    # walk's selector alternates, so two rotation objects serve the cycle
    pair = (cir.rz(target, base), cir.rz(target, -base))
    return _gray_cycle(pair * 2 ** (n - 1), flips)


def decompose_mcrz(gate: Gate) -> Circuit:
    """Expand one multi-controlled RZ into its Gray-cycle of elementary
    gates: 2**n RZ on the target alternating with 2**n CNOTs."""
    if gate.kind != "mcrz":
        raise ValueError("decompose_mcrz takes an mcrz gate")
    return Circuit(max(gate.qubits) + 1, tuple(_mcrz_gates(gate)))


def decompose_all_mcrz(circ: Circuit) -> Circuit:
    """Replace every mcrz node in ``circ`` by its elementary expansion.

    The output carries its flat columns for the rewrite passes; nodes on
    the same wires expand to the same columns, read once.
    """
    gates: list[Gate] = []
    parts: list[tuple] = []  # the columns of each run of output gates
    expanded: dict[tuple[int, ...], tuple] = {}  # wires: columns of their expansion
    start = 0  # first output gate whose columns are not in parts
    for g in circ:
        if g.kind != "mcrz":
            gates.append(g)
            continue
        if start < len(gates):
            parts.append(_gate_columns(gates[start:]))
        expansion = _mcrz_gates(g)
        columns = expanded.get(g.qubits)
        if columns is None:
            columns = expanded[g.qubits] = _gate_columns(expansion)
        parts.append(columns)
        gates += expansion
        start = len(gates)
    if start < len(gates):
        parts.append(_gate_columns(gates[start:]))
    columns = tuple(map(_joined, zip(*parts))) if parts else None
    return _with_columns(Circuit(circ.width, tuple(gates)), columns)


def _joined(chunks) -> bytes | list[int]:
    """Concatenated column chunks: bytes, or a list once a chunk is one."""
    try:
        return b"".join(chunks)
    except TypeError:
        return list(itertools.chain.from_iterable(chunks))


# --- encoded-table circuits -------------------------------------------------

def _require_normalized(table: DataTable) -> None:
    if not table.is_normalized:
        raise ValueError("table must be unit-normalized; call DataTable.normalized()")


def _selector_gates(selector: int, qubits, width_bits: int) -> list[Gate]:
    """X gates flipping the zero bits of ``selector`` over ``qubits``."""
    return [cir.x(qubits[b]) for b in range(width_bits) if not (selector >> b) & 1]


def build_ud_naive(table: DataTable, layout: RegisterLayout) -> Circuit:
    """Phase-encode the flattened table onto the data-prep ancilla.

    Emits the superposition layer, then one X-conjugated multi-controlled
    RZ per padded table entry k with angle 2 * x_k.
    """
    return Circuit(layout.width, tuple(_ud_naive_gates(table, layout)))


def _ud_naive_gates(table: DataTable, layout: RegisterLayout) -> list[Gate]:
    _require_normalized(table)
    flat = flatten_padded(table, layout)
    gates: list[Gate] = [cir.h(layout.anc1)]
    gates += [cir.h(q) for q in layout.data_qubits]
    data = layout.data_qubits
    for k in range(layout.k_pad):
        pattern = _selector_gates(k, data, layout.n_data)
        gates += pattern
        gates.append(cir.mcrz(data, layout.anc1, 2.0 * flat[k]))
        gates += pattern
    return gates


def build_uc_naive(phis, layout: RegisterLayout) -> Circuit:
    """Apply the per-column coefficient gadgets on the second ancilla.

    Column m gets exp(+i phi_m Z (x) 1 (x) |m><m|), realized as an
    X-conjugated multi-controlled RZ with angle -2 * phi_m; padded columns
    keep their zero-angle rotation.
    """
    return Circuit(layout.width, tuple(_uc_naive_gates(phis, layout)))


def _uc_naive_gates(phis, layout: RegisterLayout) -> list[Gate]:
    phis = np.asarray(phis, dtype=float)
    gates: list[Gate] = [cir.h(layout.anc2)]
    cols = layout.column_qubits
    for m in range(layout.m_pad):
        angle = -2.0 * phis[m] if m < phis.shape[0] else 0.0
        pattern = _selector_gates(m, cols, layout.n_m)
        gates += pattern
        gates.append(cir.mcrz(cols, layout.anc2, angle))
        gates += pattern
    return gates


def _padded_phi_angles(phis, layout: RegisterLayout) -> np.ndarray:
    out = np.zeros(layout.m_pad, dtype=float)
    out[: len(phis)] = [-2.0 * p for p in phis]
    return out


def build_regression_circuit(table: DataTable, phis, mode: str = "optimized"):
    """Full encode-weight-measure circuit for one (table, phis) instance.

    naive mode: superposition layers, X-conjugated multi-controlled RZ
    gadgets and a closing H on every qubit so a computational measurement
    reads the X basis.  optimized mode: the folded form with RX rotations
    and ancilla-to-data CNOTs, measured computationally.  Both define the
    same measurement distribution.  Returns (circuit, layout).

    The optimized circuit holds its two pushed blocks, with per-selector
    angles 2 * x of the flattened table and -2 * phi padded with zeros; its
    gates are lowered when first read.  Angles that would make lowering
    raise (NaN, infinite, or overflowing -2 * phi) raise here, as lowering
    would.
    """
    layout = layout_for(table.n_rows, table.n_features)
    phis = np.asarray(phis, dtype=float)
    if phis.shape != (table.n_features + 1,):
        raise ValueError(
            f"need {table.n_features + 1} angles, got {phis.shape}"
        )
    _require_normalized(table)
    if mode == "naive":
        gates = _ud_naive_gates(table, layout) + _uc_naive_gates(phis, layout)
        gates += [cir.h(q) for q in range(layout.width)]
        return Circuit(layout.width, tuple(gates)), layout
    if mode == "optimized":
        blocks = (
            _Block(layout.data_qubits, layout.anc1, 2.0 * flatten_padded(table, layout)),
            _Block(layout.column_qubits, layout.anc2, _padded_phi_angles(phis, layout)),
        )
        if not all(map(_lowers_cleanly, blocks)):
            _lower_blocks(blocks)  # raises what lowering on first read would
        return _block_circuit(layout.width, blocks), layout
    raise ValueError(f"mode must be 'naive' or 'optimized', got {mode!r}")


# --- standalone state preparation -------------------------------------------

class PostSelectionRule:
    """Which ancilla outcome keeps a shot after running a prep circuit."""

    def __init__(self, qubit: int, basis: str, outcome: int):
        self.qubit = qubit
        self.basis = basis
        self.outcome = outcome

    def __repr__(self):
        return f"PostSelectionRule(qubit={self.qubit}, basis={self.basis!r}, outcome={self.outcome})"


def build_state_prep(x, normalize: bool = True):
    """Ancilla-assisted preparation of amplitudes proportional to sin(x_k).

    Returns (circuit, rule, angles): the circuit puts the data register and
    the ancilla in uniform superposition, phase-encodes the (optionally
    unit-normalized) input through one folded rotation cycle, and the rule
    says to keep shots where the ancilla reads 1 in the X basis.  The
    post-selected register then carries sin(x_k) / ||sin(x)|| with success
    probability sum_k sin(x_k)**2 / 2**p.
    """
    v = np.asarray(x, dtype=float).ravel()
    if v.size == 0 or v.size > _STATE_PREP_LIMIT:
        raise ValueError(f"input length must be in [1, {_STATE_PREP_LIMIT}]")
    if not np.all(np.isfinite(v)):
        raise ValueError("input must be finite")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot encode the zero vector")
    if normalize:
        v = v / norm
    p = (v.size - 1).bit_length()
    padded = np.zeros(2**p, dtype=float)
    padded[: v.size] = v
    anc = p
    gates: list[Gate] = [cir.h(anc)]
    gates += [cir.h(q) for q in range(p)]
    gates += _uniform_block(range(p), anc, walsh_angles(2.0 * padded), pushed=False)
    rule = PostSelectionRule(qubit=anc, basis="x", outcome=1)
    return Circuit(p + 1, tuple(gates)), rule, padded


# --- gate-count formula ------------------------------------------------------

def naive_gate_count_formula(K: int, M: int) -> CountReport:
    """Closed-form tally of the naive construction after expanding every
    multi-controlled RZ: 2**(n_l + n_m) selectors of 2**(n_l + n_m) CNOT and
    RZ gates each, plus the X conjugation patterns and the two H layers.
    """
    if K < 1 or M < 1:
        raise ValueError("K and M must be at least 1")
    cols = M + 1
    if K < cols or K % cols:
        warnings.warn(
            f"K={K} is not a multiple of M+1={cols}; counting the padded register",
            stacklevel=2,
        )
    rows = max(1, -(-K // cols))
    layout = layout_for(rows, M)
    k_pad, m_pad = layout.k_pad, layout.m_pad
    cnot_rz = k_pad * k_pad + m_pad * m_pad
    return CountReport(
        x=k_pad * layout.n_data + m_pad * layout.n_m,
        h=2 * (layout.n_data + 2),
        cnot=cnot_rz,
        rz=cnot_rz,
    )


def optimized_gate_count(K: int, M: int) -> CountReport:
    """Gate tally of the folded circuit: one rotation and one CNOT per
    padded selector of each register."""
    cols = M + 1
    rows = max(1, -(-K // cols))
    layout = layout_for(rows, M)
    n = layout.k_pad + layout.m_pad
    return CountReport(rx=n, cnot=n)


# --- reference cascade baseline ----------------------------------------------

def _cascade_levels(amps: np.ndarray) -> list[np.ndarray]:
    """Rotation angles per cascade stage for a real amplitude vector.

    Level c holds 2**c angles; theta = 2*atan2(odd child, even child) of the
    running magnitude tree, which places every sign at the leaves.
    """
    p = (amps.size - 1).bit_length()
    w = amps.astype(float)
    stages: list[np.ndarray] = []
    for _ in range(p):
        even, odd = w[0::2], w[1::2]
        stages.append(2.0 * np.arctan2(odd, even))
        w = np.sqrt(even**2 + odd**2)
    stages.reverse()
    return stages


def synthesize_reference_real_state(x) -> Circuit:
    """Comparison baseline: a plain multiplexed-rotation cascade preparing
    sum_k x_k |k> with no ancilla and no post-selection.

    Each multiplexor element is a generic Y-axis rotation spelled in the
    native gate set as RZ(-pi/2) RX(theta) RZ(pi/2); the frame rotations are
    kept per element, zero angles included, so the emitted totals reflect a
    generic cascade rather than a hand-specialized one.
    """
    v = np.asarray(x, dtype=float).ravel()
    n_amp = v.size
    if n_amp < 2 or n_amp & (n_amp - 1):
        raise ValueError("amplitude count must be a power of two >= 2")
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
        raise ValueError("input must have unit norm")
    p = n_amp.bit_length() - 1
    gates: list[Gate] = []
    half_pi = math.pi / 2.0
    for c, thetas in enumerate(_cascade_levels(v)):
        target = p - 1 - c
        # a one-angle stage needs no transform, which would also map -0.0 to 0.0
        angles = walsh_angles(thetas) if c else thetas
        for g in _uniform_block(range(p - c, p), target, angles, pushed=False):
            if g.kind == "rz":
                gates += [
                    cir.rz(target, -half_pi),
                    cir.rx(target, g.angle),
                    cir.rz(target, half_pi),
                ]
            else:
                gates.append(g)
    return Circuit(p, tuple(gates))
