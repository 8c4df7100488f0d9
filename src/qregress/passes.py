"""Rewrite passes: Pauli pushing, phase folding, Hadamard pushing.

Every pass consumes and produces immutable circuits and preserves the
unitary up to global phase.  The full pipeline turns a naive encoded
circuit (X-conjugated multi-controlled RZ gadgets between H layers) into
the folded RX/CNOT form, gate for gate the output of the direct builder.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

from . import circuit as cir
from .circuit import Circuit, CountReport, Gate, gate_counts
from .synthesis import _uniform_block, decompose_all_mcrz

_ZERO_COEFF = 1e-12

FOLDABLE_KINDS = frozenset({"x", "cnot", "rz"})


@dataclass(frozen=True)
class PassReport:
    before: CountReport
    after: CountReport
    rewrites: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "before": self.before.as_dict(),
            "after": self.after.as_dict(),
            "rewrites": list(self.rewrites),
        }


def _report(before: Circuit, after: Circuit, rewrites: list[str]) -> PassReport:
    return PassReport(gate_counts(before), gate_counts(after), tuple(rewrites))


# --- Pauli pushing ----------------------------------------------------------

def push_paulis(circ: Circuit) -> tuple[Circuit, PassReport]:
    """Commute every X gate rightward and cancel the pairs.

    X through an RZ on the same wire negates the angle; X on a CNOT
    control spawns an X on the target; X commutes with RX and with CNOT
    targets.  An X that reaches an H stops there (emitted just before it);
    X gates alive at the end remain as a trailing suffix.
    """
    pending = [False] * circ.width
    out: list[Gate] = []
    negations: dict[int, Gate] = {}  # by id: rz(q, 0.0) == rz(q, -0.0)
    absorbed = negated = flushed = 0
    for g in circ:
        k = g.kind
        if k == "x":
            pending[g.qubit] ^= True
            absorbed += 1
        elif k == "rz":
            if pending[g.qubit]:
                neg = negations.get(id(g))
                if neg is None:
                    neg = negations[id(g)] = cir.rz(g.qubit, -g.angle)
                out.append(neg)
                negated += 1
            else:
                out.append(g)
        elif k == "rx":
            out.append(g)
        elif k == "cnot":
            out.append(g)
            if pending[g.control]:
                pending[g.target] ^= True
        elif k == "h":
            if pending[g.qubit]:
                out.append(cir.x(g.qubit))
                pending[g.qubit] = False
                flushed += 1
            out.append(g)
        else:
            raise ValueError("push_paulis needs an mcrz-free circuit; decompose first")
    suffix = [cir.x(q) for q in range(circ.width) if pending[q]]
    out += suffix
    result = Circuit(circ.width, tuple(out))
    rewrites = [
        f"x-absorbed: {absorbed}",
        f"rz-negated: {negated}",
        f"x-stopped-at-h: {flushed}",
        f"x-suffix: {len(suffix)}",
    ]
    return result, _report(circ, result, rewrites)


# --- Hadamard pushing -------------------------------------------------------

def push_hadamards(circ: Circuit) -> tuple[Circuit, PassReport]:
    """Cancel H pairs through the circuit.

    A pending H exchanges RZ and RX on its wire; a CNOT whose both wires
    carry pending H flips direction.  Gates with no push rule (X, mcrz, or
    a CNOT with only one pushed wire) flush the pending H just before them.
    Unmatched H gates are emitted at the end.
    """
    pending = [False] * circ.width
    out: list[Gate] = []
    cancelled = exchanged = flipped = flushed = 0

    def flush(qubits) -> None:
        nonlocal flushed
        for q in qubits:
            if pending[q]:
                out.append(cir.h(q))
                pending[q] = False
                flushed += 1

    for g in circ:
        k = g.kind
        if k == "h":
            cancelled += pending[g.qubit]
            pending[g.qubit] ^= True
        elif k == "rz":
            if pending[g.qubit]:
                out.append(cir.rx(g.qubit, g.angle))
                exchanged += 1
            else:
                out.append(g)
        elif k == "rx":
            if pending[g.qubit]:
                out.append(cir.rz(g.qubit, g.angle))
                exchanged += 1
            else:
                out.append(g)
        elif k == "cnot":
            if pending[g.control] and pending[g.target]:
                out.append(cir.cnot(g.target, g.control))
                flipped += 1
            else:
                flush(g.qubits)
                out.append(g)
        else:  # x or mcrz: no push rule
            flush(g.qubits)
            out.append(g)
    tail = [cir.h(q) for q in range(circ.width) if pending[q]]
    out += tail
    result = Circuit(circ.width, tuple(out))
    rewrites = [
        f"h-cancelled-pairs: {cancelled}",
        f"rz-rx-exchanged: {exchanged}",
        f"cnot-flipped: {flipped}",
        f"h-flushed: {flushed}",
        f"h-trailing: {len(tail)}",
    ]
    return result, _report(circ, result, rewrites)


# --- phase polynomial extraction and resynthesis ----------------------------

@dataclass(frozen=True)
class PhasePolynomial:
    """Phase function plus affine output map of an {X, CNOT, RZ} circuit.

    ``terms[y]`` is the coefficient (radians) of the parity chi_y(v) =
    XOR of input bits selected by mask y; basis state |v> accumulates
    exp(i * sum_y terms[y] * chi_y(v)) up to one global phase.  ``a_rows[q]``
    is the input-parity mask of output wire q and ``b`` the output flip
    mask, so |v> maps to |A v xor b>.
    """

    width: int
    terms: dict[int, float]
    a_rows: tuple[int, ...]
    b: int

    @property
    def affine_is_identity(self) -> bool:
        return self.b == 0 and all(
            row == 1 << q for q, row in enumerate(self.a_rows)
        )


def _parity_sweep(gates, masks: list[int], bits: list[int]):
    """The one wire-annotation sweep, shared by extraction and folding.

    Walks an {X, CNOT, RZ} run, updating in place ``masks[q]``, the
    input-parity mask that wire q carries, and ``bits[q]``, its X flip bit.
    Yields (gate, mask, bit) for each gate, read from the gate's last wire
    after it acts: for an RZ, the parity it rotates and whether its sign is
    flipped.  Lazy, so a long run costs no per-rotation list.
    """
    for g in gates:
        q = g.qubits[-1]
        if g.kind == "x":
            bits[q] ^= 1
        elif g.kind == "cnot":
            masks[q] ^= masks[g.control]
            bits[q] ^= bits[g.control]
        elif g.kind != "rz":
            raise ValueError(f"unsupported gate kind {g.kind!r} for phase analysis")
        yield g, masks[q], bits[q]


def extract_phase_polynomial(circ: Circuit) -> PhasePolynomial:
    """Phase polynomial representation of an {X, CNOT, RZ} circuit.

    Coefficients below 1e-12 and the empty parity (a global phase) are
    dropped.
    """
    masks = [1 << q for q in range(circ.width)]
    bits = [0] * circ.width
    terms: dict[int, float] = {}
    for g, y, flip in _parity_sweep(circ, masks, bits):
        if g.kind != "rz" or y == 0:
            continue  # an RZ on the empty parity is only a global phase
        signed = -g.angle if flip else g.angle
        terms[y] = terms[y] + signed if y in terms else signed
    for y in [y for y, a in terms.items() if abs(a) <= _ZERO_COEFF]:
        del terms[y]
    b = sum(bit << q for q, bit in enumerate(bits))
    return PhasePolynomial(circ.width, terms, tuple(masks), b)


def _grouped_masks(terms: dict[int, float]):
    """Group parity masks by host wire (highest set bit), hosts ascending."""
    groups: dict[int, list[int]] = {}
    for y in terms:
        groups.setdefault(y.bit_length() - 1, []).append(y)
    return dict(sorted(groups.items()))


def resynthesize(poly: PhasePolynomial, width: int) -> Circuit:
    """Emit a circuit realizing ``poly`` (trivial affine part required).

    Parities are grouped by host wire, each group realized as one plain
    ``_uniform_block`` over the union of its control bits, with the angle of
    control-index mask y read from the parity (1 << host) | (its controls).
    For n >= 1 controls, rotations with zero or absent coefficients
    (|c| <= 1e-12) are elided and the CNOT walk is kept whole; a group with
    no controls emits its single RZ unelided.
    """
    if not poly.affine_is_identity:
        raise ValueError("resynthesize requires an identity affine part")
    if any(y >> width for y in poly.terms):
        raise ValueError("parity mask exceeds the requested width")
    gates: list[Gate] = []
    for host, masks in _grouped_masks(poly.terms).items():
        union = 0
        for y in masks:
            union |= y & ~(1 << host)
        controls = [q for q in range(width) if (union >> q) & 1]
        if not controls:
            gates.append(cir.rz(host, poly.terms[1 << host]))
            continue
        parities = [1 << host]
        for c in controls:
            parities += [y | (1 << c) for y in parities]
        angles = [poly.terms.get(y, 0.0) for y in parities]
        gates += [
            g
            for g in _uniform_block(controls, host, angles, pushed=False)
            if g.kind == "cnot" or abs(g.angle) > _ZERO_COEFF
        ]
    return Circuit(width, tuple(gates))


# --- phase folding ----------------------------------------------------------

def _commutes_with_cnot(control: int, target: int, g: Gate) -> bool:
    kind, qubits = g.kind, g.qubits
    if kind == "cnot":
        return qubits[1] != control and qubits[0] != target
    if kind == "rz":
        return qubits[0] != target
    if kind == "x":
        return qubits[0] != control
    return False


def _cancel_cnot_pairs(gates: list[Gate]) -> tuple[list[Gate], int]:
    """Remove CNOT pairs separated only by gates the CNOT commutes with.

    Scans left to right, pairing each CNOT with the first identical CNOT
    past the gates it commutes with, and repeats until a scan cancels
    nothing.  The live gates form a circular doubly linked list through
    ``nxt``/``prv`` (node k is ``gates[k]``, node n the sentinel), so a
    cancelled pair is unlinked in O(1) and the scan continues at the next
    live gate.
    """
    n = len(gates)
    nxt = array("l", range(1, n + 2))
    prv = array("l", range(-1, n))
    nxt[n], prv[0] = 0, n
    removed = 0
    changed = True
    while changed:
        changed = False
        i = nxt[n]
        while i != n:
            g = gates[i]
            if g.kind == "cnot":
                control, target = g.qubits
                j = nxt[i]
                while j != n:
                    other = gates[j]
                    if other.kind == "cnot" and other.qubits == g.qubits:
                        for k in (j, i):
                            nxt[prv[k]], prv[nxt[k]] = nxt[k], prv[k]
                        removed += 2
                        changed = True
                        break
                    if not _commutes_with_cnot(control, target, other):
                        break
                    j = nxt[j]
            i = nxt[i]  # still i's successor when i was just unlinked
    alive = []
    i = nxt[n]
    while i != n:
        alive.append(gates[i])
        i = nxt[i]
    return alive, removed


def _fold_segment(segment: list[Gate], width: int) -> tuple[list[Gate], int, int, int]:
    """Fold one {X, CNOT, RZ} run: merge same-parity rotations into their
    first occurrence (zero results kept in place), drop global-phase
    rotations, then cancel the CNOT pairs the merges exposed."""
    out: list[Gate] = []
    first: dict[int, tuple[int, int]] = {}
    merged = dropped = 0
    for g, y, b in _parity_sweep(segment, [1 << q for q in range(width)], [0] * width):
        if g.kind != "rz":
            out.append(g)
        elif y == 0:
            dropped += 1
        elif y in first:
            pos, b0 = first[y]
            host = out[pos]
            delta = -g.angle if b != b0 else g.angle
            out[pos] = host.shifted(host.angle + delta)
            merged += 1
        else:
            first[y] = (len(out), b)
            out.append(g)
    out, cancelled = _cancel_cnot_pairs(out)
    return out, merged, dropped, cancelled


def fold_phases(circ: Circuit) -> tuple[Circuit, PassReport]:
    """Merge rotations that contribute to the same parity term.

    The circuit is split into maximal {X, CNOT, RZ} runs (H, RX or mcrz
    gates pass through untouched and bound the runs); each run is folded
    in place, so the gate count never increases and the affine behavior of
    arbitrary inputs is preserved.  Folding a naive encoded gadget chain
    collapses it to a single Gray cycle with Walsh-summed angles.
    """
    out: list[Gate] = []
    segment: list[Gate] = []
    merged = dropped = cancelled = 0

    def close_segment() -> None:
        nonlocal merged, dropped, cancelled
        if not segment:
            return
        folded, m, d, c = _fold_segment(segment, circ.width)
        merged += m
        dropped += d
        cancelled += c
        out.extend(folded)
        segment.clear()

    for g in circ:
        if g.kind in FOLDABLE_KINDS:
            segment.append(g)
        else:
            close_segment()
            out.append(g)
    close_segment()
    result = Circuit(circ.width, tuple(out))
    rewrites = [
        f"rz-merged: {merged}",
        f"rz-global-dropped: {dropped}",
        f"cnot-cancelled: {cancelled}",
    ]
    return result, _report(circ, result, rewrites)


# --- full pipeline ----------------------------------------------------------

def optimize_pipeline(circ: Circuit) -> tuple[Circuit, PassReport]:
    """decompose mcrz -> push X -> fold phases -> push H."""
    before = circ
    staged = decompose_all_mcrz(circ)
    rewrites = [f"mcrz-decomposed: {gate_counts(circ).mcrz}"]
    staged, rep = push_paulis(staged)
    rewrites += [f"pauli/{r}" for r in rep.rewrites]
    staged, rep = fold_phases(staged)
    rewrites += [f"fold/{r}" for r in rep.rewrites]
    staged, rep = push_hadamards(staged)
    rewrites += [f"hadamard/{r}" for r in rep.rewrites]
    return staged, _report(before, staged, rewrites)
