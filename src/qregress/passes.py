"""Rewrite passes: Pauli pushing, phase folding, Hadamard pushing.

Every pass consumes and produces immutable circuits and preserves the
unitary up to global phase.  The full pipeline turns a naive encoded
circuit (X-conjugated multi-controlled RZ gadgets between H layers) into
the folded RX/CNOT form, gate for gate the output of the direct builder.

The passes read a circuit through its flat per-gate columns (kind codes,
first and last qubits; see ``circuit._gate_columns``) and run as loops over
those ints, reading a ``Gate`` only where they rewrite it.  Each pass leaves
the columns of its output on it for the next one.  Gates are validated
once, where they enter a ``Circuit``: ``decompose_all_mcrz`` validates each
gate it emits, while the other passes emit only gates derived from their
already validated input and build their output without validating it
again.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import compress, count, islice
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import circuit as cir
from .circuit import (
    GATE_KINDS,
    Circuit,
    CountReport,
    Gate,
    _gate_columns,
    _qubit_column,
    _tally,
    _trusted_circuit,
    gate_counts,
)
from .synthesis import _uniform_block, decompose_all_mcrz

_ZERO_COEFF = 1e-12

FOLDABLE_KINDS = frozenset({"x", "cnot", "rz"})

# kind codes of the flat columns: a gate's index into GATE_KINDS
_X, _H, _CNOT, _RZ, _RX, _MCRZ = range(len(GATE_KINDS))
_NOT_FOLDABLE = np.array([kind not in FOLDABLE_KINDS for kind in GATE_KINDS])
_X_BYTE = bytes([_X])
# bytes.translate tables from a kind column to a mask column
_NOT_X = bytes(code != _X for code in range(256))
_IS_RZ = bytes(code == _RZ for code in range(256))


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


class _GateRun(Sequence):
    """A view of ``gates[start:stop]`` with its columns (see
    ``_gate_columns``), as handed to ``_fold_segment`` and
    ``_cancel_cnot_pairs``; it copies no gates."""

    __slots__ = ("gates", "start", "stop", "_columns")

    def __init__(self, gates, columns, start: int = 0, stop: int | None = None):
        self.gates, self._columns = gates, columns
        self.start, self.stop = start, len(gates) if stop is None else stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, i: int) -> Gate:
        return self.gates[self.start + i]

    def __iter__(self):
        return islice(self.gates, self.start, self.stop)


def _kept(column, mask: bytes):
    """The entries of ``column`` whose byte in ``mask`` is 1 (every mask byte
    is 0 or 1), as bytes if ``column`` is bytes and as a list otherwise."""
    if isinstance(column, bytes):
        return np.frombuffer(column, np.uint8)[np.frombuffer(mask, bool)].tobytes()
    return list(compress(column, mask))


# --- Pauli pushing ----------------------------------------------------------

def push_paulis(circ: Circuit) -> tuple[Circuit, PassReport]:
    """Commute every X gate rightward and cancel the pairs.

    X through an RZ on the same wire negates the angle; X on a CNOT
    control spawns an X on the target; X commutes with RX and with CNOT
    targets.  An X that reaches an H stops there (emitted just before it);
    X gates alive at the end remain as a trailing suffix.
    """
    gates = circ.gates
    kinds, first, last = _gate_columns(circ)
    before = _tally(kinds)
    if before.mcrz:
        raise ValueError("push_paulis needs an mcrz-free circuit; decompose first")
    pending = [0] * circ.width
    out: list[Gate] = []
    negations: dict[int, Gate] = {}  # by id: rz(q, 0.0) == rz(q, -0.0)
    negated = 0
    stops = 0  # X gates stopped at an H
    for g, k, a, b in zip(gates, kinds, first, last):
        if k == _RZ:
            if pending[a]:
                neg = negations.get(id(g))
                if neg is None:
                    neg = negations[id(g)] = cir.rz(a, -g.angle)
                out.append(neg)
                negated += 1
            else:
                out.append(g)
        elif k == _CNOT:
            out.append(g)
            if pending[a]:
                pending[b] ^= 1
        elif k == _X:
            pending[a] ^= 1
        elif k == _H:
            if pending[a]:
                out.append(cir.x(a))
                stops += 1
                pending[a] = 0
            out.append(g)
        else:  # rx
            out.append(g)
    suffix = [q for q in range(circ.width) if pending[q]]
    out += map(cir.x, suffix)
    columns = None  # with X gates stopped at an H: read from the gates
    if not stops:  # out's columns: the input's without X gates, then the suffix
        keep = kinds.translate(_NOT_X)
        columns = (kinds.replace(_X_BYTE, b"") + _X_BYTE * len(suffix),
                   _kept(first, keep), _kept(last, keep))
        if suffix:
            columns = (columns[0], *(_qubit_column([*c, *suffix]) for c in columns[1:]))
    result = _trusted_circuit(circ.width, tuple(out), columns)
    rewrites = [
        f"x-absorbed: {before.x}",
        f"rz-negated: {negated}",
        f"x-stopped-at-h: {stops}",
        f"x-suffix: {len(suffix)}",
    ]
    # every X is absorbed; the X gates out are the stopped ones and the suffix
    after = replace(before, x=stops + len(suffix))
    return result, PassReport(before, after, tuple(rewrites))


# --- Hadamard pushing -------------------------------------------------------

def push_hadamards(circ: Circuit) -> tuple[Circuit, PassReport]:
    """Cancel H pairs through the circuit.

    A pending H exchanges RZ and RX on its wire; a CNOT whose both wires
    carry pending H flips direction.  Gates with no push rule (X, mcrz, or
    a CNOT with only one pushed wire) flush the pending H just before them.
    Unmatched H gates are emitted at the end.
    """
    gates = circ.gates
    kinds, first, last = _gate_columns(circ)
    pending = [0] * circ.width
    out: list[Gate] = []
    cancelled = exchanged = flipped = flushed = 0

    def flush(qubits) -> None:
        nonlocal flushed
        for q in qubits:
            if pending[q]:
                out.append(cir.h(q))
                pending[q] = 0
                flushed += 1

    for g, k, a, b in zip(gates, kinds, first, last):
        if k == _H:
            cancelled += pending[a]
            pending[a] ^= 1
        elif k == _RZ:
            if pending[a]:
                out.append(cir.rx(a, g.angle))
                exchanged += 1
            else:
                out.append(g)
        elif k == _RX:
            if pending[a]:
                out.append(cir.rz(a, g.angle))
                exchanged += 1
            else:
                out.append(g)
        elif k == _CNOT:
            if pending[a] and pending[b]:
                out.append(cir.cnot(b, a))
                flipped += 1
            else:
                flush((a, b))
                out.append(g)
        else:  # x or mcrz: no push rule
            flush(g.qubits)
            out.append(g)
    tail = [cir.h(q) for q in range(circ.width) if pending[q]]
    out += tail
    result = _trusted_circuit(circ.width, tuple(out))
    rewrites = [
        f"h-cancelled-pairs: {cancelled}",
        f"rz-rx-exchanged: {exchanged}",
        f"cnot-flipped: {flipped}",
        f"h-flushed: {flushed}",
        f"h-trailing: {len(tail)}",
    ]
    return result, PassReport(_tally(kinds), gate_counts(result), tuple(rewrites))


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


class _Sweep(NamedTuple):
    slots: list[int]  # per RZ, in order: the index in parities of its parity
    flips: bytearray  # per RZ: 1 if an X flips its sign
    parities: list[int]  # distinct parity masks, in order of first appearance
    hosts: list[int]  # per parity: the RZ where it first appears
    masks: list[int]  # per wire, at the end: its input-parity mask
    bits: list[int]  # per wire, at the end: its X flip bit


def _parity_sweep(kinds: bytes, first, last, width: int) -> _Sweep:
    """The one wire-annotation sweep, shared by extraction and folding.

    Walks an {X, CNOT, RZ} run given by its columns, keeping per wire q the
    input-parity mask it carries and its X flip bit, packed as
    ``mask << 1 | bit`` so that a CNOT updates both with one XOR, and
    records which parity each RZ rotates.
    """
    wires = [2 << q for q in range(width)]
    slot_of: dict[int, int] = {}
    slots: list[int] = []
    flips = bytearray()
    hosts: list[int] = []
    for k, a, b in zip(kinds, first, last):
        if k == _CNOT:
            wires[b] ^= wires[a]
        elif k == _RZ:
            v = wires[a]
            s = slot_of.get(v >> 1)
            if s is None:
                s = slot_of[v >> 1] = len(hosts)
                hosts.append(len(slots))
            slots.append(s)
            flips.append(v & 1)
        elif k == _X:
            wires[a] ^= 1
        else:
            raise ValueError(f"unsupported gate kind {GATE_KINDS[k]!r} for phase analysis")
    masks = [v >> 1 for v in wires]
    return _Sweep(slots, flips, list(slot_of), hosts, masks, [v & 1 for v in wires])


def _rotations_at(kinds: bytes) -> np.ndarray:
    """Positions of the RZ gates in a kind column."""
    return np.flatnonzero(np.frombuffer(kinds, np.uint8) == _RZ)


def extract_phase_polynomial(circ: Circuit) -> PhasePolynomial:
    """Phase polynomial representation of an {X, CNOT, RZ} circuit.

    Coefficients below 1e-12 and the empty parity (a global phase) are
    dropped.
    """
    gates = circ.gates
    kinds, first, last = _gate_columns(circ)
    sweep = _parity_sweep(kinds, first, last, circ.width)
    terms: dict[int, float] = {}
    for i, s, flip in zip(_rotations_at(kinds).tolist(), sweep.slots, sweep.flips):
        y = sweep.parities[s]
        if y == 0:
            continue  # an RZ on the empty parity is only a global phase
        angle = gates[i].angle
        signed = -angle if flip else angle
        terms[y] = terms[y] + signed if y in terms else signed
    for y in [y for y, a in terms.items() if abs(a) <= _ZERO_COEFF]:
        del terms[y]
    b = sum(bit << q for q, bit in enumerate(sweep.bits))
    return PhasePolynomial(circ.width, terms, tuple(sweep.masks), b)


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

def _cancel_cnot_pairs(gates) -> tuple[list[Gate], int]:
    """Remove CNOT pairs separated only by gates the CNOT commutes with.

    Scans left to right, pairing each CNOT with the first identical CNOT
    past the gates it commutes with, and repeats until a scan cancels
    nothing.  A CNOT commutes with a CNOT whose target is not its control
    and whose control is not its target, with an RZ off its target and
    with an X off its control, and with no other gate.
    """
    kinds, first, last = _gate_columns(gates)
    width = max(max(first, default=0), max(last, default=0)) + 1
    alive = range(len(gates))
    while True:
        keep = _cancel_scan(kinds, first, last, width)
        if all(keep):
            break
        alive, kinds, first, last = (_kept(c, keep) for c in (alive, kinds, first, last))
    return [gates[i] for i in alive], len(gates) - len(alive)


def _cancel_scan(kinds: bytes, first: list[int], last: list[int], width: int) -> bytearray:
    """One scan of ``_cancel_cnot_pairs``, in one pass; returns a keep mask.

    The scan's look-ahead from a CNOT passes live commuting gates up to its
    partner, so a CNOT cancels with the latest uncancelled identical CNOT
    when no live gate between them blocks it.  ``blocked_control[w]`` and
    ``blocked_target[w]`` hold the index of the latest live gate that does
    not commute with a CNOT controlled by, or targeting, wire w: an X on w
    or a CNOT targeting w, and an RZ on w or a CNOT controlled by w.
    """
    latest: dict[int, int] = {}  # c * width + t: index of the latest live CNOT (c, t)
    blocked_control = [-1] * width
    blocked_target = [-1] * width
    keep = bytearray(b"\x01") * len(kinds)
    for p, k, c, t in zip(count(), kinds, first, last):
        if k == _CNOT:
            key = c * width + t
            o = latest.get(key, -1)
            if o > blocked_control[c] and o > blocked_target[t]:
                keep[o] = keep[p] = 0
                latest[key] = -1
            else:
                latest[key] = p
                blocked_control[t] = blocked_target[c] = p
        elif k == _RZ:
            blocked_target[c] = p
        elif k == _X:
            blocked_control[c] = p
        else:  # commutes with no CNOT
            blocked_control[:] = blocked_target[:] = [p] * width
    return keep


def _fold_segment(segment, width: int) -> tuple[list[Gate], int, int, int]:
    """Fold one {X, CNOT, RZ} run: merge same-parity rotations into their
    first occurrence (zero results kept in place), drop global-phase
    rotations, then cancel the CNOT pairs the merges exposed."""
    kinds, first, last = _gate_columns(segment)
    dropped, totals, merged = _merge_rotations(segment, kinds, first, last, width)
    keep = np.ones(len(segment), dtype=bool)
    keep[dropped] = False
    mask = keep.tobytes()
    kept = _kept(segment, mask)
    for pos, total in totals.items():  # index in kept: pos less the drops before it
        kept[pos - int(np.searchsorted(dropped, pos))] = segment[pos].shifted(total)
    columns = tuple(_kept(column, mask) for column in (kinds, first, last))
    out, cancelled = _cancel_cnot_pairs(_GateRun(kept, columns))
    return out, merged, len(dropped) - merged, cancelled


def _merge_rotations(segment, kinds: bytes, first, last, width: int):
    """The merge step of ``_fold_segment``.

    Each parity's angle is summed in place, left to right from its first
    rotation's angle.  Returns the ascending positions of the rotations that
    go (merged into a host, or on the empty parity), the summed angle of
    each host position that merged, and the number merged.
    """
    slots, flips, parities, hosts, _, _ = _parity_sweep(kinds, first, last, width)
    slot = np.array(slots, dtype=np.int32)
    del slots  # freed before the arrays below are built
    hosts = np.array(hosts, dtype=np.intp)
    at = _rotations_at(kinds)
    rotations = compress(segment, kinds.translate(_IS_RZ))
    angles = np.fromiter(map(attrgetter("angle"), rotations), float, len(at))
    sums = angles[hosts]
    flip = np.frombuffer(flips, np.uint8)
    np.negative(angles, out=angles, where=flip != flip[hosts][slot])  # signed deltas
    live = slot != (parities.index(0) if 0 in parities else -1)  # not a global phase
    rest = live.copy()
    rest[hosts] = False  # the rotations merged into a host
    with np.errstate(over="ignore"):  # an infinite sum is rejected below
        np.add.at(sums, slot[rest], angles[rest])  # unbuffered, in rotation order
    totals: dict[int, float] = {}
    for s in np.flatnonzero(np.bincount(slot[rest], minlength=len(parities))).tolist():
        total = float(sums[s])
        if not math.isfinite(total):
            raise ValueError("gate angle must be finite")
        totals[int(at[hosts[s]])] = total
    return at[rest | ~live], totals, int(rest.sum())


def fold_phases(circ: Circuit) -> tuple[Circuit, PassReport]:
    """Merge rotations that contribute to the same parity term.

    The circuit is split into maximal {X, CNOT, RZ} runs (H, RX or mcrz
    gates pass through untouched and bound the runs); each run is folded
    in place, so the gate count never increases and the affine behavior of
    arbitrary inputs is preserved.  Folding a naive encoded gadget chain
    collapses it to a single Gray cycle with Walsh-summed angles.
    """
    gates = circ.gates
    kinds, first, last = _gate_columns(circ)
    bounds = np.flatnonzero(_NOT_FOLDABLE[np.frombuffer(kinds, np.uint8)]).tolist()
    out: list[Gate] = []
    merged = dropped = cancelled = 0
    start = 0
    for stop in bounds + [len(gates)]:
        if start < stop:
            part = slice(start, stop)
            segment = _GateRun(gates, (kinds[part], first[part], last[part]), start, stop)
            folded, m, d, c = _fold_segment(segment, circ.width)
            merged += m
            dropped += d
            cancelled += c
            out += folded
        if stop < len(gates):
            out.append(gates[stop])
        start = stop + 1
    result = _trusted_circuit(circ.width, tuple(out))
    rewrites = [
        f"rz-merged: {merged}",
        f"rz-global-dropped: {dropped}",
        f"cnot-cancelled: {cancelled}",
    ]
    return result, PassReport(_tally(kinds), gate_counts(result), tuple(rewrites))


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
