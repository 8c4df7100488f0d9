"""Data tables, register layout and dataset plumbing.

A table holds L rows and M+1 columns with the response in column 0.  For
circuit building the table is flattened row-major with the column index in
the low bits (k = l * 2**n_m + m), zero-padded to the register size, and
scaled to unit L2 norm so the encoded angles stay small.
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DataTable:
    """L x (M+1) real table; column 0 is the response."""

    values: np.ndarray
    scale: float | None = None  # set once the table has been unit-normalized

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 2:
            raise ValueError("table must be 2-D with at least one row and two columns")
        if not np.all(np.isfinite(v)):
            raise ValueError("table entries must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1] - 1

    @property
    def response(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def features(self) -> np.ndarray:
        return self.values[:, 1:]

    def rows(self, index) -> "DataTable":
        return DataTable(self.values[index], self.scale)

    def normalized(self) -> "DataTable":
        """Scale all entries so the flattened vector has unit L2 norm."""
        norm = float(np.linalg.norm(self.values))
        if norm == 0.0:
            raise ValueError("cannot normalize an all-zero table")
        return DataTable(self.values / norm, 1.0 / norm)

    @property
    def is_normalized(self) -> bool:
        return abs(float(np.sum(self.values**2)) - 1.0) <= 1e-9

    def to_json(self) -> str:
        return json.dumps(
            {"values": self.values.tolist(), "scale": self.scale}, sort_keys=True
        )


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit layout: column register in the low bits, then the row register,
    then the two ancillas (data-prep ancilla first)."""

    n_l: int
    n_m: int

    @property
    def n_data(self) -> int:
        return self.n_l + self.n_m

    @property
    def anc1(self) -> int:
        return self.n_data

    @property
    def anc2(self) -> int:
        return self.n_data + 1

    @property
    def width(self) -> int:
        return self.n_data + 2

    @property
    def k_pad(self) -> int:
        return 2**self.n_data

    @property
    def m_pad(self) -> int:
        return 2**self.n_m

    @property
    def row_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n_m, self.n_data))

    @property
    def column_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n_m))

    @property
    def data_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n_data))

    def to_obj(self, scale: float | None = None) -> dict:
        return {
            "n_l": self.n_l,
            "n_m": self.n_m,
            "anc1": self.anc1,
            "anc2": self.anc2,
            "scale": scale,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "RegisterLayout":
        return cls(int(obj["n_l"]), int(obj["n_m"]))


def layout_for(n_rows: int, n_features: int) -> RegisterLayout:
    if n_rows < 1 or n_features < 0:
        raise ValueError("need at least one row and a non-negative feature count")
    n_l = max(0, (n_rows - 1).bit_length())
    n_m = max(0, n_features.bit_length())  # columns = n_features + 1
    return RegisterLayout(n_l, n_m)


def flatten_padded(table: DataTable, layout: RegisterLayout) -> np.ndarray:
    """Row-major flatten with the column index in the low bits, zero padded
    to the 2**(n_l+n_m) register size."""
    out = np.zeros(layout.k_pad, dtype=float)
    cols = table.values.shape[1]
    for l in range(table.n_rows):
        base = l * layout.m_pad
        out[base : base + cols] = table.values[l]
    return out


# --- standardization and splitting ----------------------------------------

def standardize(train: DataTable, test: DataTable | None = None):
    """Zero-mean unit-variance per column, statistics from the train split.

    The response column is standardized along with the features: the encoded
    model has no intercept, so the response must be centered for the fit to
    be expressible, and per-column scaling cancels in the recovered weights.
    """
    mean = train.values.mean(axis=0)
    std = train.values.std(axis=0)
    degenerate = std <= 1e-12
    if np.any(degenerate):
        warnings.warn(
            f"{int(degenerate.sum())} constant column(s) retained with unit scale",
            stacklevel=2,
        )
        std = np.where(degenerate, 1.0, std)
    train_s = DataTable((train.values - mean) / std)
    if test is None:
        return train_s, None
    return train_s, DataTable((test.values - mean) / std)


def split_rows(table: DataTable, train_fraction: float, seed: int):
    """Deterministic seeded row split into (train, test)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = table.n_rows
    n_train = int(round(n * train_fraction))
    if n_train < 1 or n_train >= n:
        raise ValueError("split leaves an empty train or test set")
    perm = np.random.default_rng(seed).permutation(n)
    return table.rows(perm[:n_train]), table.rows(perm[n_train:])


def load_csv(path, target_column: str) -> DataTable:
    """Read a numeric CSV with a header row; the target column becomes
    column 0 of the table."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [c.strip() for c in header]
        if target_column not in header:
            raise ValueError(f"{path}: no column named {target_column!r}")
        t_idx = header.index(target_column)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                vals = [float(c) for c in row]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
            if len(vals) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} cells")
            rows.append(vals)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    arr = np.asarray(rows, dtype=float)
    order = [t_idx] + [i for i in range(len(header)) if i != t_idx]
    return DataTable(arr[:, order])


def ingest_csv(path, target_column: str, split_seed: int, train_fraction: float):
    """Load, split and standardize a CSV dataset.

    Returns (train, test) tables standardized with train statistics.
    """
    table = load_csv(path, target_column)
    train, test = split_rows(table, train_fraction, split_seed)
    return standardize(train, test)


def synthetic_linear_table(
    n_rows: int,
    n_features: int,
    weights=None,
    noise: float = 0.0,
    seed: int = 0,
) -> tuple[DataTable, np.ndarray]:
    """Seeded linear-model dataset: y = X w + noise * eps.

    Returns the table (response in column 0) and the ground-truth weights.
    """
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_rows, n_features))
    if weights is None:
        w = rng.uniform(0.4, 1.2, size=n_features) * rng.choice([-1.0, 1.0], n_features)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n_features,):
            raise ValueError("weights length must equal the feature count")
    y = feats @ w
    if noise > 0.0:
        y = y + noise * rng.normal(size=n_rows)
    return DataTable(np.column_stack([y, feats])), w
