"""Canonical mixed-integer linear program container.

Columns carry bounds and objective coefficients; rows carry a sense and a
right-hand side; the coefficient matrix is stored as deduplicated triplets.
Instances are built once and treated as read-only afterwards, so they can be
shared freely between solves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

ROW_LE = "L"
ROW_EQ = "E"
ROW_GE = "G"

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_LIMIT = "limit"
STATUS_FAILED = "failed"


@dataclass
class CanonicalMilp:
    col_lb: np.ndarray
    col_ub: np.ndarray
    col_obj: np.ndarray
    col_binary: np.ndarray
    col_names: list[str]
    row_sense: list[str]
    row_rhs: np.ndarray
    row_names: list[str]
    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray

    @property
    def n_cols(self) -> int:
        return len(self.col_lb)

    @property
    def n_rows(self) -> int:
        return len(self.row_rhs)

    @property
    def n_binaries(self) -> int:
        return int(self.col_binary.sum())

    def binary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.col_binary)

    def validate(self) -> list[str]:
        """Invariant violations as human-readable strings (empty == sound)."""
        problems: list[str] = []
        if np.any(self.col_lb > self.col_ub + 1e-12):
            bad = int(np.argmax(self.col_lb > self.col_ub + 1e-12))
            problems.append(f"column {self.col_names[bad]}: lb exceeds ub")
        for j in self.binary_indices():
            if self.col_lb[j] < -1e-12 or self.col_ub[j] > 1 + 1e-12:
                problems.append(
                    f"binary column {self.col_names[j]}: bounds outside [0, 1]")
        if len(self.a_rows):
            pairs = self.a_rows.astype(np.int64) * self.n_cols + self.a_cols
            if len(np.unique(pairs)) != len(pairs):
                problems.append("duplicate coefficient triplets")
            if self.a_rows.min() < 0 or self.a_rows.max() >= self.n_rows:
                problems.append("triplet row index out of range")
            if self.a_cols.min() < 0 or self.a_cols.max() >= self.n_cols:
                problems.append("triplet column index out of range")
        for s in self.row_sense:
            if s not in (ROW_LE, ROW_EQ, ROW_GE):
                problems.append(f"unknown row sense {s!r}")
                break
        return problems

    def columns_csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, row_idx, vals) with entries grouped by column."""
        cached = getattr(self, "_csc", None)
        if cached is not None:
            return cached
        order = np.lexsort((self.a_rows, self.a_cols))
        cols = self.a_cols[order]
        indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.add.at(indptr, cols + 1, 1)
        np.cumsum(indptr, out=indptr)
        csc = (indptr, self.a_rows[order].copy(), self.a_vals[order].copy())
        self._csc = csc
        return csc

    def columns_csc_with_slacks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``columns_csc`` of ``[A | I]``: one unit slack column per row."""
        cached = getattr(self, "_csc_slacks", None)
        if cached is not None:
            return cached
        indptr, rows, vals = self.columns_csc()
        slack_rows = np.arange(self.n_rows, dtype=np.int64)
        csc = (np.concatenate([indptr, indptr[-1] + 1 + slack_rows]),
               np.concatenate([rows, slack_rows]),
               np.concatenate([vals, np.ones(self.n_rows)]))
        self._csc_slacks = csc
        return csc

    def row_sense_codes(self) -> np.ndarray:
        """Row senses as int8 codes: +1 for <=, 0 for =, -1 for >=."""
        cached = getattr(self, "_sense_codes", None)
        if cached is not None:
            return cached
        sense = np.asarray(self.row_sense, dtype="U1")
        codes = (sense == ROW_LE).astype(np.int8) - (sense == ROW_GE).astype(np.int8)
        self._sense_codes = codes
        return codes

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        """A @ x computed from the triplets."""
        act = np.zeros(self.n_rows)
        if len(self.a_rows):
            np.add.at(act, self.a_rows, self.a_vals * x[self.a_cols])
        return act

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.col_obj @ x)


class ModelBuilder:
    """Incremental construction with name bookkeeping."""

    def __init__(self) -> None:
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._binary: list[bool] = []
        self._col_names: list[str] = []
        self._sense: list[str] = []
        self._rhs: list[float] = []
        self._row_names: list[str] = []
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._seen_cols: set[str] = set()
        self._seen_rows: set[str] = set()

    @property
    def n_cols(self) -> int:
        return len(self._lb)

    @property
    def n_rows(self) -> int:
        return len(self._rhs)

    def add_column(self, name: str, lb: float = 0.0, ub: float = np.inf,
                   obj: float = 0.0, binary: bool = False) -> int:
        if name in self._seen_cols:
            raise ValueError(f"duplicate column name {name!r}")
        if lb > ub:
            raise ValueError(f"column {name!r}: lb {lb} exceeds ub {ub}")
        self._seen_cols.add(name)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._obj.append(float(obj))
        self._binary.append(bool(binary))
        self._col_names.append(name)
        return len(self._lb) - 1

    def add_row(self, name: str, sense: str, rhs: float,
                coeffs: Iterable[tuple[int, float]]) -> int:
        if sense not in (ROW_LE, ROW_EQ, ROW_GE):
            raise ValueError(f"row {name!r}: unknown sense {sense!r}")
        if name in self._seen_rows:
            raise ValueError(f"duplicate row name {name!r}")
        self._seen_rows.add(name)
        r = len(self._rhs)
        seen: set[int] = set()
        for col, val in coeffs:
            if not 0 <= col < len(self._lb):
                raise ValueError(f"row {name!r}: column index {col} out of range")
            if col in seen:
                raise ValueError(f"row {name!r}: duplicate coefficient for column {col}")
            seen.add(col)
            if val != 0.0:
                self._rows.append(r)
                self._cols.append(col)
                self._vals.append(float(val))
        self._sense.append(sense)
        self._rhs.append(float(rhs))
        self._row_names.append(name)
        return r

    def build(self) -> CanonicalMilp:
        milp = CanonicalMilp(
            col_lb=np.asarray(self._lb, dtype=float),
            col_ub=np.asarray(self._ub, dtype=float),
            col_obj=np.asarray(self._obj, dtype=float),
            col_binary=np.asarray(self._binary, dtype=bool),
            col_names=list(self._col_names),
            row_sense=list(self._sense),
            row_rhs=np.asarray(self._rhs, dtype=float),
            row_names=list(self._row_names),
            a_rows=np.asarray(self._rows, dtype=np.int64),
            a_cols=np.asarray(self._cols, dtype=np.int64),
            a_vals=np.asarray(self._vals, dtype=float),
        )
        problems = milp.validate()
        if problems:
            raise ValueError("model invariants violated: " + "; ".join(problems))
        return milp


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None
    objective: float
    iterations: int
    basis: np.ndarray | None = None
    nonbasic_at_upper: np.ndarray | None = None


@dataclass
class MipSolution:
    status: str
    x: np.ndarray | None
    objective: float
    best_bound: float
    gap: float
    node_count: int
    lp_iterations: int
    last_lp_status: str = ""  # status of the last node relaxation solved


def feasibility_report(milp: CanonicalMilp, x: np.ndarray,
                       row_tol: float = 1e-6, bound_tol: float = 1e-6,
                       integrality_tol: float = 1e-7) -> dict:
    """Residuals of a candidate point against the model, by category.

    Walks the stored rows and bounds directly, so it is independent of any
    solver internals.
    """
    act = milp.row_activity(x)
    rhs = milp.row_rhs
    code = milp.row_sense_codes()
    excess = act - rhs
    row_resid = np.where(code > 0, excess, np.where(code < 0, -excess, np.abs(excess)))
    row_scale = 1.0 + np.abs(rhs)
    worst_row = float(np.max(row_resid / row_scale, initial=0.0))

    lb_viol = np.where(np.isfinite(milp.col_lb), milp.col_lb - x, 0.0)
    ub_viol = np.where(np.isfinite(milp.col_ub), x - milp.col_ub, 0.0)
    bound_scale = 1.0 + np.maximum(
        np.abs(np.where(np.isfinite(milp.col_lb), milp.col_lb, 0.0)),
        np.abs(np.where(np.isfinite(milp.col_ub), milp.col_ub, 0.0)))
    worst_bound = float(np.max(np.maximum(lb_viol, ub_viol) / bound_scale, initial=0.0))

    bins = milp.binary_indices()
    worst_int = float(np.max(np.abs(x[bins] - np.round(x[bins])), initial=0.0)) \
        if len(bins) else 0.0

    return {
        "max_row_violation": worst_row,
        "max_bound_violation": worst_bound,
        "max_integrality_violation": worst_int,
        "rows_ok": worst_row <= row_tol,
        "bounds_ok": worst_bound <= bound_tol,
        "integral": worst_int <= integrality_tol,
        "feasible": (worst_row <= row_tol and worst_bound <= bound_tol
                     and worst_int <= integrality_tol),
    }
