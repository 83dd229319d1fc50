"""Canonical mixed-integer linear program container.

Columns carry finite bounds and objective coefficients; each row is a <= or
an = row with a right-hand side; the coefficient matrix is stored as
deduplicated triplets.  As every column is boxed, no solver meets an
unbounded LP.
Instances are built once and treated as read-only afterwards, so they can be
shared freely between solves.  ``with_data`` makes a model with other bounds,
costs, right-hand sides or coefficients on the same structure: names,
senses, binaries and the sparsity pattern (``a_rows``, ``a_cols``).  What
the structure alone decides, such as the names and the column order of the
entries, is cached once and shared by every such sibling; what the
coefficient values decide is made from them at each call.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

ROW_LE = "L"
ROW_EQ = "E"
_SENSES = frozenset((ROW_LE, ROW_EQ))

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_LIMIT = "limit"
STATUS_FAILED = "failed"

# a feasible point: relative row and bound residuals, and binary distance from
# {0, 1}, at most these
FEASIBILITY_TOL = 1e-6
INTEGRALITY_TOL = 1e-7


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
    # what is derived from the structure alone, by key; with_data siblings
    # share it, while dataclasses.replace starts it empty
    _structure_cache: dict = field(init=False, repr=False, compare=False,
                                   default_factory=dict)

    @property
    def n_cols(self) -> int:
        return len(self.col_lb)

    @property
    def n_rows(self) -> int:
        return len(self.row_rhs)

    @property
    def n_binaries(self) -> int:
        """The binary column count, the bench's ``model.binaries``."""
        return int(self.col_binary.sum())

    def binary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.col_binary)

    def structure_cached(self, key: str, make):
        """``make()``, computed at the first call for ``key`` and shared by
        every model that ``with_data`` makes from this one.  It may read the
        names, senses, binaries and sparsity pattern those models share; a
        reader of a cached value that depends on bounds, costs, right-hand
        sides or coefficients must check them against the model at hand."""
        cache = self._structure_cache
        if key not in cache:
            cache[key] = make()
        return cache[key]

    def with_data(self, col_lb=None, col_ub=None, col_obj=None,
                  row_rhs=None, a_vals=None) -> "CanonicalMilp":
        """This structure with the given column bounds, costs, right-hand
        sides or coefficients (``a_vals``, on this model's sparsity
        pattern); each one left out is shared with this model.

        Raises ValueError when an array has the wrong shape, when a
        coefficient is zero (the pattern holds nonzeros only, as
        ``ModelBuilder`` stores them), or names the first column whose
        bounds break the rule ``add_columns`` applies: a bound is not
        finite, the lower exceeds the upper, or a binary's bounds leave
        [0, 1].
        """
        data = {"col_lb": col_lb, "col_ub": col_ub, "col_obj": col_obj,
                "row_rhs": row_rhs, "a_vals": a_vals}
        data = {k: np.asarray(v, dtype=float) for k, v in data.items()
                if v is not None}
        for k, v in data.items():
            if v.shape != getattr(self, k).shape:
                raise ValueError(f"{k} has shape {v.shape}, the model "
                                 f"{getattr(self, k).shape}")
        milp = replace(self, **data)
        _check_column_bounds(milp.col_names, milp.col_lb, milp.col_ub,
                             milp.col_binary)
        milp._structure_cache = self._structure_cache
        if not milp.a_vals.all():
            k = int(np.argmin(milp.a_vals != 0.0))
            raise ValueError(f"row {self.row_names[self.a_rows[k]]!r}: zero "
                             f"coefficient for column "
                             f"{self.col_names[self.a_cols[k]]!r}")
        return milp

    def columns_csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, row_idx, vals) with entries grouped by column, in row
        order within a column; indptr and row_idx are shared by every
        ``with_data`` sibling, and vals are gathered from ``a_vals``."""
        order, indptr, rows = self.structure_cached("csc_order", self._csc_order)
        return indptr, rows, self.a_vals[order]

    def _csc_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries' column order, with the CSC indptr and row indices."""
        order = np.lexsort((self.a_rows, self.a_cols))
        indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.add.at(indptr, self.a_cols + 1, 1)
        np.cumsum(indptr, out=indptr)
        return order, indptr, self.a_rows[order]

    def columns_csc_with_slacks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``columns_csc`` of ``[A | I]``: one unit slack column per row."""
        indptr, rows, vals = self.columns_csc()
        slack_rows = np.arange(self.n_rows, dtype=np.int64)
        pattern = self.structure_cached("csc_slacks_pattern", lambda: (
            np.concatenate([indptr, indptr[-1] + 1 + slack_rows]),
            np.concatenate([rows, slack_rows])))
        return (*pattern, np.concatenate([vals, np.ones(self.n_rows)]))

    def row_is_le(self) -> np.ndarray:
        """Per row: True for a <= row, False for an = row."""
        return self.structure_cached(
            "row_is_le", lambda: np.asarray(self.row_sense, dtype="U1") == ROW_LE)

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        """A @ x computed from the triplets, as floats."""
        act = np.bincount(self.a_rows, weights=self.a_vals * x[self.a_cols],
                          minlength=self.n_rows)
        return act.astype(float, copy=False)  # int zeros when A stores nothing

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.col_obj @ x)


class ModelBuilder:
    """Assembles a model in blocks of columns and rows.

    ``add_columns`` appends a block of columns and returns their indices.
    ``add_rows`` appends a block of rows and returns their indices; its
    coefficients come as triplets (row within the block, column, value) in
    any row order.  Each row keeps its coefficients in the order they are
    given, and zero coefficients are dropped.  Every block is checked before
    anything is stored: names must be new and unique, bounds finite and
    ordered, a binary's bounds inside [0, 1], senses <= or =, and each column
    index in range and used at most once per row.  So ``build`` has nothing
    left to check.
    ``add_column`` and ``add_row`` add a one-element block.
    """

    def __init__(self) -> None:
        # each block list starts with an empty block of its dtype
        self._lb: list[np.ndarray] = [np.zeros(0)]
        self._ub: list[np.ndarray] = [np.zeros(0)]
        self._obj: list[np.ndarray] = [np.zeros(0)]
        self._binary: list[np.ndarray] = [np.zeros(0, dtype=bool)]
        self._col_names: list[str] = []
        self._sense: list[str] = []
        self._rhs: list[np.ndarray] = [np.zeros(0)]
        self._row_names: list[str] = []
        self._rows: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        self._cols: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        self._vals: list[np.ndarray] = [np.zeros(0)]
        self._seen_cols: set[str] = set()
        self._seen_rows: set[str] = set()

    @property
    def n_cols(self) -> int:
        return len(self._col_names)

    @property
    def n_rows(self) -> int:
        return len(self._row_names)

    def add_columns(self, names: Sequence[str], lb, ub, obj=0.0,
                    binary=False) -> np.ndarray:
        """Append one column per name; each other argument is a scalar or
        an array with one entry per name."""
        names = list(names)
        n = len(names)
        lb, ub, obj = (np.broadcast_to(np.array(v, dtype=float), (n,))
                       for v in (lb, ub, obj))
        binary = np.broadcast_to(np.array(binary, dtype=bool), (n,))
        _check_new_names("column", names, self._seen_cols)
        _check_column_bounds(names, lb, ub, binary)
        start = self.n_cols
        self._seen_cols.update(names)
        self._col_names.extend(names)
        self._lb.append(lb)
        self._ub.append(ub)
        self._obj.append(obj)
        self._binary.append(binary)
        return np.arange(start, start + n)

    def add_rows(self, names: Sequence[str], senses: Sequence[str], rhs,
                 rows, cols, vals) -> np.ndarray:
        """Append one row per name with the triplets' coefficients; ``rhs``
        and ``vals`` may be scalars."""
        names = list(names)
        senses = list(senses)
        n = len(names)
        if len(senses) != n:
            raise ValueError(f"{len(senses)} senses for {n} rows")
        rhs = np.broadcast_to(np.array(rhs, dtype=float), (n,))
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.broadcast_to(np.array(vals, dtype=float), rows.shape)
        if cols.shape != rows.shape:
            raise ValueError(f"{len(cols)} column indices for {len(rows)} "
                             f"triplet rows")
        if not _SENSES.issuperset(senses):
            name, sense = next((nm, s) for nm, s in zip(names, senses)
                               if s not in _SENSES)
            raise ValueError(f"row {name!r}: unknown sense {sense!r}")
        _check_new_names("row", names, self._seen_rows)
        outside = (rows < 0) | (rows >= n)
        if outside.any():
            k = int(np.flatnonzero(outside)[0])
            raise ValueError(f"triplet row {rows[k]} outside a block of {n} rows")
        order = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        outside = (cols < 0) | (cols >= self.n_cols)
        if outside.any():
            k = int(np.flatnonzero(outside)[0])
            raise ValueError(f"row {names[rows[k]]!r}: column index {cols[k]} "
                             f"out of range")
        width = max(self.n_cols, 1)
        key = np.sort(rows * width + cols)
        repeated = key[1:][key[1:] == key[:-1]]
        if len(repeated):
            r, c = divmod(int(repeated[0]), width)
            raise ValueError(f"row {names[r]!r}: duplicate coefficient for "
                             f"column {c}")
        start = self.n_rows
        keep = vals != 0.0
        self._seen_rows.update(names)
        self._row_names.extend(names)
        self._sense.extend(senses)
        self._rhs.append(rhs)
        self._rows.append(rows[keep] + start)
        self._cols.append(cols[keep])
        self._vals.append(vals[keep])
        return np.arange(start, start + n)

    def add_column(self, name: str, lb: float, ub: float, obj: float = 0.0,
                   binary: bool = False) -> int:
        return int(self.add_columns([name], lb, ub, obj, binary)[0])

    def add_row(self, name: str, sense: str, rhs: float,
                coeffs: Iterable[tuple[int, float]]) -> int:
        pairs = list(coeffs)
        return int(self.add_rows(
            [name], [sense], rhs, np.zeros(len(pairs), dtype=np.int64),
            [c for c, _ in pairs], [v for _, v in pairs])[0])

    def build(self) -> CanonicalMilp:
        return CanonicalMilp(
            col_lb=np.concatenate(self._lb),
            col_ub=np.concatenate(self._ub),
            col_obj=np.concatenate(self._obj),
            col_binary=np.concatenate(self._binary),
            col_names=list(self._col_names),
            row_sense=list(self._sense),
            row_rhs=np.concatenate(self._rhs),
            row_names=list(self._row_names),
            a_rows=np.concatenate(self._rows),
            a_cols=np.concatenate(self._cols),
            a_vals=np.concatenate(self._vals),
        )


def _check_column_bounds(names, lb, ub, binary) -> None:
    """ValueError naming the first column whose bounds are not finite, whose
    lb exceeds its ub, or, for a binary, that leaves [0, 1]."""
    for bad, text in (
            (~(np.isfinite(lb) & np.isfinite(ub)),
             "column {!r}: bounds [{}, {}] not finite"),
            (lb > ub, "column {!r}: lb {} exceeds ub {}"),
            (binary & ((lb < -1e-12) | (ub > 1 + 1e-12)),
             "binary column {!r}: bounds [{}, {}] outside [0, 1]")):
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(text.format(names[j], lb[j], ub[j]))


def _check_new_names(kind: str, names: list[str], seen: set[str]) -> None:
    if len(set(names)) == len(names) and seen.isdisjoint(names):
        return
    block: set[str] = set()
    for name in names:
        if name in seen or name in block:
            raise ValueError(f"duplicate {kind} name {name!r}")
        block.add(name)


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None
    objective: float
    iterations: int  # pivots, and the primal phases' bound flips
    basis: np.ndarray | None = None
    nonbasic_at_upper: np.ndarray | None = None
    # (structure cache, a_vals, LU factors of basis in that matrix), made at
    # the first solve that starts from this solution
    factors: tuple | None = field(default=None, repr=False, compare=False)


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


def feasibility_report(milp: CanonicalMilp, x: np.ndarray) -> dict:
    """Residuals of a candidate point against the model, by category.

    Walks the stored rows and bounds directly, so it is independent of any
    solver internals.
    """
    rhs = milp.row_rhs
    excess = milp.row_activity(x) - rhs
    row_resid = np.where(milp.row_is_le(), excess, np.abs(excess))
    row_scale = 1.0 + np.abs(rhs)
    worst_row = float(np.max(row_resid / row_scale, initial=0.0))

    bound_viol = np.maximum(milp.col_lb - x, x - milp.col_ub)
    bound_scale = 1.0 + np.maximum(np.abs(milp.col_lb), np.abs(milp.col_ub))
    worst_bound = float(np.max(bound_viol / bound_scale, initial=0.0))

    bins = milp.binary_indices()
    worst_int = float(np.max(np.abs(x[bins] - np.round(x[bins])), initial=0.0))

    return {
        "max_row_violation": worst_row,
        "max_bound_violation": worst_bound,
        "max_integrality_violation": worst_int,
        "rows_ok": worst_row <= FEASIBILITY_TOL,
        "bounds_ok": worst_bound <= FEASIBILITY_TOL,
        "integral": worst_int <= INTEGRALITY_TOL,
        "feasible": (worst_row <= FEASIBILITY_TOL and worst_bound <= FEASIBILITY_TOL
                     and worst_int <= INTEGRALITY_TOL),
    }
