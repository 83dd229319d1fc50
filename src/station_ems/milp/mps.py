"""MPS export and import for canonical models.

The writer emits one coefficient per line with %.17g values, so float64
round-trips exactly; fields are whitespace separated and may overflow the
classic 8/12 character layout.  It works from whole arrays: every
coefficient line is formatted in one pass over the column-ordered entries.
The names, ROWS, markers and coefficient lines are made once per structure
and shared by the models ``with_data`` makes from it; a column's block of
lines, a right-hand side line or a column's bound lines are made again
only where their values differ.  Each distinct value is formatted once per
structure (``NumberTexts``).
Stored names are written when every name fits (1-8 characters of
``[A-Za-z0-9_.-]``, unique, not the objective row's name); otherwise columns
and rows get generated ``X<n>``/``R<n>`` names.  The reader splits on
whitespace and accepts exactly what the writer produces plus the common
bound types.
"""
from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .canonical import CanonicalMilp, ROW_EQ, ROW_GE, ROW_LE

_NAME = r"[A-Za-z0-9_.\-]{1,8}"
_NAMES_RE = re.compile(rf"{_NAME}(?:\n{_NAME})*")
_B36 = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

_OBJ = "OBJ"


def _base36(value: int) -> str:
    if value == 0:
        return "0"
    out = []
    while value:
        value, r = divmod(value, 36)
        out.append(_B36[r])
    return "".join(reversed(out))


def _usable(names: list[str]) -> bool:
    """Unique, not the objective row's name, and 1-8 name characters each."""
    unique = set(names)
    joined = "\n".join(names)
    # a name holding the separator would match the pattern as two names, so
    # the separators are counted as well
    return (len(unique) == len(names) and _OBJ not in unique
            and joined.count("\n") == len(names) - 1
            and _NAMES_RE.fullmatch(joined) is not None)


def _mps_names(milp: CanonicalMilp) -> tuple[list[str], list[str]]:
    cols = list(milp.col_names)
    if not _usable(cols):
        cols = ["X" + _base36(j) for j in range(milp.n_cols)]
    rows = list(milp.row_names)
    if not _usable(rows):
        rows = ["R" + _base36(i) for i in range(milp.n_rows)]
    return cols, rows


class NumberTexts:
    """Each number's text in one format, made once per distinct value.

    Values are told apart by their bit patterns, so -0.0 keeps a text of its
    own.  The map is a sorted array of the bit patterns seen so far beside
    an array of their texts.  A block is reduced to its distinct values
    with ``np.unique`` and looked up with ``np.searchsorted``; only a value
    the map does not hold yet is formatted.
    """

    def __init__(self, fmt):
        self.fmt = fmt
        self.keys = np.zeros(0, dtype=np.int64)
        self.texts = np.zeros(0, dtype=object)

    def __call__(self, values) -> np.ndarray:
        """The texts of float ``values``, as an object array of the same
        shape."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        keys, inverse = np.unique(values.reshape(-1).view(np.int64),
                                  return_inverse=True)
        at = np.searchsorted(self.keys, keys)
        known = at < len(self.keys)
        known[known] = self.keys[at[known]] == keys[known]
        if not known.all():
            new = keys[~known]
            texts = np.empty(len(new), dtype=object)
            texts[:] = list(map(self.fmt, new.view(np.float64).tolist()))
            merged = np.concatenate([self.keys, new])
            order = np.argsort(merged, kind="stable")
            self.keys = merged[order]
            self.texts = np.concatenate([self.texts, texts])[order]
            at = np.searchsorted(self.keys, keys)
        return self.texts[at[inverse]].reshape(values.shape)


class _Layout:
    """The lines of one structure's MPS files, with the data of the model
    they were first made for.

    Names, ROWS, markers and coefficient lines depend on the structure
    alone.  Each column's block of lines (its marker, objective and
    coefficient lines), each right-hand side line and each column's bound
    lines are kept with the bits of the values they print; an export remakes
    only the ones whose values' bits differ.  Every value's text comes from
    one map of the structure's distinct values, ``texts``.
    """

    def __init__(self, milp: CanonicalMilp):
        self.texts = NumberTexts("{:.17g}".format)
        cn, rn = _mps_names(milp)
        self.rows = [f" {sense} {r}" for sense, r in zip(milp.row_sense, rn)]

        # every coefficient line at once, in column order; column j's lines
        # are entries[ptr[j]:ptr[j + 1]]
        indptr, row_idx, vals = milp.columns_csc()
        entry_cols = np.repeat(np.array(cn, dtype=object), np.diff(indptr))
        entries = [f"    {c} {rn[r]} {v}" for c, r, v in
                   zip(entry_cols.tolist(), row_idx.tolist(),
                       self.texts(vals).tolist())]
        ptr = indptr.tolist()
        # per column: the lines before its objective line (the marker
        # opening or closing an integer block) and after it (its
        # coefficient lines, or else a declaration)
        heads: list[list[str]] = []
        tails: list[str | None] = []
        in_integer = False
        marker = 0
        for j, is_bin in enumerate(milp.col_binary.tolist()):
            head = []
            if is_bin != in_integer:
                tag = "INTORG" if is_bin else "INTEND"
                head.append(f"    M{marker} 'MARKER' '{tag}'")
                marker += 1
                in_integer = is_bin
            heads.append(head)
            tails.append("\n".join(entries[ptr[j]:ptr[j + 1]])
                         if ptr[j] < ptr[j + 1] else None)
        self.last_mark = (f"    M{marker} 'MARKER' 'INTEND'"
                          if in_integer else None)

        def column(j: int, c: float, text: str) -> str:
            lines = list(heads[j])
            if c != 0.0:
                lines.append(f"    {cn[j]} {_OBJ} {text}")
            if tails[j] is not None:
                lines.append(tails[j])
            elif c == 0.0:
                # a column with no entries must still be declared
                lines.append(f"    {cn[j]} {_OBJ} 0")
            return "\n".join(lines)

        self.columns = _Lines(self.texts, milp.col_obj, column)
        self.rhs = _Lines(self.texts, milp.row_rhs,
                          lambda i, b, text: f"    RHS1 {rn[i]} {text}")
        self.bounds = _Lines(self.texts,
                             np.column_stack([milp.col_lb, milp.col_ub]),
                             lambda j, lo_hi, texts:
                             _bound_lines(cn[j], *lo_hi, *texts))


class _Lines:
    """One line (or group of lines) per row of a value array, each made by
    ``line(k, value, text)`` from the row's values and their texts;
    ``for_values`` remakes only the rows whose bits differ from the array
    the lines were first made from."""

    def __init__(self, texts: NumberTexts, values: np.ndarray, line):
        self.texts = texts
        self.line = line
        self.bits = _bits(values)
        self.lines = list(map(line, range(len(values)), values.tolist(),
                              texts(values).tolist()))

    def for_values(self, values: np.ndarray) -> list[str]:
        differs = _bits(values) != self.bits
        changed = np.flatnonzero(differs.any(axis=1) if differs.ndim > 1
                                 else differs)
        if not len(changed):
            return self.lines
        lines = list(self.lines)
        values = values[changed]
        for k, v, text in zip(changed.tolist(), values.tolist(),
                              self.texts(values).tolist()):
            lines[k] = self.line(k, v, text)
        return lines


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def _bound_lines(cn: str, lo: float, hi: float, lo_text: str,
                 hi_text: str) -> str:
    if lo == hi:
        return f" FX BND1 {cn} {lo_text}"
    lo_finite = -math.inf < lo < math.inf
    hi_finite = -math.inf < hi < math.inf
    if not lo_finite and not hi_finite:
        return f" FR BND1 {cn}"
    lines = f" LO BND1 {cn} {lo_text}" if lo_finite else f" MI BND1 {cn}"
    return (lines + f"\n UP BND1 {cn} {hi_text}") if hi_finite else lines


def export_mps(milp: CanonicalMilp, path: str | Path, name: str = "MODEL") -> None:
    """Write the model to ``path``; stored names are kept when they fit.

    The lines that depend on the structure alone are made once per
    structure and shared by every ``with_data`` sibling.
    """
    layout: _Layout = milp.structure_cached("mps", lambda: _Layout(milp))
    lines = [f"NAME {name}", "ROWS", f" N {_OBJ}", *layout.rows, "COLUMNS",
             *layout.columns.for_values(milp.col_obj)]
    if layout.last_mark is not None:
        lines.append(layout.last_mark)

    lines.append("RHS")
    rhs_lines = layout.rhs.for_values(milp.row_rhs)
    lines += [rhs_lines[i] for i in np.flatnonzero(milp.row_rhs).tolist()]

    lines.append("BOUNDS")
    lines += layout.bounds.for_values(np.column_stack([milp.col_lb, milp.col_ub]))
    lines.append("ENDATA")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def parse_mps(path: str | Path) -> CanonicalMilp:
    """Read an MPS file back into a canonical model."""
    row_names: list[str] = []
    row_sense: list[str] = []
    row_index: dict[str, int] = {}
    obj_name: str | None = None

    col_names: list[str] = []
    col_index: dict[str, int] = {}
    col_obj: list[float] = []
    col_binary: list[bool] = []
    col_lb: list[float] = []
    col_ub: list[float] = []
    a_rows: list[int] = []
    a_cols: list[int] = []
    a_vals: list[float] = []
    rhs_map: dict[int, float] = {}

    in_integer = False
    section = None

    def new_column(name: str) -> int:
        col_index[name] = len(col_names)
        col_names.append(name)
        col_obj.append(0.0)
        col_binary.append(in_integer)
        col_lb.append(0.0)
        col_ub.append(1.0 if in_integer else np.inf)
        return col_index[name]

    def add_entry(j: int, row: str, value: float) -> None:
        if row == obj_name:
            col_obj[j] = value
            return
        if row not in row_index:
            raise ValueError(f"entry references unknown row {row!r}")
        a_rows.append(row_index[row])
        a_cols.append(j)
        a_vals.append(value)

    for raw in Path(path).read_text(encoding="ascii").splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        head = not raw[0].isspace()
        fields = raw.split()
        if head:
            section = fields[0].upper()
            if section == "ENDATA":
                break
            if section == "RANGES":
                raise ValueError("RANGES sections are not supported")
            continue
        if section == "ROWS":
            sense, name = fields[0].upper(), fields[1]
            if sense == "N":
                if obj_name is not None:
                    raise ValueError("multiple objective rows")
                obj_name = name
            elif sense in (ROW_LE, ROW_GE, ROW_EQ):
                row_index[name] = len(row_names)
                row_names.append(name)
                row_sense.append(sense)
            else:
                raise ValueError(f"unknown row sense {sense!r}")
        elif section == "COLUMNS":
            if "'MARKER'" in fields:
                if "'INTORG'" in fields:
                    in_integer = True
                elif "'INTEND'" in fields:
                    in_integer = False
                else:
                    raise ValueError(f"bad marker line: {raw!r}")
                continue
            name = fields[0]
            j = col_index.get(name)
            if j is None:
                j = new_column(name)
            pairs = fields[1:]
            if len(pairs) % 2:
                raise ValueError(f"odd entry list in column line: {raw!r}")
            for rn, sval in zip(pairs[::2], pairs[1::2]):
                add_entry(j, rn, float(sval))
        elif section == "RHS":
            pairs = fields[1:]
            if len(pairs) % 2:
                raise ValueError(f"odd entry list in rhs line: {raw!r}")
            for rn, sval in zip(pairs[::2], pairs[1::2]):
                if rn == obj_name:
                    continue  # objective offsets are not modelled
                if rn not in row_index:
                    raise ValueError(f"rhs references unknown row {rn!r}")
                rhs_map[row_index[rn]] = float(sval)
        elif section == "BOUNDS":
            btype = fields[0].upper()
            name = fields[2]
            if name not in col_index:
                raise ValueError(f"bound references unknown column {name!r}")
            j = col_index[name]
            if btype in ("UP", "LO", "FX", "BV"):
                value = float(fields[3]) if btype != "BV" else 0.0
            if btype == "UP":
                col_ub[j] = value
            elif btype == "LO":
                col_lb[j] = value
            elif btype == "FX":
                col_lb[j] = value
                col_ub[j] = value
            elif btype == "FR":
                col_lb[j], col_ub[j] = -np.inf, np.inf
            elif btype == "MI":
                col_lb[j] = -np.inf
            elif btype == "PL":
                col_ub[j] = np.inf
            elif btype == "BV":
                col_binary[j] = True
                col_lb[j], col_ub[j] = 0.0, 1.0
            else:
                raise ValueError(f"unknown bound type {btype!r}")
        elif section == "NAME" or section is None:
            continue
        else:
            raise ValueError(f"unexpected data in section {section!r}")

    if obj_name is None:
        raise ValueError("no objective row declared")

    rhs_values = np.zeros(len(row_names))
    for i, value in rhs_map.items():
        rhs_values[i] = value

    milp = CanonicalMilp(
        col_lb=np.array(col_lb, dtype=float),
        col_ub=np.array(col_ub, dtype=float),
        col_obj=np.array(col_obj, dtype=float),
        col_binary=np.array(col_binary, dtype=bool),
        col_names=list(col_names),
        row_sense=list(row_sense),
        row_rhs=rhs_values,
        row_names=list(row_names),
        a_rows=np.array(a_rows, dtype=np.int64),
        a_cols=np.array(a_cols, dtype=np.int64),
        a_vals=np.array(a_vals, dtype=float),
    )
    problems = milp.validate()
    if problems:
        raise ValueError("parsed model is inconsistent: " + "; ".join(problems))
    return milp
