"""MPS export for canonical models.

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
and rows get generated ``X<n>``/``R<n>`` names.
"""
from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .canonical import CanonicalMilp

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

