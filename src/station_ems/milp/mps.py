"""MPS export for canonical models.

The writer emits one coefficient per line with %.17g values, so float64
round-trips exactly; fields are whitespace separated and may overflow the
classic 8/12 character layout.  A file is assembled from whole sections.
The sparsity pattern decides the names, ROWS, the integer markers and where
each coefficient line starts; these are made once per structure and shared
by the models ``with_data`` makes from it.  The values decide three
sections: COLUMNS (costs and coefficients), RHS and BOUNDS.  Each is made
once per structure and distinct set of the values it prints, told apart by
their bytes, so the siblings of a scenario tree, which repeat their price,
net demand or braking data, share those sections' text.  A section is
formatted in one pass over whole arrays, and each distinct value once per
structure (``NumberTexts``).
Stored names are written when every name fits (1-8 characters of
``[A-Za-z0-9_.-]``, unique, not the objective row's name); otherwise columns
and rows get generated ``X<n>``/``R<n>`` names.
"""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .canonical import CanonicalMilp

_NAME = r"[A-Za-z0-9_.\-]{1,8}"
_NAMES_RE = re.compile(rf"{_NAME}(?:\n{_NAME})*")

_OBJ = "OBJ"


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
    """The stored column and row names, each kind replaced by generated
    ``X<n>`` or ``R<n>`` names unless all of its names fit."""
    return tuple(names if _usable(names) else
                 [prefix + np.base_repr(k, 36) for k in range(len(names))]
                 for prefix, names in (("X", list(milp.col_names)),
                                       ("R", list(milp.row_names))))


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
    """One structure's MPS text: the parts the structure alone decides, and
    each value section made so far, by the bytes of the values it prints.

    Names, ROWS, integer markers and the start of each coefficient line
    depend on the structure alone.  The COLUMNS, RHS and BOUNDS sections
    depend on values as well; ``section`` makes each one once per distinct
    set of them.  Every value's text comes from one map of the structure's
    distinct values, ``texts``.
    """

    def __init__(self, milp: CanonicalMilp):
        self.texts = NumberTexts("{:.17g}".format)
        self.sections: dict[tuple, str] = {}
        cn, rn = (np.array(names, dtype=object) for names in _mps_names(milp))
        self.rows = "".join([f"ROWS\n N {_OBJ}\n",
                             *(f" {sense} {r}\n" for sense, r in
                               zip(milp.row_sense, rn.tolist()))])

        # every coefficient line's start, in column order
        indptr, row_idx, _ = milp.columns_csc()
        counts = np.diff(indptr)
        self.entry_starts = ("    " + np.repeat(cn, counts) + " "
                             + rn[row_idx] + " ")
        # per column, two lines go before its coefficient lines: its head
        # (the marker opening or closing an integer block, or none) and its
        # objective line (or a declaration when it has neither cost nor
        # entries, or none)
        self.at = np.repeat(indptr[:-1], 2)
        binary = milp.col_binary
        turns = np.flatnonzero(np.diff(binary, prepend=False))
        self.heads = np.full(len(cn), "", dtype=object)
        self.heads[turns] = [
            f"    M{k} 'MARKER' '{'INTORG' if binary[j] else 'INTEND'}'"
            for k, j in enumerate(turns.tolist())]
        self.close = ([f"    M{len(turns)} 'MARKER' 'INTEND'"]
                      if len(binary) and binary[-1] else [])
        self.cost_starts = "    " + cn + f" {_OBJ} "
        self.declarations = np.where(counts == 0, self.cost_starts + "0", "")

        self.rhs_starts = "    RHS1 " + rn + " "
        self.fixed = " FX BND1 " + cn + " "
        self.lower = " LO BND1 " + cn + " "
        self.upper = "\n UP BND1 " + cn + " "

    def section(self, make, *values: np.ndarray) -> str:
        """``make(self, *values)``, made at the first call with these
        values' bytes, so -0.0 and 0.0 make sections of their own."""
        key = (make, *(np.ascontiguousarray(v, dtype=np.float64).tobytes()
                       for v in values))
        text = self.sections.get(key)
        if text is None:
            text = self.sections[key] = make(self, *values)
        return text


def _block(header: str, lines: np.ndarray) -> str:
    return "\n".join([header, *lines.tolist()]) + "\n"


def _columns(layout: _Layout, obj: np.ndarray, vals: np.ndarray) -> str:
    """The COLUMNS section for costs ``obj`` and column-ordered
    coefficients ``vals``."""
    own = np.where(obj != 0.0, layout.cost_starts + layout.texts(obj),
                   layout.declarations)
    lines = np.insert(layout.entry_starts + layout.texts(vals), layout.at,
                      np.column_stack([layout.heads, own]).ravel())
    return _block("COLUMNS",
                  np.concatenate([lines[lines != ""], layout.close]))


def _rhs(layout: _Layout, rhs: np.ndarray) -> str:
    """The RHS section: a line per nonzero right-hand side."""
    rows = np.flatnonzero(rhs)
    return _block("RHS", layout.rhs_starts[rows] + layout.texts(rhs[rows]))


def _bounds(layout: _Layout, lb: np.ndarray, ub: np.ndarray) -> str:
    """The BOUNDS section: an FX line per fixed column, else LO and UP."""
    lo, hi = layout.texts(np.stack([lb, ub]))
    return _block("BOUNDS", np.where(lb == ub, layout.fixed + lo,
                                     layout.lower + lo + layout.upper + hi))


def export_mps(milp: CanonicalMilp, path: str | Path, name: str = "MODEL") -> None:
    """Write the model to ``path``; stored names are kept when they fit.

    What the structure alone decides is made once per structure and shared
    by every ``with_data`` sibling; each value section is made once per
    distinct set of the values it prints.
    """
    layout: _Layout = milp.structure_cached("mps", lambda: _Layout(milp))
    text = "".join([
        f"NAME {name}\n", layout.rows,
        layout.section(_columns, milp.col_obj, milp.columns_csc()[2]),
        layout.section(_rhs, milp.row_rhs),
        layout.section(_bounds, milp.col_lb, milp.col_ub),
        "ENDATA\n"])
    Path(path).write_text(text, encoding="ascii")
