"""Bounded-variable revised simplex on a factorized basis.

Every structural column is boxed (``ModelBuilder`` refuses a bound that is
not finite), and rows are turned into equalities with one slack each, in
[0, inf) for a <= row and at 0 for an = row.  So every lower bound is
finite, a nonbasic column always sits at a finite bound, and no LP is
unbounded.  A solve resumes an optimal solution of a model that shares its
sparsity pattern, starts from a basis with the columns it puts at their
upper bounds, or, without a usable start, from the slack basis.  Phase 1
minimises the total bound violation of the basic variables directly
(piecewise-linear costs, no artificial columns), so any basis is a legal
starting point.  Dantzig pricing switches to Bland's rule
after a degenerate stall to break cycles.  It reads one sign per column,
the direction in which its reduced cost must point for it to improve (0
for a basic column or one that cannot move), which every pivot keeps up
to date.  A bound flip in phase 2 changes neither the basis nor its
factors, so it does not re-price: the reduced costs stand, bit for bit,
for the next pivot.

The basis is held as a sparse LU factorization followed by a product-form
eta file.  The factorization is SuperLU's ``gstrf``, loaded from scipy's
extension module alone at the first factorization, so a run never imports
``scipy.sparse`` or ``scipy.linalg``; ``scipy.sparse.linalg.splu`` stands in
when that module cannot give it.  The bases these models produce are
triangular apart from a bump of a few rows, so SuperLU factors them in their
own column order (``NATURAL``, no relaxed supernodes): a fill-reducing order
would save no fill and slow every solve.  Pricing takes one backward solve
with these factors (BTRAN) and the entering column one forward solve
(FTRAN).  That column is hypersparse, so the ratio test and the update of
the basic values touch only the rows it moves.  Each pivot appends one eta;
after ``_REFACTOR_EVERY`` of them, or on a pivot too small to trust, the
basis is factorized afresh.  The slack basis is the identity and needs no
factorization at all.  The factors of a solution's basis are made at the
first start from it and kept on it with the structure and the coefficient
array they were made in: a start from a model that shares both, as a tree
node's second child and a ``with_data`` sibling that keeps ``a_vals`` do,
reuses them, and any other makes its own.

A start that is primal infeasible but dual feasible, as a tree child's is
(its parent's optimal basis after one binary's bounds change), is first
driven toward primal feasibility by a bounded dual simplex: the basic
variable furthest outside its range (the lowest column among those within
round-off of it) leaves at the bound it violates, and a bound-flipping
ratio test (Maros, EJOR 149, 2003) picks the entering column.  It walks the
dual ratios in increasing order and flips each boxed column it passes to
its other bound while the leaving variable stays outside its range; the
column at which that is used up enters, so an inequality's slack, which
has no upper bound, ends the walk.  The flips change no basis and are
applied together with one FTRAN; they count as no iteration of their own,
a dual iteration being its pivot.  The reduced costs keep their signs.
The dual gives no verdict of its own except an iteration limit.  Once the
basis is primal feasible, or when flipping every candidate leaves the
variable outside its range, the pivot is too small or the dual stalls on
degenerate pivots, it hands the basis to the primal phases: phase 1
declares infeasibility and phase 2 certifies the optimum, as on every
other start.  Any other start goes to the primal phases at once and pays
nothing for the dual.

A start that is already primal feasible, as a root resumed from an
optimal solution of a sibling model is, goes straight to phase 2 and is
checked in one pass: one pricing and the row residuals.  Its bounds were
checked at the start, against a tighter tolerance than the final check's,
and a start that reuses a solution's kept factors needs no check that its
basis is one.  When the final check fails, fresh factors recompute the
basic values, and phase 1 mends any bound they break before phase 2 runs
again.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os

import numpy as np

from .canonical import (
    CanonicalMilp,
    LpSolution,
    STATUS_FAILED,
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
)

_NB_LB = 0
_NB_UB = 1
_BASIC = 2
# by state: a nonbasic column improves the objective when its reduced cost
# times this sign exceeds the tolerance, falling at a lower bound and rising
# at an upper one; a basic column's sign is 0
_IMPROVES = np.array([-1.0, 1.0, 0.0])

_TOL_PIVOT = 1e-9
_TOL_BOUND = 1e-9
_TOL_PRIMAL = 1e-7  # relative bound violation a finished solve may keep
_DEGENERATE_STALL = 400
_REFACTOR_EVERY = 32


def solve_lp(milp: CanonicalMilp,
             lb: np.ndarray | None = None,
             ub: np.ndarray | None = None,
             warm: LpSolution | tuple | None = None,
             max_iterations: int | None = None) -> LpSolution:
    """Solve the LP relaxation (binaries treated as continuous in [lb, ub]).

    ``lb``/``ub`` override the stored column bounds (used by the tree search
    to fix binaries) and, like them, must be finite; a lower bound above its
    upper one makes the LP infeasible.  As every column is boxed, no LP is
    unbounded: a solve ends optimal, infeasible, at its iteration limit or
    failed.  ``warm`` is the start: an optimal ``LpSolution`` of a model
    with this sparsity pattern, whose basis, nonbasic bounds and basis
    factors the solve resumes (the factors are made at its first start and
    kept on it for every model with the same structure cache and
    ``a_vals`` array); or a pair ``(basis, at_upper)``, row i's slack
    numbered ``n_cols + i`` in the basis, factorized afresh, and
    ``at_upper`` None or a boolean array over the columns of ``[A | I]``
    that puts each nonbasic it marks at its upper bound instead of its
    lower one.  Without a start, or when its basis has the wrong length or
    repeated or singular columns, the solve starts from the slack basis,
    every column at the bound nearer zero.

    When the start basis is primal infeasible and dual feasible, as a
    branch-and-bound child started from its parent's solution is, a dual
    simplex with a bound-flipping ratio test runs first and hands its basis
    to the primal phases once it is primal feasible or can make no further
    safe pivot; its pivots count in ``iterations`` under the same
    ``max_iterations``, and its bound flips do not.
    """
    solver = _Simplex(milp, lb, ub, max_iterations)
    return solver.run(warm)


def _usable(basis: np.ndarray, n: int, m: int) -> bool:
    """One distinct column of ``[A | I]`` per row."""
    if len(basis) != m or np.any((basis < 0) | (basis >= n + m)):
        return False
    seen = np.zeros(n + m, dtype=bool)
    seen[basis] = True
    return int(np.count_nonzero(seen)) == m


def _factorize(indptr: np.ndarray, row_idx: np.ndarray, col_vals: np.ndarray,
               basis: np.ndarray):
    """SuperLU factors of the columns ``basis`` of ``[A | I]``, held as
    ``columns_csc_with_slacks``; RuntimeError when they are singular.

    The columns keep their row indices sorted and free of duplicates (the
    triplets are deduplicated and ``columns_csc`` sorts them by row), so the
    basis is in the canonical CSC form that ``splu`` would first make it."""
    pos, ptr = _column_entries(indptr, basis)
    return _factorizer()(len(basis), col_vals[pos],
                         row_idx[pos].astype(np.intc), ptr.astype(np.intc))


def _column_entries(indptr: np.ndarray, cols: np.ndarray):
    """``(pos, ptr)``: the positions of the entries of the CSC columns
    ``cols``, column after column, and where each column's run starts in
    ``pos``, with its end last."""
    starts = indptr[cols]
    counts = indptr[cols + 1] - starts
    ptr = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return np.arange(ptr[-1]) + np.repeat(starts - ptr[:-1], counts), ptr


# the bases are triangular apart from a bump of a few rows, so they factor
# with almost no fill in their own column order: a fill-reducing order and
# relaxed supernodes would only add work to every solve.  These are the
# options ``splu(permc_spec="NATURAL", relax=1, panel_size=1)`` passes on.
_SUPERLU_OPTIONS = dict(ColPerm="NATURAL", SymmetricMode=True, Relax=1,
                        PanelSize=1, DiagPivotThresh=None)


@functools.cache
def _factorizer():
    """The factorization ``(m, vals, rows, ptr) -> SuperLU``, chosen at the
    first factorization of a run: SuperLU's ``gstrf`` from scipy's extension
    module alone, which spares a run the import of ``scipy.sparse`` and
    ``scipy.linalg``, or ``_splu`` when that module cannot give it."""
    # scipy's own import first: it sets up where its extensions find the
    # libraries they link to
    import scipy

    directory = os.path.join(os.path.dirname(scipy.__file__),
                             "sparse", "linalg", "_dsolve")
    return _load_gstrf(directory) or _splu


def _load_gstrf(directory: str):
    """``gstrf`` of the extension module ``_superlu`` in ``directory``, bound
    to the arguments ``splu`` passes it; None when there is no such module,
    it does not load, or its ``gstrf`` fails to factor a 1x1 matrix with
    those arguments."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_superlu" + suffix)
        if os.path.isfile(path):
            break
    else:
        return None
    # loaded outside scipy's package and left out of sys.modules, so a later
    # import of scipy.sparse.linalg makes its own module
    spec = importlib.util.spec_from_file_location("_superlu", path)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:  # not a module this interpreter can load
        return None

    def gstrf(m, vals, rows, ptr):
        return module.gstrf(m, len(vals), vals, rows, ptr,
                            csc_construct_func=None, ilu=False,
                            options=_SUPERLU_OPTIONS)

    one = np.ones(1)
    try:
        lu = gstrf(1, 2.0 * one, np.zeros(1, np.intc),
                   np.array([0, 1], np.intc))
        ok = lu.solve(one)[0] == 0.5
    except (AttributeError, TypeError, ValueError, RuntimeError):
        return None  # no gstrf, or one that takes other arguments
    return gstrf if ok else None


def _splu(m: int, vals: np.ndarray, rows: np.ndarray, ptr: np.ndarray):
    """The same factorization through the public ``splu``."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    return splu(csc_matrix((vals, rows, ptr), shape=(m, m)),
                permc_spec="NATURAL", relax=1, panel_size=1)


class _Simplex:
    def __init__(self, milp: CanonicalMilp, lb, ub, max_iterations):
        self.milp = milp
        n, m = milp.n_cols, milp.n_rows
        self.n, self.m = n, m
        struct_lb = milp.col_lb if lb is None else np.asarray(lb, dtype=float)
        struct_ub = milp.col_ub if ub is None else np.asarray(ub, dtype=float)

        self.lb = np.concatenate([struct_lb, np.zeros(m)])
        self.ub = np.concatenate([struct_ub,
                                  np.where(milp.row_is_le(), np.inf, 0.0)])
        self.movable = ~(self.lb >= self.ub)  # not an equality slack or pinned
        self.cost2 = np.concatenate([milp.col_obj, np.zeros(m)])
        self.b = milp.row_rhs.astype(float)
        self.csc = milp.columns_csc_with_slacks()
        self.indptr, self.row_idx, self.col_vals = self.csc
        self.a_rows = milp.a_rows
        self.a_cols = milp.a_cols
        self.a_vals = milp.a_vals
        self.max_iterations = (max_iterations if max_iterations is not None
                               else 50_000 + 40 * (n + m))
        self.iterations = 0
        self.b_scale = 1.0 + np.abs(self.b).max(initial=0.0)
        # the phase-2 reduced-cost tolerance
        self.tol_d2 = 1e-9 * (1.0 + np.abs(self.cost2).max(initial=0.0))
        self.lu = None  # factors of the basis at the last refactorization
        self.etas: list[tuple[int, np.ndarray]] = []

    # -- columns and pricing -------------------------------------------------

    def _ftran_column(self, j: int) -> np.ndarray:
        """B^-1 times column ``j`` of ``[A | I]``."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        a_j = np.zeros(self.m)
        a_j[self.row_idx[lo:hi]] = self.col_vals[lo:hi]
        return self._ftran(a_j)

    def _row_prices(self, v: np.ndarray) -> np.ndarray:
        """``v`` times every column of ``[A | I]``, in a new array."""
        prices = np.empty(self.n + self.m)
        prices[:self.n] = np.bincount(
            self.a_cols, weights=self.a_vals * v[self.a_rows], minlength=self.n)
        prices[self.n:] = v
        return prices

    def _reduced_costs(self, cB: np.ndarray, c: np.ndarray | None) -> np.ndarray:
        """``c - [A | I]^T B^-T cB``; ``c`` None stands for zero costs."""
        d = self._row_prices(self._btran(cB))
        return np.negative(d, out=d) if c is None else np.subtract(c, d, out=d)

    def _set_signs(self) -> None:
        """Each column's pricing sign from its state (``_IMPROVES``), and 0
        for a column that cannot move; ``_pivot`` keeps it up to date."""
        self.sign = np.where(self.movable, _IMPROVES[self.state], 0.0)

    def _eligible(self, d: np.ndarray, tol_d: float) -> np.ndarray:
        """The nonbasic columns, in order, whose reduced cost ``d`` lets them
        improve the objective."""
        # negation is exact: d * -1 > tol is d < -tol, and as tol_d > 0 a
        # sign of 0 admits nothing
        return (d * self.sign > tol_d).nonzero()[0]

    def _full_activity(self, x: np.ndarray) -> np.ndarray:
        """``[A | I] x``: the structural activity plus the slacks."""
        return x[self.n:] + self.milp.row_activity(x)

    # -- basis factors -------------------------------------------------------

    def _ftran(self, rhs: np.ndarray) -> np.ndarray:
        """B^-1 rhs; ``rhs`` may be overwritten."""
        x = rhs if self.lu is None else self.lu.solve(rhs)
        for k, d in self.etas:
            xk = x[k]
            if xk != 0.0:
                x += d * xk
        return x

    def _btran(self, c: np.ndarray) -> np.ndarray:
        """B^-T c; ``c`` may be overwritten."""
        for k, d in reversed(self.etas):
            c[k] += d.dot(c)
        return c if self.lu is None else self.lu.solve(c, trans="T")

    def _refactor(self, lu=None) -> bool:
        """Factorize the basis afresh, or take its factors ``lu``, empty the
        eta file and recompute the basic values.  False when the basis is
        singular."""
        if lu is None:
            try:
                lu = _factorize(*self.csc, self.basis)
            except RuntimeError:  # SuperLU: factor is exactly singular
                return False
        self.lu = lu
        self.etas = []
        self._recompute_basics()
        return True

    def _replace_basic(self, k: int, w: np.ndarray) -> bool:
        """Update the factors once position ``k`` of the basis holds the
        column whose FTRAN is ``w``: append an eta, or refactorize after a
        pivot too small for a stable eta or on a full eta file, which
        empties it.  False when the refactorized basis is singular."""
        w_k = w[k]
        if abs(w_k) < 1e-7 or len(self.etas) + 1 >= _REFACTOR_EVERY:
            return self._refactor()
        # B_new^-1 = E^-1 B^-1, E^-1 the identity with column k replaced by
        # eta; store eta - e_k
        eta = w / -w_k
        eta[k] = 1.0 / w_k - 1.0
        self.etas.append((k, eta))
        return True

    def _recompute_basics(self) -> None:
        self.x[self.basis] = 0.0
        self.x[self.basis] = self._ftran(self.b - self._full_activity(self.x))
        if not np.all(np.isfinite(self.x[self.basis])):
            raise FloatingPointError("basic solution is not finite")

    # -- start bases ---------------------------------------------------------

    def _value_of_state(self, j: int, state: int) -> float:
        return self.ub[j] if state == _NB_UB else self.lb[j]

    def _place_nonbasics(self, upper: np.ndarray) -> None:
        """Every column at a bound: the upper one where ``upper`` asks for it
        and it is finite, else the lower one, which always is."""
        at_hi = upper & np.isfinite(self.ub)
        self.state = np.where(at_hi, _NB_UB, _NB_LB).astype(np.int8)
        self.x = np.where(at_hi, self.ub, self.lb)

    def _start(self, basis: np.ndarray, at_upper: np.ndarray | None,
               solution: LpSolution | None = None) -> bool:
        """Start from ``basis``, ``solution``'s when given, with the factors
        kept on it; False when it is not a usable basis.  Factors kept for
        this structure and coefficient array are those of a basis of this
        matrix, so only another start is checked."""
        basis = np.asarray(basis, dtype=np.int64)
        total = self.n + self.m
        key = (self.milp._structure_cache, self.a_vals)
        kept = solution is not None and solution.factors is not None \
            and solution.factors[0] is key[0] and solution.factors[1] is key[1]
        if not kept and not _usable(basis, self.n, self.m):
            return False
        self._place_nonbasics(np.zeros(total, dtype=bool) if at_upper is None
                              else at_upper)
        self.basis = basis.copy()
        self.state[self.basis] = _BASIC
        self._set_signs()
        if not kept and np.array_equal(basis, np.arange(self.n, total)):
            self.lu = None  # the slack basis is the identity
            self.etas = []
            self._recompute_basics()
            return True
        try:
            if solution is not None and not kept:
                solution.factors = (*key, _factorize(*self.csc, basis))
            return self._refactor(None if solution is None
                                  else solution.factors[2])
        except (RuntimeError, FloatingPointError):  # singular, or not finite
            return False

    # -- main loop -----------------------------------------------------------

    def run(self, warm) -> LpSolution:
        if np.any(self.lb > self.ub):
            return self._finish(STATUS_INFEASIBLE)
        try:
            if isinstance(warm, LpSolution):
                warm = (warm.basis, warm.nonbasic_at_upper, warm)
            if warm is None or warm[0] is None or not self._start(*warm):
                # the slack basis, every column at the bound nearer zero
                self._start(np.arange(self.n, self.n + self.m),
                            np.abs(self.lb) > np.abs(self.ub))
            return self._finish(self._solve())
        except FloatingPointError:
            return self._finish(STATUS_FAILED)

    def _solve(self) -> str:
        """The status of the LP from the started basis."""
        # a primal feasible start goes straight to phase 2; an infeasible
        # one that is dual feasible, as a tree child's is, runs the dual
        # first
        feasible = not self._phase1_costs().any()
        if not feasible:
            d = self._reduced_costs(self.cost2[self.basis], self.cost2)
            if not len(self._eligible(d, self.tol_d2)):
                status = self._dual(d)
                if status is not None:
                    return status

        for _ in range(4):
            if not feasible:
                status = self._iterate(phase_one=True)
                if status != STATUS_OPTIMAL:
                    return status
                if self._total_violation() > _TOL_PRIMAL * self.b_scale:
                    return STATUS_INFEASIBLE
            start = self.iterations
            status = self._iterate(phase_one=False)
            if status != STATUS_OPTIMAL:
                return status
            # a feasible start that phase 2 leaves where it was keeps the
            # bounds it was checked against, tighter than the final ones
            if self._solution_clean(not feasible or self.iterations > start):
                return STATUS_OPTIMAL
            # fresh factors recompute the basic values; any bound they
            # break is phase 1's to mend, as phase 2 keeps feasibility and
            # cannot restore it
            if not self._refactor():
                return STATUS_FAILED
            feasible = False
        return STATUS_FAILED

    def _total_violation(self) -> float:
        xB = self.x[self.basis]
        over = np.clip(xB - self.ub[self.basis], 0.0, None)
        under = np.clip(self.lb[self.basis] - xB, 0.0, None)
        return float(np.sum(over) + np.sum(under))

    def _solution_clean(self, bounds: bool = True) -> bool:
        """Whether the basic values keep their bounds, checked when
        ``bounds``, and every row holds."""
        if bounds:
            xB = self.x[self.basis]
            lbB, ubB = self.lb[self.basis], self.ub[self.basis]
            scale = 1.0 + np.maximum(
                np.abs(lbB), np.abs(np.where(np.isfinite(ubB), ubB, 0.0)))
            if np.any(np.maximum(xB - ubB, lbB - xB) > _TOL_PRIMAL * scale):
                return False
        resid = np.abs(self._full_activity(self.x) - self.b)
        return bool(np.all(resid <= 1e-8 * (1.0 + np.abs(self.b))))

    def _phase1_costs(self) -> np.ndarray:
        cB = np.zeros(self.m)
        xB = self.x[self.basis]
        cB[xB > self.ub[self.basis] + _TOL_BOUND] = 1.0
        cB[xB < self.lb[self.basis] - _TOL_BOUND] = -1.0
        return cB

    def _iterate(self, phase_one: bool) -> str:
        bland = False
        stall = 0
        d = None  # phase 2's reduced costs, kept over a bound flip

        while True:
            if phase_one:
                cB = self._phase1_costs()
                if not cB.any():
                    return STATUS_OPTIMAL
                # nonbasic phase-1 costs are all zero
                d = self._reduced_costs(cB, None)
                eligible = self._eligible(d, 1e-9)
            else:
                if d is None:
                    d = self._reduced_costs(self.cost2[self.basis], self.cost2)
                eligible = self._eligible(d, self.tol_d2)
            if not len(eligible):
                return STATUS_OPTIMAL

            if bland:
                q = int(eligible[0])
            else:
                q = int(eligible[np.argmax(np.abs(d[eligible]))])
            # the column rises from its lower bound if its reduced cost is
            # negative, and falls from its upper one otherwise
            sigma = 1.0 if d[q] < 0 else -1.0

            w = self._ftran_column(q)
            step, k_leave, leave_at_ub = self._ratio_test(
                q, sigma, w, phase_one, bland)
            if step is None:  # a boxed model is never unbounded
                return STATUS_FAILED
            # an iteration is a move: a pivot or a bound flip
            if self.iterations >= self.max_iterations:
                return STATUS_LIMIT
            self.iterations += 1

            if step <= 1e-10:
                stall += 1
                if stall > _DEGENERATE_STALL:
                    bland = True
            else:
                stall = 0
                bland = False

            if not self._pivot(q, w, sigma * step, k_leave, leave_at_ub,
                               primal=True):
                return STATUS_FAILED
            # a flip leaves the basis and its factors as they were, so the
            # phase-2 prices stand; phase 1's costs follow the basic values
            if k_leave is not None:
                d = None

    def _dual(self, d: np.ndarray) -> str | None:
        """Dual simplex from a dual feasible basis with reduced costs ``d``.

        Returns STATUS_LIMIT when ``max_iterations`` is reached and
        STATUS_FAILED when a refactorization finds the basis singular, as
        the primal loop does.  Otherwise it hands the basis over and returns
        None: when the basis is primal feasible, flipping every column that
        can enter leaves the leaving variable outside its range, the pivot
        is below 1e-7, or ``_DEGENERATE_STALL`` pivots in a row have left
        the reduced costs where they were.
        """
        stall = 0
        while stall < _DEGENERATE_STALL:
            basis = self.basis
            xB = self.x[basis]
            above = xB - self.ub[basis]
            below = self.lb[basis] - xB
            violation = np.maximum(above, below)
            worst = float(violation.max())
            if worst <= _TOL_BOUND:
                return None  # primal feasible
            # rows that round-off alone tells apart are tied, and the lowest
            # basic column among them leaves, so the pivot path is pinned
            tied = (violation > max(worst - 1e-9 * (1.0 + worst),
                                    _TOL_BOUND)).nonzero()[0]
            r = int(tied[np.argmin(basis[tied])])
            to_ub = bool(above[r] > 0.0)

            e_r = np.zeros(self.m)
            e_r[r] = 1.0
            alpha = self._row_prices(self._btran(e_r))
            # x_r moves by -alpha_j per unit x_j moves; the columns that can
            # take x_r toward its violated bound are those that a reduced
            # cost of -alpha (x_r above its range) or alpha (below) prices in
            enters = self._eligible(-alpha if to_ub else alpha, _TOL_PIVOT)
            q, flips = self._dual_ratio_test(enters, d, alpha,
                                             float(violation[r]))
            if q is None:
                return None  # the node may be infeasible
            if abs(alpha[q]) < 1e-7:
                return None
            if self.iterations >= self.max_iterations:
                return STATUS_LIMIT
            self.iterations += 1

            theta = d[q] / alpha[q]
            stall = stall + 1 if abs(theta) <= 1e-10 else 0
            d -= theta * alpha
            d[basis] = 0.0
            d[basis[r]] = -theta

            if len(flips):
                self._flip(flips)
            w = self._ftran_column(q)
            p = basis[r]
            move = (self.x[p] - (self.ub[p] if to_ub else self.lb[p])) / w[r]
            if not self._pivot(q, w, move, r, to_ub, primal=False):
                return STATUS_FAILED
            if not self.etas:  # refactorized: recompute what drifted
                d = self._reduced_costs(self.cost2[self.basis], self.cost2)
        return None

    def _dual_ratio_test(self, enters: np.ndarray, d: np.ndarray,
                         alpha: np.ndarray, infeasibility: float):
        """The bound-flipping dual ratio test (Maros, EJOR 149, 2003).

        ``enters`` are the columns that can take the leaving variable
        toward its violated bound, ``alpha`` its row of ``B^-1 [A | I]``
        and ``infeasibility`` how far outside its range it is.  Walking the
        ratios ``|d_j| / |alpha_j|`` in increasing order, each column
        passed flips to its other bound, which takes ``|alpha_j|`` times its
        range off the infeasibility; the column at which the infeasibility
        is used up enters, so an unboxed slack ends the walk.  Among that
        column and the ratios after it that round-off alone tells apart
        from its own, the largest ``|alpha_j|`` enters, and the others keep
        their bounds: their reduced costs fall to zero.  Returns ``(q,
        flips)``, ``q`` None when flipping every column leaves the variable
        outside its range.
        """
        ratios = np.abs(d[enters]) / np.abs(alpha[enters])
        order = np.argsort(ratios, kind="stable")
        cols, ratios = enters[order], ratios[order]
        used = np.cumsum(np.abs(alpha[cols]) * (self.ub[cols] - self.lb[cols]))
        k = int(np.searchsorted(used, infeasibility))
        if k == len(cols):
            return None, cols[:0]
        tied_end = int(np.searchsorted(
            ratios, ratios[k] + 1e-12 * (1.0 + ratios[k]), side="right"))
        tied = cols[k:tied_end]
        return int(tied[np.argmax(np.abs(alpha[tied]))]), cols[:k]

    def _flip(self, cols: np.ndarray) -> None:
        """Move the nonbasic columns ``cols`` to their other bounds, and the
        basic values with them, by one FTRAN of their summed change."""
        at_lb = self.state[cols] == _NB_LB
        span = self.ub[cols] - self.lb[cols]
        pos, ptr = _column_entries(self.indptr, cols)
        change = np.bincount(
            self.row_idx[pos], minlength=self.m,
            weights=self.col_vals[pos] * np.repeat(
                np.where(at_lb, span, -span), np.diff(ptr)))
        self.x[self.basis] -= self._ftran(change)
        self.state[cols] = np.where(at_lb, _NB_UB, _NB_LB)
        self.sign[cols] = -self.sign[cols]
        self.x[cols] = np.where(at_lb, self.ub[cols], self.lb[cols])

    def _pivot(self, q: int, w: np.ndarray, move: float, k: int | None,
               at_ub: bool, primal: bool) -> bool:
        """Move ``x`` by ``move`` along the entering column ``q``, whose
        FTRAN is ``w``.  With ``k`` None, ``q`` flips to its other bound;
        otherwise it enters at basis position ``k``, whose column leaves at
        its upper bound when ``at_ub`` and at its lower one otherwise.
        False when a refactorization finds the new basis singular."""
        rows = w.nonzero()[0]
        self.x[self.basis[rows]] -= move * w[rows]
        self.x[q] += move
        if k is None:
            self.state[q] = _NB_UB if self.state[q] == _NB_LB else _NB_LB
            self.sign[q] = -self.sign[q]
            self.x[q] = self._value_of_state(q, self.state[q])
            return True
        p = int(self.basis[k])
        self.state[p] = _NB_UB if at_ub else _NB_LB
        self.sign[p] = _IMPROVES[self.state[p]] if self.movable[p] else 0.0
        self.x[p] = self._value_of_state(p, self.state[p])
        self.basis[k] = q
        self.state[q] = _BASIC
        self.sign[q] = 0.0
        # a primal step keeps q inside its range but for fp drift; a dual
        # one may leave it outside, for later dual pivots to mend
        if primal:
            self.x[q] = min(max(self.x[q], self.lb[q]), self.ub[q])
        return self._replace_basic(k, w)

    def _ratio_test(self, q: int, sigma: float, w: np.ndarray,
                    phase_one: bool, bland: bool):
        """Largest step for the entering column.

        Returns ``(step, leaving_position, leave_at_ub)``, the position None
        when the entering column flips to its other bound; ``step`` is None
        when nothing blocks, which in a boxed model only round-off can bring
        about.  Basic variables block at the bound they are moving
        toward; in phase 1 a variable beyond a bound blocks only when
        re-entering its range, while in phase 2 such a stray blocks
        immediately so feasibility cannot erode.
        """
        # only the rows the entering column moves can block; ``rows`` keeps
        # their order, so ties break as in a scan of every row
        rows = (np.abs(w) > _TOL_PIVOT).nonzero()[0]
        basis = self.basis[rows]
        xB = self.x[basis]
        lbB = self.lb[basis]
        ubB = self.ub[basis]
        rho = w[rows]  # -sigma * w, as negation is exact
        if sigma > 0.0:
            np.negative(rho, out=rho)

        rising = rho > 0.0
        above = xB > ubB + _TOL_BOUND
        below = xB < lbB - _TOL_BOUND
        # a rising variable heads for its upper bound unless it is re-entering
        # from below; a falling one for its lower bound unless re-entering
        # from above.  A stray moving further out does not block in phase 1;
        # in phase 2 its negative ratio is clipped to a blocking zero.
        hits_ub = np.where(rising, ~below, above)
        ratios = np.where(hits_ub, ubB, lbB)
        ratios -= xB
        ratios /= rho
        if phase_one:
            ratios[np.where(rising, above, below)] = np.inf
        np.maximum(ratios, 0.0, out=ratios)

        own = self.ub[q] - self.lb[q]  # +inf for a slack of an inequality
        best_row = float(ratios.min(initial=np.inf))
        step = min(best_row, own)
        if not np.isfinite(step):
            return None, None, False
        if own < best_row - 1e-12:
            return own, None, False

        cand = (ratios <= best_row + 1e-12 * (1.0 + best_row)).nonzero()[0]
        if len(cand) == 1:
            k = int(cand[0])
        elif bland:
            k = int(cand[np.argmin(basis[cand])])
        else:
            k = int(cand[np.argmax(np.abs(rho[cand]))])
        return float(ratios[k]), int(rows[k]), bool(hits_ub[k])

    def _finish(self, status: str) -> LpSolution:
        if status != STATUS_OPTIMAL:
            return LpSolution(status, None, np.inf, self.iterations)
        x_struct = self.x[:self.n].copy()
        obj = float(self.milp.col_obj @ x_struct)
        at_upper = self.state == _NB_UB
        return LpSolution(STATUS_OPTIMAL, x_struct, obj, self.iterations,
                          basis=self.basis.copy(), nonbasic_at_upper=at_upper)
