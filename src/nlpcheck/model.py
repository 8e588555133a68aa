"""Problem container and candidate-point evaluation.

A problem is

    minimize f(x)  subject to  g_i(x) <= 0 (i = 1..m),  h_j(x) = 0 (j = 1..p),

with every function given in the expression language of :mod:`nlpcheck.expr`.
Problems load from a small line-oriented text format::

    # comment (anywhere; '#' starts a comment)
    vars 2
    objective x2
    ineq x1^2 + (x2 - 1)^2 - 1
    ineq 1 - x1^2 - (x2 + 1)^2
    eq x1 + x2          # optional equality constraints
    point 0 0           # optional candidate point

``vars`` must precede any expression line so variable indices can be
validated while parsing.  The lines are read in file order, each
expression straight into the slots of one :class:`~nlpcheck.expr.Compiler`,
so the first error in the file is the one reported.  Constraint indices
reported by this package are 1-based and follow file order.

A function exists only as slots of ``Problem.sweep``, a multi-output
:class:`~nlpcheck.expr.TapeSet`.  Every constraint is one 0-based row of a
single table: row k is inequality k + 1 for k < m and equality k - m + 1
after that.  The outputs of ``Problem.sweep`` and the ``c_*`` arrays of
:class:`PointData` share this layout, and :func:`row_label` names a row.
``Problem.sweep`` has one more output, after the constraint rows: the
objective.  :func:`check_point` is the one gate for a point: n finite
coordinates, whose dense Hessian tables, and those of the sweep that
computes them, fit :func:`check_point_size`.  :func:`feasibility` and
:func:`evaluate_point` call it before they sweep.  :func:`evaluate_point`
is the one gate for point data: it admits only what every analysis layer
can work on.  :class:`Tolerances` admits the five tolerances once, and
the point data carries them to every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from nlpcheck.expr import Compiler, DomainError, TapeSet
from nlpcheck.linalg import entry_bound, nnls_bound, norm_bound

__all__ = [
    "ProblemError",
    "Problem",
    "Tolerances",
    "POINT_BUDGET",
    "check_point_size",
    "check_point",
    "PointData",
    "row_label",
    "FeasibilityReport",
    "load_problem",
    "evaluate_point",
    "check_multiplier",
    "lagrangian_hessian",
    "feasibility",
]


class ProblemError(Exception):
    """A problem file could not be read; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.message = message
        self.line = line


@dataclass(frozen=True, eq=False)
class Problem:
    """Immutable smooth nonlinear program of ``m`` inequalities and ``p``
    equalities in ``n`` variables.

    Its functions are the outputs of ``sweep``, a multi-output
    :class:`~nlpcheck.expr.TapeSet`: the constraint rows (the m
    inequalities, then the p equalities, each in file order), and last the
    objective.  ``source`` is the text it was loaded from, and ``slots``
    counts the sweep slots that the function reading the most reads.
    """

    n: int
    m: int
    p: int
    sweep: TapeSet = field(repr=False)
    point: np.ndarray | None
    source: str
    slots: int


def load_problem(text: str) -> Problem:
    """Parse the problem text format; errors carry 1-based line numbers."""
    compiler: Compiler | None = None
    objective: int | None = None
    ineq: list[int] = []
    eq: list[int] = []
    point: np.ndarray | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        directive = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if directive == "vars":
            if compiler is not None:
                raise ProblemError("duplicate 'vars' directive", line_no)
            try:
                n = int(rest.strip())
            except ValueError:
                raise ProblemError(f"'vars' expects an integer, got {rest!r}", line_no)
            if n <= 0:
                raise ProblemError("number of variables must be positive", line_no)
            compiler = Compiler(n)
        elif directive in ("objective", "ineq", "eq"):
            if compiler is None:
                raise ProblemError("'vars' must precede expression lines", line_no)
            if not rest.strip():
                raise ProblemError(f"'{directive}' expects an expression", line_no)
            try:
                e = compiler.parse(rest)
            except Exception as exc:
                raise ProblemError(str(exc), line_no) from exc
            if directive == "objective":
                if objective is not None:
                    raise ProblemError("duplicate 'objective' directive", line_no)
                objective = e
            elif directive == "ineq":
                ineq.append(e)
            else:
                eq.append(e)
        elif directive == "point":
            if compiler is None:
                raise ProblemError("'vars' must precede 'point'", line_no)
            if point is not None:
                raise ProblemError("duplicate 'point' directive", line_no)
            try:
                values = [float(tok) for tok in rest.split()]
            except ValueError:
                raise ProblemError(f"'point' expects numbers, got {rest!r}", line_no)
            if len(values) != compiler.n:
                raise ProblemError(
                    f"'point' has {len(values)} coordinates, expected {compiler.n}", line_no
                )
            point = np.array(values, dtype=float)
        else:
            raise ProblemError(f"unknown directive {directive!r}", line_no)
    if compiler is None:
        raise ProblemError("missing 'vars' directive")
    if objective is None:
        raise ProblemError("missing 'objective' directive")
    sweep = compiler.finish(ineq + eq + [objective])
    slots = int(sweep.reads.sum(axis=1).max(initial=0))
    return Problem(compiler.n, len(ineq), len(eq), sweep, point, text, slots)


@dataclass(frozen=True)
class Tolerances:
    """The five tolerances of an analysis.

    ``rank`` is the relative cutoff of every rank decision (a singular value
    counts above ``rank`` times the largest), and also the absolute
    tolerance on the KKT stationarity residual, at the KKT gate and at each
    vertex.  ``active`` is the activity threshold and the feasibility
    tolerance, ``direction`` the pinning and cone-membership threshold of
    arc directions, ``newton`` the Newton residual target along arcs, and
    ``verify`` the pass/fail threshold of the arc properties.  A value that
    ``nlpcheck analyze`` rejects raises the ``ValueError`` it prints, which
    names each field as its flag does (``FLAGS``).
    """

    rank: float = 1e-8
    active: float = 1e-8
    direction: float = 1e-8
    newton: float = 1e-12
    verify: float = 1e-7
    FLAGS = dict(  # the name of each field in the messages: that of its flag
        rank="tol_rank", active="tol_active", direction="tol_dir", newton="newton_tol",
        verify="verify_tol",
    )

    def __post_init__(self):
        for name in ("rank", "direction", "newton", "verify"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{self.FLAGS[name]} must be positive and finite, got {value}")
        if self.rank >= 1.0:
            # singular values above rank * sigma_max count, so none would
            raise ValueError(f"tol_rank must be below 1, got {self.rank}")
        if not 0.0 <= self.active < math.inf:
            raise ValueError(f"tol_active must be >= 0 and finite, got {self.active}")


@dataclass
class PointData:
    """Values, gradients, and Hessians of all problem functions at a point.

    ``c_vals``/``c_grads``/``c_hesses`` hold one entry per constraint row, in
    the layout of the outputs of ``Problem.sweep``: the ``m`` inequalities,
    then the equalities.  ``active`` holds the 1-based labels of inequality
    constraints with ``|g_i(x)| <= tol.active``; feasibility is not assumed
    here.  ``rows`` is the index set every first-order condition works on.
    ``tol`` is the tolerance record that every layer reads from here.
    """

    x: np.ndarray
    f_val: float
    f_grad: np.ndarray
    f_hess: np.ndarray
    m: int
    c_vals: np.ndarray  # (m + p,)
    c_grads: np.ndarray  # (m + p, n)
    c_hesses: np.ndarray  # (m + p, n, n)
    active: tuple[int, ...]
    tol: Tolerances

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def p(self) -> int:
        return self.c_vals.size - self.m

    @property
    def rows(self) -> list[int]:
        """Rows of the active inequalities in label order, then every
        equality row (a list, so that it indexes the ``c_*`` arrays)."""
        return [i - 1 for i in self.active] + list(range(self.m, self.c_vals.size))


def row_label(m: int, k: int) -> tuple[str, int]:
    """``("ineq", i)`` or ``("eq", j)``: the kind and 1-based label of row
    ``k`` of a problem with ``m`` inequalities."""
    return ("ineq", k + 1) if k < m else ("eq", k - m + 1)


def _label(problem: Problem, k: int) -> str:
    """The name of output ``k`` of ``problem.sweep``."""
    return "objective" if k == problem.m + problem.p else "%s %d" % row_label(problem.m, k)


def _sweep_point(problem: Problem, x: np.ndarray, rows: list[int], order: int) -> tuple:
    """``problem.sweep.at(x, rows, order)``, with every failure named.

    The first row whose function leaves its domain raises; then the first
    row whose value is NaN (or, for the objective, a gradient entry), which
    no bound downstream would catch.
    """
    try:
        swept = problem.sweep.at(x, rows, order)
    except DomainError as exc:
        raise DomainError(f"{_label(problem, exc.row)}: {exc.message}") from exc
    for j, k in enumerate(rows):
        if math.isnan(swept[0][j]):
            raise DomainError(f"{_label(problem, k)}: value is NaN")
        if k == problem.m + problem.p and order and np.isnan(swept[1][j]).any():
            raise DomainError("objective: gradient has a NaN entry")
    return swept


POINT_BUDGET = 1 << 26  # floats the Hessians at a point may hold: 512 MiB


def check_point_size(problem: Problem) -> None:
    """Raise ``ValueError`` when the Hessians at a point would hold more
    than ``POINT_BUDGET`` floats, ``(rows + 1 + slots) * n * n``: one n x n
    table for each of the ``rows`` constraint rows and one for the
    objective, which :class:`PointData` keeps dense, and one for each of
    the ``slots`` sweep slots of the function that reads the most, which
    the order-2 sweep holds at once, since it cannot split one function's
    tables.  :func:`check_point` gives this text as it is."""
    n, rows, slots = problem.n, problem.m + problem.p, problem.slots
    floats = (rows + 1 + slots) * n * n
    if floats > POINT_BUDGET:
        raise ValueError(
            f"point is too large for this problem: the Hessians at a point of {n} coordinates, "
            f"one for each of {rows} constraint rows and the objective and one for each of the "
            f"{slots} sweep slots of the widest function, would hold {floats} floats, above the "
            f"budget of {POINT_BUDGET} floats"
        )


def check_point(problem: Problem, x) -> np.ndarray:
    """``x`` as a float vector, if it is a point the analysis can run on:
    ``n`` finite coordinates, on a problem within :func:`check_point_size`.
    Otherwise ``ValueError``, with the text ``nlpcheck analyze`` prints."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        got = x.size if x.ndim == 1 else f"shape {x.shape}"
        raise ValueError(f"point must have {problem.n} coordinates, got {got}")
    if not np.isfinite(x).all():
        raise ValueError("point has non-finite coordinates")
    check_point_size(problem)
    return x


def evaluate_point(problem: Problem, x, tol: Tolerances = Tolerances()) -> PointData:
    """Evaluate every problem function with derivatives at ``x``, and admit
    only point data that every analysis layer can work on.  The point data
    carries ``tol``, and an inequality is active within ``tol.active``.

    A domain violation names the failing function (the objective, or the
    first constraint row), and so does each later ``DomainError``: a NaN
    value or objective gradient entry, a NaN gradient entry of a ranked row
    (``PointData.rows``), and last a NaN Hessian entry of any function,
    since ``0 * NaN`` is NaN in the Lagrangian Hessian.  ``ValueError``
    names, in order, a ranked row's gradient above ``entry_bound`` (its
    rank could read 0), an objective gradient above ``nnls_bound`` of those
    rows, a ranked row's gradient above ``norm_bound`` (its squared norm
    could overflow), and an infinite Hessian entry.  Before all of these,
    :func:`check_point` raises ``ValueError`` for a point it does not admit.
    """
    x = check_point(problem, x)
    m, count = problem.m, problem.m + problem.p
    outputs = [count, *range(count)]  # the objective, then the constraint rows
    values, grads, hesses = _sweep_point(problem, x, outputs, 2)
    c_vals = values[1:]
    pd = PointData(
        x=x.copy(),
        f_val=float(values[0]),
        f_grad=grads[0],
        f_hess=hesses[0],
        m=m,
        c_vals=c_vals,
        c_grads=grads[1:],
        c_hesses=hesses[1:],
        active=tuple(k + 1 for k in range(m) if abs(c_vals[k]) <= tol.active),
        tol=tol,
    )
    rows = pd.rows
    for k in rows:
        if np.isnan(pd.c_grads[k]).any():
            raise DomainError(f"{_label(problem, k)}: gradient has a NaN entry")
    table = pd.c_grads[rows]

    def bound_rows(bound: float, what: str) -> None:
        for k, ok in zip(rows, (np.abs(table) <= bound).all(axis=1)):
            if not ok:
                raise ValueError(f"{_label(problem, k)}: gradient at the point too large {what}")

    bound_rows(entry_bound(*table.shape), "to rank")
    if (np.abs(pd.f_grad) > nnls_bound(table.T)).any():
        raise ValueError("objective: gradient at the point too large for the multiplier solve")
    bound_rows(norm_bound(problem.n), "to square its norm")
    # after the gradient bounds, so that an overflowing gradient is named as such
    for k, H in zip(outputs, hesses):
        if np.isnan(H).any():
            raise DomainError(f"{_label(problem, k)}: Hessian has a NaN entry")
        if np.isinf(H).any():
            raise ValueError(f"{_label(problem, k)}: Hessian at the point has an infinite entry")
    return pd


def check_multiplier(
    pd: PointData, mu, lam, tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(mu, lam)`` as float vectors, checked against the point.

    ``mu`` must have length m and ``lam`` length p.  With ``tol``, ``mu``
    must also be at least ``-tol``, and at most ``tol`` in magnitude on
    inactive constraints, which is what complementarity demands of a KKT
    multiplier.  Violations raise ``ValueError``.
    """
    mu = np.asarray(mu, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float).ravel()
    if mu.size != pd.m:
        raise ValueError(f"mu must have length {pd.m}")
    if lam.size != pd.p:
        raise ValueError(f"lam must have length {pd.p}")
    if tol is not None:
        if (mu < -tol).any():
            raise ValueError("negative inequality multiplier")
        active = set(pd.active)
        for i in range(pd.m):
            if (i + 1) not in active and abs(mu[i]) > tol:
                raise ValueError(f"nonzero multiplier on inactive constraint {i + 1}")
    return mu, lam


def lagrangian_hessian(pd: PointData, mu, lam, exp: int = 0) -> np.ndarray:
    """Hessian of f + mu @ g + lam @ h at the evaluated point, times
    ``2^-exp``: each Hessian is scaled before the sum, which is exact but
    below the normal range and keeps every sign.

    Requires ``mu >= 0`` and zero multipliers on inactive constraints, both
    at 1e-12 (:func:`check_multiplier`).
    """
    mu, lam = check_multiplier(pd, mu, lam, 1e-12)
    f, c = pd.f_hess, pd.c_hesses
    if exp:
        f, c = np.ldexp(f, -exp), np.ldexp(c, -exp)
    H = f.copy()
    # an entry past the float range is inf (or NaN), which the cone layer
    # does not minimize
    with np.errstate(over="ignore", invalid="ignore"):
        if pd.m:
            H = H + np.einsum("i,ijk->jk", mu, c[: pd.m])
        if pd.p:
            H = H + np.einsum("j,jkl->kl", lam, c[pd.m :])
    return H


@dataclass
class FeasibilityReport:
    """Worst constraint violations at a point, and whether both are within
    the tolerance."""

    max_ineq_violation: float
    max_eq_violation: float
    feasible: bool


def feasibility(problem: Problem, x, tol: Tolerances = Tolerances()) -> FeasibilityReport:
    """Check ``g(x) <= tol.active`` and ``|h(x)| <= tol.active`` componentwise.

    Only values are computed, at a point :func:`check_point` admits.  A
    domain violation names the first constraint row that fails, and a NaN
    value the first row that has one.
    """
    x = check_point(problem, x)
    m = problem.m
    worst_g = worst_h = 0.0
    values = _sweep_point(problem, x, list(range(m + problem.p)), 0)[0]
    for k, value in enumerate(values.tolist()):
        if k < m:
            worst_g = max(worst_g, value)
        else:
            worst_h = max(worst_h, abs(value))
    return FeasibilityReport(
        max_ineq_violation=worst_g,
        max_eq_violation=worst_h,
        feasible=(worst_g <= tol.active and worst_h <= tol.active),
    )
