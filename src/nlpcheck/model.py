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
validated while parsing.  Constraint indices reported by this package are
1-based and follow file order.

Internally every constraint is one 0-based row of a single table: row k is
inequality k + 1 for k < m and equality k - m + 1 after that.  ``Problem.tapes``
and the ``c_*`` arrays of :class:`PointData` share this layout, and
:func:`row_label` names a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nlpcheck.expr import DomainError, Expression, Tape, compile_tape, parse

__all__ = [
    "ProblemError",
    "Problem",
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
    """Immutable smooth nonlinear program.

    Every function is compiled to a :class:`~nlpcheck.expr.Tape` once, at
    construction; the analyses evaluate the tapes, not the trees.  ``tapes``
    holds one tape per constraint row: the m inequalities, then the p
    equalities, each in file order.
    """

    n: int
    objective: Expression
    ineq: tuple[Expression, ...]
    eq: tuple[Expression, ...]
    point: np.ndarray | None
    source: str = ""
    objective_tape: Tape = field(init=False, repr=False)
    tapes: tuple[Tape, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "objective_tape", compile_tape(self.objective))
        object.__setattr__(self, "tapes", tuple(map(compile_tape, self.ineq + self.eq)))

    @property
    def m(self) -> int:
        return len(self.ineq)

    @property
    def p(self) -> int:
        return len(self.eq)


def load_problem(text: str) -> Problem:
    """Parse the problem text format; errors carry 1-based line numbers."""
    n: int | None = None
    objective: Expression | None = None
    ineq: list[Expression] = []
    eq: list[Expression] = []
    point: np.ndarray | None = None

    def parse_expr(source: str, line_no: int) -> Expression:
        assert n is not None
        try:
            return parse(source, n)
        except Exception as exc:
            raise ProblemError(str(exc), line_no) from exc

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        directive = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if directive == "vars":
            if n is not None:
                raise ProblemError("duplicate 'vars' directive", line_no)
            try:
                n = int(rest.strip())
            except ValueError:
                raise ProblemError(f"'vars' expects an integer, got {rest!r}", line_no)
            if n <= 0:
                raise ProblemError("number of variables must be positive", line_no)
        elif directive in ("objective", "ineq", "eq"):
            if n is None:
                raise ProblemError("'vars' must precede expression lines", line_no)
            if not rest.strip():
                raise ProblemError(f"'{directive}' expects an expression", line_no)
            node = parse_expr(rest, line_no)
            if directive == "objective":
                if objective is not None:
                    raise ProblemError("duplicate 'objective' directive", line_no)
                objective = node
            elif directive == "ineq":
                ineq.append(node)
            else:
                eq.append(node)
        elif directive == "point":
            if n is None:
                raise ProblemError("'vars' must precede 'point'", line_no)
            if point is not None:
                raise ProblemError("duplicate 'point' directive", line_no)
            try:
                values = [float(tok) for tok in rest.split()]
            except ValueError:
                raise ProblemError(f"'point' expects numbers, got {rest!r}", line_no)
            if len(values) != n:
                raise ProblemError(
                    f"'point' has {len(values)} coordinates, expected {n}", line_no
                )
            point = np.array(values, dtype=float)
        else:
            raise ProblemError(f"unknown directive {directive!r}", line_no)
    if n is None:
        raise ProblemError("missing 'vars' directive")
    if objective is None:
        raise ProblemError("missing 'objective' directive")
    return Problem(n, objective, tuple(ineq), tuple(eq), point, source=text)


@dataclass
class PointData:
    """Values, gradients, and Hessians of all problem functions at a point.

    ``c_vals``/``c_grads``/``c_hesses`` hold one entry per constraint row, in
    the layout of ``Problem.tapes``: the ``m`` inequalities, then the
    equalities.  ``active`` holds the 1-based labels of inequality
    constraints with ``|g_i(x)| <= tol_active``; feasibility is not assumed
    here.  ``rows`` is the index set every first-order condition works on.
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
    tol_active: float

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


def _labelled(exc: DomainError, m: int, k: int) -> DomainError:
    return DomainError("%s %d: %s" % (*row_label(m, k), exc.message), exc.node)


def evaluate_point(problem: Problem, x, tol_active: float = 1e-8) -> PointData:
    """Evaluate every problem function with derivatives at ``x``.

    Domain violations are re-raised with the offending function named
    (objective, or the first constraint row that fails).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"point must have shape ({problem.n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("point has non-finite coordinates")
    n, m, count = problem.n, problem.m, len(problem.tapes)
    try:
        f = problem.objective_tape.jet(x)
    except DomainError as exc:
        raise DomainError(f"objective: {exc.message}", exc.node) from exc
    c_vals = np.zeros(count)
    c_grads = np.zeros((count, n))
    c_hesses = np.zeros((count, n, n))
    for k, tape in enumerate(problem.tapes):
        try:
            t = tape.jet(x)
        except DomainError as exc:
            raise _labelled(exc, m, k) from exc
        c_vals[k], c_grads[k], c_hesses[k] = t.value, t.grad, t.hess
    return PointData(
        x=x.copy(),
        f_val=f.value,
        f_grad=f.grad,
        f_hess=f.hess,
        m=m,
        c_vals=c_vals,
        c_grads=c_grads,
        c_hesses=c_hesses,
        active=tuple(k + 1 for k in range(m) if abs(c_vals[k]) <= tol_active),
        tol_active=tol_active,
    )


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


def lagrangian_hessian(pd: PointData, mu, lam) -> np.ndarray:
    """Hessian of f + mu @ g + lam @ h at the evaluated point.

    Requires ``mu >= 0`` and zero multipliers on inactive constraints, both
    at 1e-12 (:func:`check_multiplier`).
    """
    mu, lam = check_multiplier(pd, mu, lam, 1e-12)
    H = pd.f_hess.copy()
    if pd.m:
        H = H + np.einsum("i,ijk->jk", mu, pd.c_hesses[: pd.m])
    if pd.p:
        H = H + np.einsum("j,jkl->kl", lam, pd.c_hesses[pd.m :])
    return H


@dataclass
class FeasibilityReport:
    """Worst constraint violations at a point, classified at ``tol``."""

    max_ineq_violation: float
    max_eq_violation: float
    tol: float
    feasible: bool


def feasibility(problem: Problem, x, tol: float = 1e-8) -> FeasibilityReport:
    """Check ``g(x) <= tol`` and ``|h(x)| <= tol`` componentwise.

    Only values are computed; a domain violation names the first constraint
    row that fails.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"point must have shape ({problem.n},), got {x.shape}")
    m = problem.m
    worst_g = worst_h = 0.0
    for k, tape in enumerate(problem.tapes):
        try:
            value = tape.value(x)
        except DomainError as exc:
            raise _labelled(exc, m, k) from exc
        if k < m:
            worst_g = max(worst_g, value)
        else:
            worst_h = max(worst_h, abs(value))
    return FeasibilityReport(
        max_ineq_violation=worst_g,
        max_eq_violation=worst_h,
        tol=tol,
        feasible=(worst_g <= tol and worst_h <= tol),
    )
