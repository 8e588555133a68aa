"""Numerical construction of feasible arcs through a local chart.

Given a feasible point and a direction d in the linearized cone, collect
the constraints that stay pinned along d: every equality, plus each active
inequality whose gradient is orthogonal to d.  Stack their values into a
map sigma.  If sigma has rank r at the point, pick r of its components
(greedy pivoting) whose gradients span the row space, call them xi, and
pick r variables J so that the square block of xi-gradients over J is
nonsingular.  The chart

    c(x) = (xi(x), x_K),   K = complement of J,

is then a local diffeomorphism by the inverse function theorem.  Pushing
the straight line x_bar + t*d through the chart linearization,

    zeta(t) = c^{-1}(c(x_bar) + t * c'(x_bar) d),

gives a curve that keeps xi (hence, where ranks are locally constant, all
of sigma) exactly at its center value while moving with velocity d.  Each
zeta(t) is computed by a warm-started Newton solve of c(x) = target.

The traced arc is validated against five properties: (arc1) it starts at
the point with velocity d; (arc2) pinned inequalities stay at zero; (arc3)
inactive inequalities stay negative; (arc4) active-but-unpinned
inequalities stay feasible forward in time; (arc5) equalities stay at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nlpcheck.cones import linearized_cone, membership
from nlpcheck.expr import DomainError, Tape
from nlpcheck.linalg import (
    NewtonError,
    newton_solve,
    numerical_rank,
    pivot_select,
)
from nlpcheck.model import PointData, Problem

__all__ = [
    "PinnedSet",
    "pinned_constraints",
    "LocalChart",
    "build_chart",
    "identity_chart",
    "DegenerateRankError",
    "ArcResult",
    "trace_arc",
    "PropertyCheck",
    "ArcProperties",
    "verify_arc",
    "DirectionArcReport",
    "arc_for_direction",
]

_MAX_SHRINK = 5  # delta halvings after a truncated trace


class DegenerateRankError(Exception):
    """The pinned-constraint gradients were numerically zero."""


@dataclass
class PinnedSet:
    """Constraints pinned along a direction.

    ``ineq`` lists 1-based labels of active inequalities with
    ``grad g_i . d ~ 0``; ``components`` lists the rows of sigma in order:
    the pinned inequalities first, then every equality.
    """

    ineq: tuple[int, ...]
    components: tuple[tuple[str, int], ...]  # ("ineq"|"eq", 1-based label)


def pinned_constraints(pd: PointData, d, tol_dir: float = 1e-8) -> PinnedSet:
    """Classify which constraints stay pinned along ``d``.

    ``d`` must belong to the linearized cone at the point; directions
    outside it have no feasible arc to begin with.
    """
    d = np.asarray(d, dtype=float).ravel()
    cone = linearized_cone(pd)
    if not membership(cone, d, tol_dir):
        raise ValueError("direction is not in the linearized cone")
    scale = tol_dir * (1.0 + float(np.linalg.norm(d)))
    pinned = tuple(
        i for i in pd.active if abs(float(pd.g_grads[i - 1] @ d)) <= scale
    )
    components = tuple(("ineq", i) for i in pinned) + tuple(
        ("eq", j + 1) for j in range(pd.p)
    )
    return PinnedSet(pinned, components)


@dataclass
class LocalChart:
    """Chart c(x) = (xi(x), x_K) built at a center point.

    ``xi`` indexes the selected rows of the pinned components (0-based
    positions into ``components``); ``solve_vars``/``keep_vars`` are 0-based
    variable positions (J and K).  ``jac_center`` is c'(center) and
    ``cond_estimate`` the 2-norm condition number of the selected square
    block, a warning signal for poorly scaled charts.
    """

    components: tuple[tuple[str, int], ...]
    xi: tuple[int, ...]
    solve_vars: tuple[int, ...]
    keep_vars: tuple[int, ...]
    center: np.ndarray
    z_center: np.ndarray
    jac_center: np.ndarray
    cond_estimate: float
    rank: int

    @property
    def n(self) -> int:
        return self.center.size


def _component_tape(problem: Problem, comp: tuple[str, int]) -> Tape:
    kind, label = comp
    if kind == "ineq":
        return problem.ineq_tapes[label - 1]
    return problem.eq_tapes[label - 1]


def identity_chart(x) -> LocalChart:
    """Chart with no pinned constraints: the identity map.

    Arcs through it are straight lines, and its Newton solves converge in a
    single step.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    return LocalChart(
        components=(),
        xi=(),
        solve_vars=(),
        keep_vars=tuple(range(n)),
        center=x.copy(),
        z_center=x.copy(),
        jac_center=np.eye(n),
        cond_estimate=1.0,
        rank=0,
    )


def build_chart(
    problem: Problem, x, pinned: PinnedSet, tol_rank: float = 1e-8
) -> LocalChart:
    """Select chart rows and variables at ``x`` by greedy pivoting.

    Rows of the pinned-constraint Jacobian are reduced to a spanning subset
    xi of size equal to the numerical rank; then the variable block J is
    chosen the same way from the xi rows.  Ties prefer earlier components
    and earlier variables, so the selection is deterministic.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not pinned.components:
        return identity_chart(x)
    jets = [_component_tape(problem, comp).gradient(x) for comp in pinned.components]
    rows = np.vstack([g for _, g in jets])
    info = numerical_rank(rows, tol_rank)
    r = info.rank
    if r == 0:
        raise DegenerateRankError(
            "pinned constraint gradients are numerically zero at the point"
        )
    xi = tuple(pivot_select(rows.T, r, tol_rank))
    xi_rows = rows[list(xi)]
    solve_vars = tuple(pivot_select(xi_rows, r, tol_rank))
    keep_vars = tuple(sorted(set(range(n)) - set(solve_vars)))
    block = xi_rows[:, list(solve_vars)]
    cond = float(np.linalg.cond(block))
    jac = np.zeros((n, n))
    jac[:r] = xi_rows
    for row, k in enumerate(keep_vars):
        jac[r + row, k] = 1.0
    values = np.array([jets[i][0] for i in xi])
    z_center = np.concatenate([values, x[list(keep_vars)]])
    return LocalChart(
        components=pinned.components,
        xi=xi,
        solve_vars=solve_vars,
        keep_vars=keep_vars,
        center=x.copy(),
        z_center=z_center,
        jac_center=jac,
        cond_estimate=cond,
        rank=r,
    )


def _chart_fun_jac(problem: Problem, chart: LocalChart):
    """Newton callback computing c(x) and c'(x)."""
    tapes = [_component_tape(problem, chart.components[i]) for i in chart.xi]
    keep = list(chart.keep_vars)
    n = chart.n
    r = len(tapes)

    def fun_jac(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        F = np.zeros(n)
        J = np.zeros((n, n))
        for row, tape in enumerate(tapes):
            F[row], J[row] = tape.gradient(x)
        for row, k in enumerate(keep):
            F[r + row] = x[k]
            J[r + row, k] = 1.0
        return F, J

    return fun_jac


@dataclass
class ArcResult:
    """A traced arc with everything needed to audit it.

    ``t`` is the kept portion of the symmetric grid ``delta * k / K``;
    ``points`` holds zeta(t) row-wise, ``g_values``/``h_values`` the
    constraint values along the arc.  When Newton fails or a function
    leaves its domain partway out, the grid is truncated on that side and
    flagged.
    """

    t: np.ndarray
    points: np.ndarray  # (len(t), n)
    g_values: np.ndarray  # (len(t), m)
    h_values: np.ndarray  # (len(t), p)
    delta: float
    direction: np.ndarray
    center: np.ndarray
    truncated: bool
    note: str = ""

    @property
    def zero_index(self) -> int:
        return int(np.argmin(np.abs(self.t)))


def trace_arc(
    problem: Problem,
    chart: LocalChart,
    x,
    d,
    delta: float,
    samples: int = 41,
    newton_tol: float = 1e-12,
) -> ArcResult:
    """March the arc zeta(t) over a symmetric grid by warm-started Newton.

    ``samples`` must be odd and at least 5 so the grid contains t = 0 and
    enough symmetric pairs for derivative estimates.  Marching proceeds
    outward from the center, each solve starting from its inner neighbour;
    a failure truncates that side at the last good sample.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float).ravel()
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if samples < 5 or samples % 2 == 0:
        raise ValueError("samples must be odd and at least 5")
    half = (samples - 1) // 2
    fun_jac = _chart_fun_jac(problem, chart)
    step_z = chart.jac_center @ d
    m, p = problem.m, problem.p

    def constraint_values(pt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = np.array([tape.value(pt) for tape in problem.ineq_tapes]) if m else np.zeros(0)
        h = np.array([tape.value(pt) for tape in problem.eq_tapes]) if p else np.zeros(0)
        return g, h

    center_g, center_h = constraint_values(x)
    notes = []

    def march(side: int) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        out = []
        prev = x
        for k in range(1, half + 1):
            tk = side * delta * k / half
            target = chart.z_center + tk * step_z
            try:
                pt = newton_solve(
                    fun_jac,
                    prev,
                    target,
                    tol=newton_tol,
                    retry_exceptions=(DomainError,),
                )
                g, h = constraint_values(pt)
            except (NewtonError, DomainError) as exc:
                notes.append(
                    f"side {side:+d} truncated at sample {k} (t = {tk:.6g}): {exc}"
                )
                break
            out.append((side * k, pt, g, h))
            prev = pt
        return out

    neg = march(-1)
    pos = march(+1)
    entries = sorted(
        neg + [(0, x.copy(), center_g, center_h)] + pos, key=lambda e: e[0]
    )
    t = np.array([delta * k / half for k, *_ in entries])
    points = np.vstack([e[1] for e in entries])
    g_values = (
        np.vstack([e[2] for e in entries]) if m else np.zeros((len(entries), 0))
    )
    h_values = (
        np.vstack([e[3] for e in entries]) if p else np.zeros((len(entries), 0))
    )
    truncated = len(entries) < samples
    return ArcResult(
        t=t,
        points=points,
        g_values=g_values,
        h_values=h_values,
        delta=delta,
        direction=d.copy(),
        center=x.copy(),
        truncated=truncated,
        note="; ".join(notes),
    )


@dataclass
class PropertyCheck:
    """One verified arc property: pass flag, worst residual, details."""

    passed: bool
    worst: float
    detail: dict = field(default_factory=dict)


@dataclass
class ArcProperties:
    """Verification report for the five arc properties plus forward
    feasibility of the whole constraint system."""

    checks: dict[str, PropertyCheck]
    tol: float

    def passed_all(self) -> bool:
        return all(c.passed for c in self.checks.values())


def _worst_per_ineq(labels, residuals, tol: float) -> PropertyCheck:
    """Largest entry (at least 0) of ``residuals(i)`` for each inequality
    label i; the property holds when the worst of them is at most ``tol``.

    When a column mixes 0.0 and -0.0, which zero numpy's max returns
    depends on the memory layout (strided or contiguous), and the sign
    reaches the report; each caller therefore reduces exactly the array it
    always has (the column, its absolute value, or its t >= 0 rows).
    """
    per = {f"g{i}": float(residuals(i).max(initial=0.0)) for i in labels}
    worst = max([0.0, *per.values()])
    return PropertyCheck(worst <= tol, worst, {"per_constraint": per})


def verify_arc(
    arc: ArcResult, pd: PointData, pinned: PinnedSet, tol: float = 1e-7
) -> ArcProperties:
    """Validate the five arc properties on the stored samples.

    (arc1) checks the start point at ``tol`` and the Richardson-extrapolated
    velocity at ``sqrt(tol)`` (a plain central difference on grids too short
    for it); its detail carries the velocity estimate as
    ``derivative_estimate``.  (arc2)/(arc5) check the pinned inequalities
    and the equalities over the whole grid; (arc3) checks inactive
    inequalities everywhere; (arc4) checks active-but-unpinned inequalities
    for t >= 0.  Forward feasibility summarizes g <= tol and |h| <= tol over
    t >= 0.
    """
    iz = arc.zero_index
    t = arc.t
    checks: dict[str, PropertyCheck] = {}

    # (arc1): start point and velocity
    pos_err = float(np.abs(arc.points[iz] - pd.x).max(initial=0.0))
    deriv_err = np.inf
    detail: dict = {"position_error": pos_err}
    if iz - 1 >= 0 and iz + 1 < len(t):
        # central difference, Richardson-extrapolated when two pairs exist
        h1 = t[iz + 1] - t[iz]
        deriv = (arc.points[iz + 1] - arc.points[iz - 1]) / (2.0 * h1)
        richardson = iz - 2 >= 0 and iz + 2 < len(t)
        if richardson:
            d2 = (arc.points[iz + 2] - arc.points[iz - 2]) / (4.0 * h1)
            deriv = (4.0 * deriv - d2) / 3.0
        deriv_err = float(np.abs(deriv - arc.direction).max(initial=0.0))
        detail["derivative_error"] = deriv_err
        detail["derivative_estimate"] = [float(v) for v in deriv]
        if not richardson:
            detail["note"] = "grid too short for Richardson extrapolation"
    else:
        detail["note"] = "grid too short to estimate the velocity"
    deriv_tol = float(np.sqrt(tol))
    checks["arc1"] = PropertyCheck(
        passed=(pos_err <= tol and deriv_err <= deriv_tol),
        worst=max(pos_err, deriv_err if np.isfinite(deriv_err) else np.inf),
        detail=detail,
    )

    active_set = set(pd.active)
    forward = t >= 0.0  # the center sample is t = 0.0 exactly
    g = arc.g_values

    # (arc2): pinned inequalities stay at zero on the whole grid
    checks["arc2"] = _worst_per_ineq(pinned.ineq, lambda i: np.abs(g[:, i - 1]), tol)

    # (arc3): inactive inequalities stay feasible on the whole grid
    inactive = [i for i in range(1, pd.m + 1) if i not in active_set]
    checks["arc3"] = _worst_per_ineq(inactive, lambda i: g[:, i - 1], tol)

    # (arc4): active but unpinned inequalities stay feasible for t >= 0
    unpinned = sorted(active_set - set(pinned.ineq))
    checks["arc4"] = _worst_per_ineq(unpinned, lambda i: g[:, i - 1][forward], tol)

    # (arc5): equalities stay at zero on the whole grid
    worst = float(np.abs(arc.h_values).max(initial=0.0)) if pd.p else 0.0
    checks["arc5"] = PropertyCheck(worst <= tol, worst, {})

    # forward feasibility of everything for t >= 0
    worst_g = float(arc.g_values[forward].max(initial=0.0)) if pd.m else 0.0
    worst_h = float(np.abs(arc.h_values[forward]).max(initial=0.0)) if pd.p else 0.0
    worst = max(worst_g, worst_h)
    checks["forward_feasible"] = PropertyCheck(
        worst <= tol, worst, {"worst_ineq": worst_g, "worst_eq": worst_h}
    )
    return ArcProperties(checks=checks, tol=tol)


@dataclass
class DirectionArcReport:
    """Arc construction outcome for one direction."""

    direction: np.ndarray
    pinned: PinnedSet | None
    chart_summary: dict
    arc: ArcResult | None
    properties: ArcProperties | None
    error: str | None = None

    def realized(self) -> bool:
        """Did a feasible forward arc with the right velocity materialize?"""
        if self.error is not None or self.properties is None:
            return False
        checks = self.properties.checks
        return checks["arc1"].passed and checks["forward_feasible"].passed


def arc_for_direction(
    problem: Problem,
    pd: PointData,
    d,
    delta: float = 0.1,
    samples: int = 41,
    tol_dir: float = 1e-8,
    tol_rank: float = 1e-8,
    newton_tol: float = 1e-12,
    verify_tol: float = 1e-7,
) -> DirectionArcReport:
    """Pin, chart, trace, and verify the arc for one direction.

    If a trace comes back truncated, delta is halved (up to ``_MAX_SHRINK``
    times) and the trace retried, since Proposition-style arcs are only
    guaranteed on a small enough interval; the final attempt is reported
    even if still truncated.
    """
    d = np.asarray(d, dtype=float).ravel()
    try:
        pinned = pinned_constraints(pd, d, tol_dir)
    except ValueError as exc:
        return DirectionArcReport(d, None, {}, None, None, error=str(exc))
    try:
        chart = build_chart(problem, pd.x, pinned, tol_rank)
    except DegenerateRankError as exc:
        return DirectionArcReport(d, pinned, {}, None, None, error=str(exc))
    summary = {
        "pinned_ineq": list(pinned.ineq),
        "rank": chart.rank,
        "chart_rows": [
            f"{kind}{label}" for kind, label in
            (chart.components[i] for i in chart.xi)
        ],
        "solve_vars": [k + 1 for k in chart.solve_vars],
        "keep_vars": [k + 1 for k in chart.keep_vars],
        "condition": chart.cond_estimate,
    }
    cur_delta = float(delta)
    arc = None
    for _ in range(_MAX_SHRINK + 1):
        arc = trace_arc(problem, chart, pd.x, d, cur_delta, samples, newton_tol)
        if not arc.truncated:
            break
        cur_delta *= 0.5
    assert arc is not None
    props = verify_arc(arc, pd, pinned, verify_tol)
    return DirectionArcReport(d, pinned, summary, arc, props, error=None)
