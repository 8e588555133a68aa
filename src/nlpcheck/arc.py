"""Numerical construction of feasible arcs through a local chart.

Given a feasible point and a direction d in the linearized cone, collect
the constraints that stay pinned along d: every equality, plus each active
inequality whose gradient is orthogonal to d.  Stack their values into a
map sigma.  Its numerical rank r at the point is decided once; then pick
r of its components (greedy pivoting) whose gradients span the row space,
call them xi, and pick r variables J so that the square block of
xi-gradients over J is nonsingular.  The chart

    c(x) = (xi(x), x_K),   K = complement of J,

is then a local diffeomorphism by the inverse function theorem.  Pushing
the straight line x_bar + t*d through the chart linearization,

    zeta(t) = c^{-1}(c(x_bar) + t * c'(x_bar) d),

gives a curve that keeps xi (hence, where ranks are locally constant, all
of sigma) exactly at its center value while moving with velocity d.  Each
zeta(t) is computed by a warm-started Newton solve of c(x) = target.  A
direction that pins nothing has r = 0: its chart is the identity, and its
arc the straight line.

The directions that pin the same constraints share one chart, and all
the arcs of an analysis are marched together, both sides of every arc in
one ``newton_batch`` (:func:`trace_arcs`).

The traced arc is validated against five properties: (arc1) it starts at
the point with velocity d; (arc2) pinned inequalities stay at zero; (arc3)
inactive inequalities stay negative; (arc4) active-but-unpinned
inequalities stay feasible forward in time; (arc5) equalities stay at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nlpcheck.cones import linearized_cone, membership
from nlpcheck.expr import DomainError
from nlpcheck.linalg import newton_batch, norm_bound, numerical_rank, pivot_select
from nlpcheck.model import PointData, Problem, Tolerances, row_label

__all__ = [
    "PinnedSet",
    "pinned_constraints",
    "LocalChart",
    "build_chart",
    "DegenerateRankError",
    "ArcResult",
    "trace_arcs",
    "trace_arc",
    "PropertyCheck",
    "ArcProperties",
    "verify_arc",
    "DirectionArcReport",
    "arcs_for_directions",
    "arc_for_direction",
    "DEFAULT_ARCS",
    "DEFAULT_POINTS",
    "DEFAULT_DELTA",
    "check_arc_request",
    "ARC_BUDGET",
    "check_arc_size",
]

_MAX_SHRINK = 5  # delta halvings after a truncated trace

DEFAULT_ARCS = 8  # sampled arcs of the default run
DEFAULT_POINTS = 41  # samples per arc of the default run
DEFAULT_DELTA = 0.1  # arc half-width of the default run
ARC_BUDGET = 1 << 22  # floats the samples of an analysis' arcs may keep: 32 MiB


def check_arc_request(n: int, directions, deltas, samples: int) -> list[np.ndarray]:
    """The directions as flat float arrays, or the ``ValueError`` that
    ``nlpcheck analyze`` prints: each needs n finite entries of magnitude at
    most ``norm_bound(n)``, and each delta must be positive, finite and at
    most that bound, so the arc steps stay finite; the grid of ``samples``
    must be odd and >= 5, so it holds t = 0 and two symmetric pairs."""
    bound = norm_bound(n)
    directions = [np.asarray(d, dtype=float).ravel() for d in directions]
    for d in directions:
        if d.size != n or not np.isfinite(d).all():
            raise ValueError(f"arc direction must have {n} finite coordinates, got {d.tolist()}")
        if np.abs(d).max(initial=0.0) > bound:
            raise ValueError(
                f"arc direction entries must be at most {bound!r} in magnitude, got {d.tolist()}"
            )
    if samples < 5 or samples % 2 == 0:
        raise ValueError(f"arc points must be odd and >= 5, got {samples}")
    for delta in map(float, deltas):
        if not 0.0 < delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {delta}")
        if delta > bound:
            raise ValueError(f"delta must be at most {bound!r}, got {delta!r}")
    return directions


def check_arc_size(n: int, rows: int, arcs: int, samples: int) -> None:
    """Raise ``ValueError`` when ``arcs`` arcs of ``samples`` samples each
    would keep more than ``ARC_BUDGET`` floats, ``arcs * samples * (1 + n
    + rows)``: t, the n coordinates of the point and its ``rows``
    constraint values, at every sample.  A run of no more samples than the
    default one (``DEFAULT_ARCS`` arcs of ``DEFAULT_POINTS``) always runs,
    so a default run works on every problem."""
    floats = arcs * samples * (1 + n + rows)
    if arcs * samples > DEFAULT_ARCS * DEFAULT_POINTS and floats > ARC_BUDGET:
        raise ValueError(
            f"{arcs} arcs of {samples} samples would keep {floats} floats (t, {n} coordinates "
            f"and {rows} constraint values per sample), above the budget of {ARC_BUDGET} floats "
            f"(up to {DEFAULT_ARCS * DEFAULT_POINTS} samples always run)"
        )


class DegenerateRankError(Exception):
    """The pinned-constraint gradients were numerically zero, or left a
    chart pick no residual."""


@dataclass
class PinnedSet:
    """Constraints pinned along a direction.

    ``ineq`` lists 1-based labels of active inequalities with
    ``grad g_i . d ~ 0``; ``components`` lists the components of sigma as
    constraint rows of :class:`~nlpcheck.model.PointData`, in the order of
    ``pd.rows``: the pinned inequalities first, then every equality.
    """

    ineq: tuple[int, ...]
    components: tuple[int, ...]


def pinned_constraints(pd: PointData, d) -> PinnedSet:
    """Classify which constraints stay pinned along ``d``, at ``pd.tol.direction``.

    ``d`` must belong to the linearized cone at the point; directions
    outside it have no feasible arc to begin with.
    """
    d = np.asarray(d, dtype=float).ravel()
    cone = linearized_cone(pd)
    if not membership(cone, d):
        raise ValueError("direction is not in the linearized cone")
    scale = pd.tol.direction * (1.0 + float(np.linalg.norm(d)))
    a = len(pd.active)
    rows = pd.rows
    keep = [abs(float(pd.c_grads[k] @ d)) <= scale for k in rows[:a]] + [True] * pd.p
    return PinnedSet(
        tuple(i for i, pin in zip(pd.active, keep) if pin),
        tuple(k for k, pin in zip(rows, keep) if pin),
    )


@dataclass
class LocalChart:
    """Chart c(x) = (xi(x), x_K) built at a center point.

    ``components`` are the pinned constraint rows (``PinnedSet.components``)
    and ``xi`` indexes the selected ones (0-based positions into
    ``components``); ``solve_vars``/``keep_vars`` are 0-based variable
    positions (J and K).  ``z_center`` is c(center), ``jac_center`` is
    c'(center), and ``cond_estimate`` is the 2-norm condition number of the
    selected square block, a warning signal for poorly scaled charts.
    """

    components: tuple[int, ...]
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


def build_chart(pd: PointData, pinned: PinnedSet) -> LocalChart:
    """Select chart rows and variables at ``pd.x`` by greedy pivoting.

    The rank r of the pinned-constraint Jacobian (read from ``pd``) is
    decided once, by :func:`~nlpcheck.linalg.numerical_rank` at
    ``pd.tol.rank``.  Its rows are then reduced to a spanning subset xi of
    r rows, and the variable block J is chosen the same way from the xi
    rows.  Ties prefer earlier components and earlier variables, so the
    selection is deterministic.  The empty pinned set has r = 0 and gives
    the identity chart, whose arcs are straight lines.  Raises
    :class:`DegenerateRankError` when pinned rows have rank 0 or leave no
    residual for one of the r picks.
    """
    x = pd.x
    n = x.size
    comps = list(pinned.components)
    rows = pd.c_grads[comps]
    r = numerical_rank(rows, pd.tol.rank).rank
    if comps and r == 0:
        raise DegenerateRankError(
            "pinned constraint gradients are numerically zero at the point"
        )
    try:
        xi = tuple(pivot_select(rows.T, r))
        xi_rows = rows[list(xi)]
        solve_vars = tuple(pivot_select(xi_rows, r))
    except ValueError as exc:
        raise DegenerateRankError(f"pinned constraint gradients: {exc}") from exc
    keep_vars = tuple(sorted(set(range(n)) - set(solve_vars)))
    cond = float(np.linalg.cond(xi_rows[:, list(solve_vars)])) if r else 1.0
    jac = np.zeros((n, n))
    jac[:r] = xi_rows
    for row, k in enumerate(keep_vars):
        jac[r + row, k] = 1.0
    z_center = np.concatenate([pd.c_vals[comps][list(xi)], x[list(keep_vars)]])
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


def trace_arcs(
    problem: Problem,
    charts,
    directions,
    deltas,
    samples: int = DEFAULT_POINTS,
    tol: Tolerances = Tolerances(),
) -> list[ArcResult]:
    """March the arcs zeta(t) through their chart centers over symmetric
    grids by warm-started Newton, all of them together, to the residual
    ``tol.newton``.

    Arc a runs along ``directions[a]`` through ``charts[a]`` with half-width
    ``deltas[a]``, over a grid of ``samples`` points; a request that
    :func:`check_arc_request` rejects raises its ``ValueError``.  Each side
    of every arc is one system of a single :func:`newton_batch`, which
    walks its chart targets from the center out; a Newton failure
    truncates that side at the last good sample.  The constraint values at
    every kept sample and every chart center then come from one order-0
    sweep, which truncates a side again at a sample where a constraint
    leaves its domain.  Each arc equals the one traced alone.
    """
    directions = check_arc_request(problem.n, directions, deltas, samples)
    half = (samples - 1) // 2
    n, m = problem.n, problem.m

    # sides 2a and 2a + 1 are the negative and positive sides of arc a.
    # Line a of the gather holds arc a's chart rows: its xi constraint rows,
    # then its kept coordinates; a Newton round takes each side's c(x) and
    # c'(x) straight from one sweep
    S = 2 * len(charts)
    chart_rows = np.empty((len(charts), n), dtype=int)
    for a, chart in enumerate(charts):
        chart_rows[a, : chart.rank] = [chart.components[i] for i in chart.xi]
        chart_rows[a, chart.rank :] = [~k for k in chart.keep_vars]
    gather = problem.sweep.gather(chart_rows, n)
    sign = np.tile([-1, 1], len(charts))
    scale = sign * np.repeat(np.asarray(deltas, dtype=float), 2)
    # t at sample j + 1 of each side, whose target is c(center) + t * c'(center) d
    tk = scale[:, None] * np.arange(1, half + 1) / half
    z_center = np.repeat([chart.z_center for chart in charts], 2, axis=0)
    step_z = np.repeat([chart.jac_center @ d for chart, d in zip(charts, directions)], 2, axis=0)
    start = (np.repeat([chart.center for chart in charts], 2, axis=0), z_center,
             np.repeat([chart.jac_center for chart in charts], 2, axis=0))
    targets = z_center[:, None] + tk[..., None] * step_z[:, None]
    points, _, failures = newton_batch(
        lambda rows, T: gather.evaluate(T, rows // 2), start, targets, tol.newton
    )
    cut = np.full(S, half)  # samples kept per side
    notes = [""] * S

    def truncate(s: int, j: int, exc: Exception) -> None:  # side s keeps its first j samples
        notes[s] = f"side {sign[s]:+d} truncated at sample {j + 1} (t = {tk[s, j]:.6g}): {exc}"
        cut[s] = j

    for s, failure in enumerate(failures):
        if failure is not None:
            truncate(s, *failure)

    # every constraint value comes from one sweep of the kept samples, then
    # the chart centers.  A side is cut at the first sample where a
    # constraint leaves its domain; its march ran on past that sample, and
    # the points beyond are dropped.  The one-point call on a failed
    # sample's failed rows raises the message a sequential evaluation would
    # have raised.
    side_of, sample_of = np.nonzero(np.arange(half) < cut[:, None])
    kept = side_of.size
    X = np.vstack([points[side_of, sample_of], *(chart.center for chart in charts)])
    values, _, _, ok = problem.sweep.evaluate(X, np.arange(m + problem.p), order=0)
    for r in np.flatnonzero(~ok[:kept].all(axis=1)).tolist():
        s, j = int(side_of[r]), int(sample_of[r])
        if j < cut[s]:
            try:
                problem.sweep.at(X[r], np.flatnonzero(~ok[r]), order=0)
            except DomainError as exc:
                truncate(s, j, exc)
    row_of = np.empty((S, half), dtype=int)  # the row of X of each kept sample
    row_of[side_of, sample_of] = np.arange(kept)

    arcs = []
    for a, (chart, d, delta) in enumerate(zip(charts, directions, deltas)):
        lo, hi = cut[2 * a], cut[2 * a + 1]
        rows = np.concatenate([row_of[2 * a, :lo][::-1], [kept + a], row_of[2 * a + 1, :hi]])
        t = np.array([delta * k / half for k in range(-lo, hi + 1)])
        arcs.append(
            ArcResult(
                t=t,
                points=X[rows],
                g_values=values[rows, :m],
                h_values=values[rows, m:],
                delta=delta,
                direction=d.copy(),
                center=chart.center.copy(),
                truncated=t.size < samples,
                note="; ".join(note for note in notes[2 * a : 2 * a + 2] if note),
            )
        )
    return arcs


def trace_arc(
    problem: Problem,
    chart: LocalChart,
    d,
    delta: float,
    samples: int = DEFAULT_POINTS,
    tol: Tolerances = Tolerances(),
) -> ArcResult:
    """The one arc of :func:`trace_arcs` for a single chart and direction."""
    return trace_arcs(problem, [chart], [d], [delta], samples, tol)[0]


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


def verify_arc(arc: ArcResult, pd: PointData, pinned: PinnedSet) -> ArcProperties:
    """Validate the five arc properties on the stored samples at ``tol = pd.tol.verify``.

    (arc1) checks the start point at ``tol`` and the Richardson-extrapolated
    velocity at ``sqrt(tol)`` (a plain central difference on grids too short
    for it); its detail carries the velocity estimate as
    ``derivative_estimate``.  (arc2)/(arc5) check the pinned inequalities
    and the equalities over the whole grid; (arc3) checks inactive
    inequalities everywhere; (arc4) checks active-but-unpinned inequalities
    for t >= 0.  Forward feasibility summarizes g <= tol and |h| <= tol over
    t >= 0.
    """
    iz, t, tol = arc.zero_index, arc.t, pd.tol.verify
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
    return ArcProperties(checks)


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


def arcs_for_directions(
    problem: Problem,
    pd: PointData,
    directions,
    delta: float = DEFAULT_DELTA,
    samples: int = DEFAULT_POINTS,
) -> list[DirectionArcReport]:
    """Pin, chart, trace, and verify the arc for each direction, at ``pd.tol``.

    The directions that pin the same constraints share one chart (or one
    :class:`DegenerateRankError`), built once.  Every charted direction is
    traced in one :func:`trace_arcs` batch.  The arcs that come back
    truncated have their delta halved (up to ``_MAX_SHRINK`` times) and are
    retraced together, since Proposition-style arcs are only guaranteed on
    a small enough interval; the final attempt is reported even if still
    truncated.  :func:`check_arc_request` and :func:`check_arc_size` raise
    ``ValueError`` before any trace; a direction off the cone gets an error.

    Directions with the same bits pin the same constraints and get the same
    chart and delta, so their arcs are the same: each distinct direction is
    traced and verified once, and its duplicates share its report.
    """
    directions = check_arc_request(problem.n, directions, [delta], samples)
    check_arc_size(problem.n, problem.m + problem.p, len(directions), samples)
    report_of: dict = {}  # the bits of each distinct direction -> its position in reports
    reports = []
    charts = []
    charted = []  # positions in reports of the charted directions
    built: dict = {}  # PinnedSet.components -> its chart, or its DegenerateRankError
    for d in directions:
        if report_of.setdefault(d.tobytes(), len(reports)) < len(reports):
            continue
        try:
            pinned = pinned_constraints(pd, d)
        except ValueError as exc:
            reports.append(DirectionArcReport(d, None, {}, None, None, error=str(exc)))
            continue
        if pinned.components not in built:
            try:
                built[pinned.components] = build_chart(pd, pinned)
            except DegenerateRankError as exc:
                built[pinned.components] = exc
        chart = built[pinned.components]
        if isinstance(chart, DegenerateRankError):
            reports.append(DirectionArcReport(d, pinned, {}, None, None, error=str(chart)))
            continue
        summary = {
            "pinned_ineq": list(pinned.ineq),
            "rank": chart.rank,
            "chart_rows": ["%s%d" % row_label(pd.m, chart.components[i]) for i in chart.xi],
            "solve_vars": [k + 1 for k in chart.solve_vars],
            "keep_vars": [k + 1 for k in chart.keep_vars],
            "condition": chart.cond_estimate,
        }
        charted.append(len(reports))
        charts.append(chart)
        reports.append(DirectionArcReport(d, pinned, summary, None, None))
    cur_delta = [float(delta)] * len(charts)
    pending = list(range(len(charts)))
    for _ in range(_MAX_SHRINK + 1):
        if not pending:
            break
        traced = trace_arcs(
            problem,
            [charts[i] for i in pending],
            [reports[charted[i]].direction for i in pending],
            [cur_delta[i] for i in pending],
            samples,
            pd.tol,
        )
        for i, arc in zip(pending, traced):
            reports[charted[i]].arc = arc
        pending = [i for i, arc in zip(pending, traced) if arc.truncated]
        for i in pending:
            cur_delta[i] *= 0.5
    for rep in (reports[r] for r in charted):
        rep.properties = verify_arc(rep.arc, pd, rep.pinned)
    return [reports[report_of[d.tobytes()]] for d in directions]


def arc_for_direction(
    problem: Problem,
    pd: PointData,
    d,
    delta: float = DEFAULT_DELTA,
    samples: int = DEFAULT_POINTS,
) -> DirectionArcReport:
    """The report of :func:`arcs_for_directions` for a single direction."""
    return arcs_for_directions(problem, pd, [d], delta, samples)[0]
