"""KKT multipliers and the strong second-order necessary condition.

At a feasible point the multipliers solving

    grad f + sum_i mu_i grad g_i + sum_j lam_j grad h_j = 0,
    mu >= 0,  mu_i = 0 off the active set,

form a polyhedron.  It is described exactly by its vertices and extreme
rays, both enumerated from basic solutions of the stationarity system (a
vertex zeroes enough mu components that the remaining columns are linearly
independent; an extreme ray comes from a one-dimensional nullspace of a
column subset).  Only column subsets small enough to be either are
ranked, and only the independent ones that a stacked screen cannot rule
out get the exact least-squares solve.  The point is a KKT point exactly
when a vertex is found.  A sign-constrained least-squares probe supplies
the stationarity residual and a fallback representative; it decides the
KKT question only when enumeration is not possible or finds no vertex.

The strong second-order necessary condition (SSONC) asks, for EVERY
multiplier (mu, lam), that the Lagrangian Hessian be positive semidefinite
on the strong critical cone.  For a fixed direction d the form
``d^T hess_L(x, mu, lam) d`` is affine in (mu, lam), so its minimum over the
polyhedron is attained at a vertex or diverges along a ray; checking all
vertices plus all rays therefore covers the whole multiplier set.  The
strong critical cone does not depend on the multiplier, so all vertex and
ray forms are minimized over it in one call that enumerates its faces once
(see :mod:`nlpcheck.cones`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from nlpcheck.cones import min_quadratics_on_cone, strong_critical_cone
from nlpcheck.linalg import grouped_nullspace_bases, nnls, stack_chunk
# no longer called here; the name stays bound because the benchmark's
# tracer self-test (perfbench/tests) looks it up on this module
from nlpcheck.linalg import numerical_rank  # noqa: F401
from nlpcheck.model import PointData, lagrangian_hessian

__all__ = [
    "MultiplierSet",
    "solve_multipliers",
    "SsoncReport",
    "check_ssonc",
    "recheck_ssonc_witness",
]

_SSONC_NEG = -1e-8  # certified minima below this refute the condition
_ENUM_LIMIT = 12  # most multipliers (active inequalities plus equalities) enumerated
# the smallest rank tolerance at which a subset's zero rows are sure to
# give singular values below the cut: the SVD leaves them near eps times
# the largest, and this is 4096 eps
_RANK_FLOOR = 4096 * float(np.finfo(float).eps)
_SCREEN_MIN = 8  # smallest group of independent subsets worth a screen


@dataclass
class MultiplierSet:
    """KKT multiplier polyhedron at a point.

    ``residual`` is the infinity-norm stationarity residual of the
    sign-constrained least-squares probe, or of the best vertex where the
    probe missed one.  :func:`solve_multipliers` lists no vertex exactly
    when that residual exceeds ``pd.tol.rank``, so the point is a KKT
    point exactly when ``vertices`` is nonempty; that is the one KKT-point
    rule.  ``vertices`` and ``rays`` list (mu, lam)
    pairs with mu of full length m (inactive entries zero), deduplicated and
    sorted lexicographically.  ``partial`` flags results where enumeration
    was skipped or degenerate, in which case ``vertices`` may hold only a
    representative.
    """

    residual: float
    vertices: list[tuple[np.ndarray, np.ndarray]]
    rays: list[tuple[np.ndarray, np.ndarray]]
    bounded: bool
    partial: bool = False
    note: str = ""
    active: tuple[int, ...] = ()


def _dedup_sorted(
    items: list[np.ndarray], tol: float = 1e-9
) -> list[np.ndarray]:
    """Drop near-duplicates and sort lexicographically: ``v`` is dropped
    when some ``u`` kept before it has ``|v - u| <= tol * max(|u|, |v|)``
    in the infinity norm, so that scaling every item by one factor drops
    the same ones, and a large item does not merge two small ones."""
    kept: list[np.ndarray] = []
    stack = np.empty((len(items), len(items[0]) if items else 0))  # the kept vectors
    tops = np.empty(len(items))  # their largest |entry|
    for v in items:
        top = float(np.abs(v).max(initial=0.0))
        n = len(kept)
        cut = tol * np.maximum(tops[:n], top)
        if (np.abs(stack[:n] - v).max(axis=1, initial=0.0) > cut).all():
            stack[n], tops[n] = v, top
            kept.append(v)
    kept.sort(key=lambda v: tuple(v))
    return kept


def _screen(subs: np.ndarray, rhs: np.ndarray, ineq: int, tol: float) -> np.ndarray:
    """Which independent column stacks ``subs``, shape ``(g, n, c)``, the
    exact vertex test could pass: ``False`` only where ``np.linalg.lstsq``
    must give a residual above ``tol`` (infinity norm) or a multiplier of
    one of the first ``ineq`` columns below ``-1e-12``.

    One stacked QR solve gives every stack's ``y``.  Both it and ``lstsq``
    are backward stable: each returns the exact least-squares solution of
    ``(A + dA, b + db)`` with ``||dA|| <= eps ||A||`` and ``||db|| <= eps
    ||b||``, here ``eps = 32 n c u``.  To first order that moves ``y`` by
    at most ``eps (kappa (||b|| / s + ||y||) + kappa^2 ||r|| / s)`` and the
    residual by at most ``eps (||b|| + s ||y|| + kappa ||r||)``, ``s`` the
    largest singular value, ``r`` the least-squares residual and ``kappa``
    the condition number, which the rank cut keeps below ``1 / tol``.  The
    margins are four times those bounds (two solvers, and twice for the
    higher orders), read with ``s`` between ``||A||_F / sqrt(c)`` and
    ``||A||_F``, ``||r||`` at the screen's residual and ``||y||`` bounded
    through the screen's ``y``; a stack is ruled out only when its
    residual or a multiplier misses the test by more than its margin, and
    every margin and value is finite.  With ``eps kappa`` above 1/4 the
    bounds say nothing and no stack is ruled out.
    """
    g, n, c = subs.shape
    eps = 32 * n * c * float(np.finfo(float).eps)
    kappa = 1.0 / tol
    if eps * kappa > 0.25:
        return np.ones(g, dtype=bool)
    with np.errstate(all="ignore"):
        q, r = np.linalg.qr(subs)
        y = np.linalg.solve(r, q.transpose(0, 2, 1) @ rhs[:, None])[..., 0]
        res = (subs @ y[..., None])[..., 0] - rhs
        s = np.sqrt((subs * subs).sum(axis=(1, 2)))
        s_low = s / math.sqrt(c)
        beta = float(np.linalg.norm(rhs))
        rho = np.sqrt((res * res).sum(axis=1))
        y_top = (
            np.sqrt((y * y).sum(axis=1)) + eps * kappa * (beta + kappa * rho) / s_low
        ) / (1.0 - eps * kappa)
        margin_res = 4.0 * eps * (beta + s * y_top + kappa * rho)
        margin_y = 4.0 * eps * (kappa * (beta / s_low + y_top) + kappa * kappa * rho / s_low)
        misses = (np.abs(res).max(axis=1) > tol + margin_res) | (
            y[:, :ineq] < -1e-12 - margin_y[:, None]
        ).any(axis=1)
        sure = np.isfinite(res).all(axis=1) & np.isfinite(margin_res) & np.isfinite(margin_y)
    return ~(misses & sure)


def solve_multipliers(pd: PointData) -> MultiplierSet:
    """Describe the multiplier polyhedron by vertices and extreme rays.

    Enumeration runs over all subsets of active-inequality multipliers
    forced to zero, at ``tol = pd.tol.rank``: subsets whose remaining
    columns are independent at the relative cutoff ``tol`` and solve
    stationarity within the absolute ``tol`` give vertices, and subsets
    whose columns have a one-dimensional nullspace give ray candidates.
    Only subsets of at most ``r0 + 1`` columns are ranked, ``r0`` the
    number of variables in which some column has a nonzero entry: a
    larger subset has rank at most its size less two, so it is neither.
    That bound holds for the computed ranks while ``tol`` is above
    ``_RANK_FLOOR`` (the SVD puts the zero rows' singular values near
    ``eps`` times the largest); below it every subset is ranked.  The
    subsets are walked in mask order, in chunks
    (:func:`~nlpcheck.linalg.stack_chunk`); within a chunk, subsets with
    the same number of columns share one stacked SVD
    (:func:`~nlpcheck.linalg.grouped_nullspace_bases`).  Of those with
    independent columns, a group of at least ``_SCREEN_MIN`` first passes
    one stacked screen (:func:`_screen`), and only the subsets it cannot
    rule out make the exact least-squares solve; the ray candidates' sign
    test runs on the whole group at once.  The candidates are put back in
    mask order before near-duplicates are dropped, so the first of each is
    kept.

    The point is a KKT point exactly when a vertex is listed.  The
    sign-constrained least-squares probe gives ``residual``; where it
    exceeds ``tol`` but the enumeration finds a vertex, ``residual`` is
    the smallest vertex residual instead.  The probe decides alone when
    the active count plus equality count exceeds ``_ENUM_LIMIT``, where
    its solution is the one vertex reported and the result is flagged
    partial, and when the enumeration finds no vertex: within ``tol`` the
    polyhedron has a lineality space and the probe's solution is reported
    as a partial representative, and past it the point is no KKT point.
    """
    act, rows, tol = pd.active, pd.rows, pd.tol.rank
    a, p = len(act), pd.p
    # a C-ordered copy: BLAS may round products with a transposed view differently
    cols = pd.c_grads[rows].T.copy()
    mask = np.array([True] * a + [False] * p, dtype=bool)
    y_probe, _ = nnls(cols, pd.f_grad, mask)
    residual = float(np.abs(cols @ y_probe + pd.f_grad).max(initial=0.0))

    def expand(y: np.ndarray) -> np.ndarray:
        full = np.zeros(pd.m + p)
        full[rows] = y
        return full

    def split(full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return full[: pd.m].copy(), full[pd.m :].copy()

    ms = MultiplierSet(residual, [], [], True, active=act)
    unsolved = "stationarity unsolvable at tolerance; not a KKT point"
    if a + p > _ENUM_LIMIT:
        if residual > tol:
            ms.note = unsolved
            return ms
        ms.vertices = [split(expand(y_probe))]
        ms.partial = True
        ms.bounded = False
        ms.note = (
            f"enumeration skipped ({a}+{p} multipliers exceeds the limit "
            f"{_ENUM_LIMIT}); least-squares representative only"
        )
        return ms

    rhs = -pd.f_grad
    rhs_top = float(np.abs(rhs).max(initial=0.0))  # the empty subset's residual
    # (mask, candidate) pairs: the groups come by subset size and rank, and
    # are put back in mask order before deduplication
    vertex_raw: list[tuple[int, np.ndarray]] = []
    ray_raw: list[tuple[int, np.ndarray]] = []
    best = math.inf  # the smallest vertex residual

    def gather(keep: np.ndarray) -> np.ndarray:
        return cols[:, keep].transpose(1, 0, 2)  # (subsets, n, kept columns)

    # the most columns a vertex or ray subset can have (see the docstring)
    most = a + p if tol <= _RANK_FLOOR else int(cols.any(axis=1).sum()) + 1
    # per subset: the column stack and the SVD's factors
    chunk = stack_chunk((pd.n + a + p) ** 2)
    for start in range(0, 1 << a, chunk):
        masks = np.arange(start, min(1 << a, start + chunk))
        zeroed = (masks[:, None] >> np.arange(a) & 1).astype(bool)
        kept = np.hstack([~zeroed, np.ones((len(masks), p), dtype=bool)])  # (masks, a + p)
        size = kept.sum(axis=1)
        # every subset but the empty one gets a nullspace basis
        if (size == 0).any() and rhs_top <= tol:
            vertex_raw.append((int(masks[size == 0][0]), expand(np.zeros(a + p))))
            best = min(best, rhs_top)
        live = np.flatnonzero((size > 0) & (size <= most))
        for at, nulls in grouped_nullspace_bases(kept[live], gather, tol):
            ineq = int(size[live[at[0]]]) - p  # the kept inequality columns come first
            if nulls.shape[2] == 0:  # independent columns: vertex candidates
                idx = live[at]
                if len(idx) >= _SCREEN_MIN:
                    subs = gather(np.nonzero(kept[idx])[1].reshape(len(idx), -1))
                    idx = idx[_screen(subs, rhs, ineq, tol)]
                for j in idx.tolist():
                    keep = kept[j]
                    sub = cols[:, keep]
                    y_sub, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
                    miss = float(np.abs(sub @ y_sub - rhs).max(initial=0.0))
                    if miss <= tol:
                        y = np.zeros(a + p)
                        y[keep] = y_sub
                        if not (y[:a] < -1e-12).any():
                            vertex_raw.append((int(masks[j]), expand(y)))
                            best = min(best, miss)
            elif nulls.shape[2] == 1:  # a one-dimensional nullspace: ray candidates
                null = nulls[:, :, 0]
                # -w < -1e-12 exactly where w > 1e-12
                signs = (
                    ~(null[:, :ineq] < -1e-12).any(axis=1),
                    ~(null[:, :ineq] > 1e-12).any(axis=1),
                )
                for k in np.flatnonzero(signs[0] | signs[1]).tolist():
                    j = int(live[at[k]])
                    w = np.zeros(a + p)
                    w[kept[j]] = null[k]
                    for sign, ok in zip((1.0, -1.0), signs):
                        if ok[k]:
                            cand = sign * w
                            norm = float(np.linalg.norm(cand))
                            if norm > 1e-12:
                                ray_raw.append((int(masks[j]), expand(cand / norm)))
    vertex_raw.sort(key=lambda pair: pair[0])  # stable: a mask's candidates keep their order
    ray_raw.sort(key=lambda pair: pair[0])
    vertices = _dedup_sorted([v for _, v in vertex_raw])
    if not vertices and residual > tol:
        ms.note = unsolved
        return ms
    ms.rays = [split(r) for r in _dedup_sorted([r for _, r in ray_raw])]
    ms.bounded = not ms.rays
    if vertices:
        ms.vertices = [split(v) for v in vertices]
        ms.residual = best if residual > tol else residual
    else:
        # solvable stationarity but no basic feasible solution: the
        # polyhedron has a lineality space (dependent equality gradients)
        ms.vertices = [split(expand(y_probe))]
        ms.partial = True
        ms.note = (
            "no vertex found (multiplier set has a lineality space); "
            "least-squares representative reported"
        )
    return ms


@dataclass
class SsoncReport:
    """SSONC outcome over the whole multiplier description.

    ``results`` holds one entry per vertex and per ray with the cone
    minimum of the relevant quadratic form and the ``method`` that produced
    it (``"facial-enumeration"``, ``"zero-cone"`` or ``"uncertified"``,
    see :class:`nlpcheck.cones.QuadOnConeResult`); ``worst``
    names the entry with the smallest value.  ``status`` is "fails" when a
    certified minimum is below -1e-8, "holds-certified" when every entry is
    certified nonnegative at that tolerance and the multiplier description
    is complete, and "undetermined" otherwise.
    """

    status: str
    results: list[dict] = field(default_factory=list)
    worst: dict | None = None
    rationale: str = ""


def _form(pd: PointData, kind: str, mu, lam) -> tuple[np.ndarray, int]:
    """A vertex's Lagrangian Hessian, or a ray's homogeneous part, as ``(H,
    exp)`` where the form is ``2^exp H``.  ``exp`` is 0 when the form is
    finite.  Otherwise the entries of each term are below ``2^e``, ``e``
    the exponents of its coefficient and of its largest entry summed, and
    ``exp`` brings the sum of the terms below ``2^1023``."""
    exp = 0
    while True:
        with np.errstate(over="ignore"):
            H = lagrangian_hessian(pd, mu, lam, exp)
            H = H - np.ldexp(pd.f_hess, -exp) if kind == "ray" else H
        if exp or np.isfinite(H).all():
            return H, exp
        tops = np.abs(np.concatenate([pd.f_hess[None], pd.c_hesses])).max(axis=(1, 2))
        e = np.frexp(np.concatenate([[1.0], mu, lam]))[1] + np.frexp(tops)[1]
        exp = max(1, int(e.max()) + (e.size + 1).bit_length() - 1023)  # a ray's f counts twice


def check_ssonc(pd: PointData, ms: MultiplierSet) -> SsoncReport:
    """Check the Lagrangian Hessian on the strong critical cone for every
    multiplier.

    Vertices contribute the full Lagrangian Hessian; rays contribute the
    homogeneous part (constraint Hessians weighted by the ray direction),
    because moving far along a ray makes that part dominate.  Either kind of
    witness with a certified negative cone minimum refutes the condition.
    The condition holds when every minimum is certified nonnegative and the
    multiplier description is complete, or when the cone is certified to be
    {0} (every result ``"zero-cone"``): that certificate does not depend on
    the multiplier, so it holds for a partial description too.
    """
    if not ms.vertices:
        raise ValueError("no KKT multipliers available; SSONC is undefined here")
    cone = strong_critical_cone(pd)
    entries = [("vertex", k, mu, lam) for k, (mu, lam) in enumerate(ms.vertices)]
    entries += [("ray", k, mu, lam) for k, (mu, lam) in enumerate(ms.rays)]
    forms, exps = zip(*(_form(pd, kind, mu, lam) for kind, _, mu, lam in entries))
    minima = min_quadratics_on_cone(list(forms), cone)
    with np.errstate(over="ignore"):  # past the float range: -inf or inf
        values = [float(np.ldexp(q.min_value, exp)) for q, exp in zip(minima, exps)]
    results = [
        {
            "kind": kind,
            "index": k,
            "mu": [float(v) for v in mu],
            "lam": [float(v) for v in lam],
            "min_value": value,
            "witness_direction": [float(v) for v in q.witness],
            "method": q.method,
            "certified": q.certified,
        }
        for (kind, k, mu, lam), q, value in zip(entries, minima, values)
    ]
    worst = min(results, key=lambda r: r["min_value"]) if results else None
    certified_neg = [r for r in results if r["certified"] and r["min_value"] < _SSONC_NEG]
    if certified_neg:
        worst = min(certified_neg, key=lambda r: r["min_value"])
        status = "fails"
        rationale = (
            "a certified negative curvature direction exists in the strong "
            "critical cone for the reported multiplier"
        )
    elif (
        all(r["certified"] and r["min_value"] >= _SSONC_NEG for r in results)
        and not ms.partial
    ):
        status = "holds-certified"
        rationale = (
            "for every vertex and every extreme ray of the multiplier set the "
            "cone minimum is certified nonnegative; since the quadratic form is "
            "affine in the multiplier for fixed direction, this covers every "
            "multiplier"
        )
    elif all(r["method"] == "zero-cone" for r in results):
        status = "holds-certified"
        rationale = (
            "the strong critical cone is certified to be {0}, so every "
            "quadratic form vanishes on it; the certificate does not depend "
            "on the multiplier, so this covers every multiplier although the "
            "multiplier description is partial"
        )
    else:
        status = "undetermined"
        rationale = (
            "the multiplier description is partial or some cone minimum is "
            "uncertified; no certified negative witness was found"
        )
    return SsoncReport(status=status, results=results, worst=worst, rationale=rationale)


def recheck_ssonc_witness(pd: PointData, entry: dict) -> float:
    """Recompute d^T H d for a stored SSONC result entry.

    Vertices use the full Lagrangian Hessian, rays its homogeneous part,
    each formed as :func:`check_ssonc` forms it; useful for auditing
    reported minima independently of the cone search.
    """
    mu = np.asarray(entry["mu"], dtype=float)
    lam = np.asarray(entry["lam"], dtype=float)
    d = np.asarray(entry["witness_direction"], dtype=float)
    H, exp = _form(pd, entry["kind"], mu, lam)
    with np.errstate(over="ignore"):  # past the float range: -inf or inf
        return float(np.ldexp(d @ H @ d, exp))
