"""KKT multipliers and the strong second-order necessary condition.

At a feasible point the multipliers solving

    grad f + sum_i mu_i grad g_i + sum_j lam_j grad h_j = 0,
    mu >= 0,  mu_i = 0 off the active set,

form a polyhedron.  It is described exactly by its vertices and extreme
rays, both enumerated from basic solutions of the stationarity system (a
vertex zeroes enough mu components that the remaining columns are linearly
independent; an extreme ray comes from a one-dimensional nullspace of a
column subset).  A sign-constrained least-squares probe supplies the
stationarity residual and a fallback representative when enumeration is not
possible.

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

from dataclasses import dataclass, field

import numpy as np

from nlpcheck.cones import min_quadratics_on_cone, strong_critical_cone
from nlpcheck.linalg import grouped_nullspace_bases, nnls, stack_chunk
# no longer called here; the name stays bound because the benchmark's
# tracer self-test (perfbench/tests) looks it up on this module
from nlpcheck.linalg import numerical_rank  # noqa: F401
from nlpcheck.model import PointData, check_multiplier, lagrangian_hessian

__all__ = [
    "MultiplierSet",
    "solve_multipliers",
    "check_kkt",
    "SsoncReport",
    "check_ssonc",
    "recheck_ssonc_witness",
]

_SSONC_NEG = -1e-8  # certified minima below this refute the condition
_ENUM_LIMIT = 12  # most multipliers (active inequalities plus equalities) enumerated


@dataclass
class MultiplierSet:
    """KKT multiplier polyhedron at a point.

    ``residual`` is the infinity-norm stationarity residual of the
    sign-constrained least-squares probe; the point is a KKT point exactly
    when it is below tolerance.  ``vertices`` and ``rays`` list (mu, lam)
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
    """Drop near-duplicates (infinity norm) and sort lexicographically."""
    kept: list[np.ndarray] = []
    stack = np.empty((len(items), len(items[0]) if items else 0))  # the kept vectors
    for v in items:
        if (np.abs(stack[: len(kept)] - v).max(axis=1, initial=0.0) > tol).all():
            stack[len(kept)] = v
            kept.append(v)
    kept.sort(key=lambda v: tuple(v))
    return kept


def solve_multipliers(pd: PointData, tol: float = 1e-8) -> MultiplierSet:
    """Describe the multiplier polyhedron by vertices and extreme rays.

    Enumeration runs over all subsets of active-inequality multipliers
    forced to zero; subsets whose remaining columns are independent and
    solve stationarity within 1e-8 give vertices, and subsets whose columns
    have a one-dimensional nullspace give ray candidates.  The subsets are
    walked in mask order, in chunks (:func:`~nlpcheck.linalg.stack_chunk`);
    within a chunk, subsets with the same number of columns share one
    stacked SVD (:func:`~nlpcheck.linalg.grouped_nullspace_bases`), and
    only those with independent columns make a least-squares solve.  The
    candidates are put back in mask order before near-duplicates are
    dropped, so the first of each is kept.  When the active count plus
    equality count exceeds ``_ENUM_LIMIT`` (or the polyhedron has no vertex
    at all) only the least-squares representative is reported and the
    result is flagged partial.
    """
    act, rows = pd.active, pd.rows
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
    if residual > tol:
        ms.note = "stationarity unsolvable at tolerance; not a KKT point"
        return ms
    if a + p > _ENUM_LIMIT:
        ms.vertices = [split(expand(y_probe))]
        ms.partial = True
        ms.bounded = False
        ms.note = (
            f"enumeration skipped ({a}+{p} multipliers exceeds the limit "
            f"{_ENUM_LIMIT}); least-squares representative only"
        )
        return ms

    rhs = -pd.f_grad
    # (mask, candidate) pairs: the groups come by subset size and rank, and
    # are put back in mask order before deduplication
    vertex_raw: list[tuple[int, np.ndarray]] = []
    ray_raw: list[tuple[int, np.ndarray]] = []

    def gather(keep: np.ndarray) -> np.ndarray:
        return cols[:, keep].transpose(1, 0, 2)  # (subsets, n, kept columns)

    # per subset: the column stack and the SVD's factors
    chunk = stack_chunk((pd.n + a + p) ** 2)
    for start in range(0, 1 << a, chunk):
        masks = np.arange(start, min(1 << a, start + chunk))
        zeroed = (masks[:, None] >> np.arange(a) & 1).astype(bool)
        kept = np.hstack([~zeroed, np.ones((len(masks), p), dtype=bool)])  # (masks, a + p)
        # every subset but the empty one gets a nullspace basis
        nonempty = kept.any(axis=1)
        if not nonempty.all() and float(np.abs(rhs).max(initial=0.0)) <= 1e-8:
            vertex_raw.append((int(masks[~nonempty][0]), expand(np.zeros(a + p))))
        live = np.flatnonzero(nonempty)
        for at, nulls in grouped_nullspace_bases(kept[live], gather):
            if nulls.shape[2] == 0:  # independent columns: a vertex candidate
                for j in live[at].tolist():
                    keep = kept[j]
                    sub = cols[:, keep]
                    y_sub, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
                    if float(np.abs(sub @ y_sub - rhs).max(initial=0.0)) <= 1e-8:
                        y = np.zeros(a + p)
                        y[keep] = y_sub
                        if not (y[:a] < -1e-12).any():
                            vertex_raw.append((int(masks[j]), expand(y)))
            elif nulls.shape[2] == 1:  # a one-dimensional nullspace: ray candidates
                for j, null in zip(live[at].tolist(), nulls[:, :, 0]):
                    w = np.zeros(a + p)
                    w[kept[j]] = null
                    for sign in (1.0, -1.0):
                        cand = sign * w
                        if not (cand[:a] < -1e-12).any():
                            norm = float(np.linalg.norm(cand))
                            if norm > 1e-12:
                                ray_raw.append((int(masks[j]), expand(cand / norm)))
    vertex_raw.sort(key=lambda pair: pair[0])  # stable: a mask's candidates keep their order
    ray_raw.sort(key=lambda pair: pair[0])
    vertices = _dedup_sorted([v for _, v in vertex_raw])
    rays = _dedup_sorted([r for _, r in ray_raw])
    ms.vertices = [split(v) for v in vertices]
    ms.rays = [split(r) for r in rays]
    ms.bounded = not ms.rays
    if not ms.vertices:
        # solvable stationarity but no basic feasible solution: the
        # polyhedron has a lineality space (dependent equality gradients)
        ms.vertices = [split(expand(y_probe))]
        ms.partial = True
        ms.note = (
            "no vertex found (multiplier set has a lineality space); "
            "least-squares representative reported"
        )
    return ms


def check_kkt(pd: PointData, mu, lam, tol: float = 1e-8) -> tuple[float, bool]:
    """KKT residual of a proposed multiplier pair.

    The residual is the max of the stationarity infinity-norm, the worst
    negative-mu violation, and the worst complementarity product
    ``|mu_i g_i(x)|``.
    """
    mu, lam = check_multiplier(pd, mu, lam)
    stat = pd.f_grad.copy()
    if pd.m:
        stat = stat + mu @ pd.c_grads[: pd.m]
    if pd.p:
        stat = stat + lam @ pd.c_grads[pd.m :]
    residual = float(np.abs(stat).max(initial=0.0))
    if pd.m:
        residual = max(residual, float((-mu).max(initial=0.0)))
        residual = max(residual, float(np.abs(mu * pd.c_vals[: pd.m]).max(initial=0.0)))
    return residual, residual <= tol


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
    forms = []
    for kind, _, mu, lam in entries:
        H = lagrangian_hessian(pd, mu, lam)
        forms.append(H - pd.f_hess if kind == "ray" else H)
    minima = min_quadratics_on_cone(forms, cone)
    results = [
        {
            "kind": kind,
            "index": k,
            "mu": [float(v) for v in mu],
            "lam": [float(v) for v in lam],
            "min_value": q.min_value,
            "witness_direction": [float(v) for v in q.witness],
            "method": q.method,
            "certified": q.certified,
        }
        for (kind, k, mu, lam), q in zip(entries, minima)
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

    Vertices use the full Lagrangian Hessian, rays its homogeneous part;
    useful for auditing reported minima independently of the cone search.
    """
    mu = np.asarray(entry["mu"], dtype=float)
    lam = np.asarray(entry["lam"], dtype=float)
    d = np.asarray(entry["witness_direction"], dtype=float)
    H = lagrangian_hessian(pd, mu, lam)
    if entry["kind"] == "ray":
        H = H - pd.f_hess
    return float(d @ H @ d)
