"""Independent brute-force oracles shared by the test modules.

The quadratic-on-cone oracle works on a dense angular grid (step 1e-3
rad) augmented with exact boundary and stationary candidates computed
from closed-form trigonometry: a bare grid misses boundary minima by
O(step.||H||), which is far above the comparison tolerances used here,
while the augmented candidate set is exact up to rounding.  None of this
shares code with the library's facial enumeration.

``reference_simplex_lp`` is the general two-phase simplex (bounds, free
variables, equalities; Bland's rule) that ``linalg.simplex_lp`` was cut
from: on the MFCQ direction LP the library must reproduce its pivots, so
its ``x`` and value bit for bit.  ``zero_cone_oracle`` and
``eigenspace_box_oracle`` decide by its box LPs (``box_maxima``) what the
library now decides by non-negative least squares: whether a cone, or a
wedge in an eigenspace, is {0}.  They must agree with it on every verdict.

The reference loops (``rank_scan_oracle``, ``facial_minima_oracle``,
``multiplier_enumeration_oracle``) are the plain one-matrix-at-a-time
versions of batched library code; they must agree with it exactly.  ``reference_evaluate`` and
``reference_grad_hess`` are the recursive tree interpreters the sweep
replaced: every sweep order must reproduce their bits, signed zeros
included.  ``reference_sweep`` is the one-point forward sweep of one tree
(orders 0 to 2), a recursion with the operations of the level-scheduled
``TapeSet``: every swept entry must reproduce its bits, and fail exactly
where it raises, with its message.
``reference_newton`` is the one-system damped Newton loop the
batched ``linalg.newton_batch`` replaced: every row of a batch must
reproduce it bit for bit, failures included.  ``sequential_trace_arc``
and ``sequential_arc`` are the one-arc, one-point-at-a-time march (on
``reference_newton``) the batched arc tracer replaced: it must reproduce
their arcs bit for bit.  ``reference_report_to_json`` is the per-scalar
JSON writer whose bytes ``cli.report_to_json`` must keep.
``reference_parse`` is the recursive-descent parser the one-loop
``expr.parse`` replaced, and the only place trees are built: its trees
(``Const``, ``Var``, ``Unary``, ``Binary``, ``Power``) feed the reference
interpreters, ``reference_to_source`` prints them back, and
``reference_rows`` re-parses a problem's source into one tree per output
of ``Problem.sweep``, so the oracles stay independent of ``src``'s parser.
On every input within its depth the one-loop parser must raise the same
``ParseError`` message and byte offset, or compile to slots that sweep
like the tree.

``fd_grad_hess``, ``check_kkt`` and ``critical_cone_multiplier_form`` check
the library from outside: a finite-difference gradient and Hessian, which
sweeps values only, for ``expr.grad_hess``; the KKT residual of a proposed
multiplier pair; and the critical cone written through a multiplier, for
``cones.strong_critical_cone``.
"""

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

TWO_PI = 2.0 * np.pi
GRID_STEP = 1e-3
EDGE_TOL = 1e-9
LP_TOL = 1e-9


def same_bits(a, b):
    """Equal shapes, equal values (NaN matching NaN) and equal sign bits,
    so that 0.0 and -0.0 differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def slot_tables(sweep):
    """Everything an ``expr.TapeSet`` holds, as plain values that compare
    with ``==`` (constants by their bits)."""
    return (
        sweep.size,
        sweep.consts.tobytes(),
        sweep.variables.tolist(),
        [(op, dst, a.tolist(), b.tolist()) for op, dst, a, b in sweep.groups],
        sweep.outputs.tolist(),
        sweep.reads.tolist(),
        sweep.failures,
    )


def _null_basis(rows, n):
    """Orthonormal basis of the common nullspace of the given rows."""
    if len(rows) == 0:
        return np.eye(n)
    a = np.array(rows, dtype=float).reshape(len(rows), n)
    u, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if s.size else 0.0)))
    return vt[rank:].T


def _arcs_for_halfplane(r):
    """Angular intervals of {theta : r . (cos, sin) <= 0} on [0, 2pi)."""
    norm = np.hypot(r[0], r[1])
    if norm <= 1e-14:
        return [(0.0, TWO_PI)]
    alpha = np.arctan2(r[1], r[0])
    lo = (alpha + 0.5 * np.pi) % TWO_PI
    hi = lo + np.pi
    if hi <= TWO_PI:
        return [(lo, hi)]
    return [(lo, TWO_PI), (0.0, hi - TWO_PI)]


def _intersect_arc_lists(a, b):
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo + 1e-15:
                out.append((lo, hi))
    return out


def _quad_min_on_arcs(h2, arcs):
    """Exact minimum of d(theta)^T h2 d(theta) over angular intervals.

    v(theta) = c0 + c1 cos(2 theta) + c2 sin(2 theta); candidates are the
    interval endpoints, the four stationary angles, and a safety grid.
    """
    a, b, d = h2[0, 0], h2[0, 1], h2[1, 1]
    c0, c1, c2 = 0.5 * (a + d), 0.5 * (a - d), b

    def value(theta):
        return c0 + c1 * np.cos(2.0 * theta) + c2 * np.sin(2.0 * theta)

    base = 0.5 * np.arctan2(c2, c1)
    stationary = [base + 0.5 * np.pi * k for k in range(4)]
    best = None
    for lo, hi in arcs:
        cand = [lo, hi]
        for theta in stationary:
            shifted = lo + (theta - lo) % TWO_PI
            if shifted <= hi:
                cand.append(shifted)
        cand.extend(np.arange(lo, hi, GRID_STEP))
        vals = value(np.array(cand))
        vmin = float(vals.min())
        if best is None or vmin < best:
            best = vmin
    return best


def _min_on_circle(H, basis, extra_rows):
    """Minimum over the unit circle spanned by an orthonormal 2-col basis,
    restricted by extra inequality rows (row . d <= EDGE_TOL)."""
    h2 = basis.T @ H @ basis
    arcs = [(0.0, TWO_PI)]
    for r in extra_rows:
        r2 = np.asarray(r, dtype=float) @ basis
        arcs = _intersect_arc_lists(arcs, _arcs_for_halfplane(r2))
        if not arcs:
            return None
    return _quad_min_on_arcs(h2, arcs)


def quad_cone_min_oracle(H, a_eq, a_in):
    """Brute-force minimum of d^T H d over unit d with a_eq d = 0 and
    a_in d <= 0.  Returns None when the cone is {0}.

    Works in the nullspace of the equality block; the inequality region
    there is handled by exact arc intersection (dim 2), complete
    stationary-candidate enumeration (dim 3), or sign inspection (dim 1).
    """
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n)
    a_in = np.asarray(a_in, dtype=float).reshape(-1, n)
    basis = _null_basis(list(a_eq), n)
    k = basis.shape[1]
    if k == 0:
        return None
    hk = basis.T @ H @ basis
    rows = [r @ basis for r in a_in]
    rows = [r for r in rows if np.abs(r).max(initial=0.0) > 1e-14]

    if k == 1:
        val = float(hk[0, 0])
        for sign in (1.0, -1.0):
            if all(sign * r[0] <= EDGE_TOL for r in rows):
                return val
        return None

    if k == 2:
        arcs = [(0.0, TWO_PI)]
        for r in rows:
            arcs = _intersect_arc_lists(arcs, _arcs_for_halfplane(r))
        if not arcs:
            return None
        return _quad_min_on_arcs(hk, arcs)

    # k == 3: candidates are eigenvectors (interior stationary points),
    # one-row boundary circles, and two-row boundary lines
    def feasible(d):
        return all(float(r @ d) <= EDGE_TOL for r in rows)

    best = None

    def consider(value):
        nonlocal best
        if value is not None and (best is None or value < best):
            best = value

    w, v = np.linalg.eigh(hk)
    for i in range(3):
        for sign in (1.0, -1.0):
            d = sign * v[:, i]
            if feasible(d):
                consider(float(w[i]))

    for i, r in enumerate(rows):
        circle = _null_basis([r], 3)
        others = [rows[j] for j in range(len(rows)) if j != i]
        consider(_min_on_circle(hk, circle, others))

    for i, j in itertools.combinations(range(len(rows)), 2):
        line = _null_basis([rows[i], rows[j]], 3)
        if line.shape[1] != 1:
            continue
        for sign in (1.0, -1.0):
            d = sign * line[:, 0]
            if feasible(d):
                consider(float(d @ hk @ d))

    # coarse full-sphere sweep as a blunder check on the candidate logic
    theta = np.arange(0.0, np.pi + 0.02, 0.02)
    phi = np.arange(0.0, TWO_PI, 0.02)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)],
        axis=-1,
    ).reshape(-1, 3)
    ok = np.ones(dirs.shape[0], dtype=bool)
    for r in rows:
        ok &= dirs @ r <= EDGE_TOL
    if ok.any():
        vals = np.einsum("ij,jk,ik->i", dirs[ok], hk, dirs[ok])
        consider(float(vals.min()))
    return best


def _svd_rank(M, tol_rel):
    if min(M.shape) == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > (tol_rel * s[0] if s[0] > 0.0 else tol_rel)))


def sample_points(sampler, center):
    """Yield (radius, sample_index, point) over ``sampler.shells(center)``."""
    for radius, pts in zip(sampler.radii, sampler.shells(center)):
        for idx, pt in enumerate(pts):
            yield float(radius), idx, pt


def rank_scan_oracle(problem, x, sampler, tol_active=1e-8, tol_rank=1e-8, budget=1 << 20):
    """CRCQ and RCRCQ verdicts by the original per-matrix scan loop.

    Every subset pair is enumerated and sorted before the budget cut; each
    matrix at the center and at every sample gets its own SVD, and each
    scan stops at its first mismatch.  Samples whose gradients leave the
    domain or are too large for an SVD are skipped.  Returns ``{"crcq": (status,
    certificate, evidence), "rcrcq": ...}`` in the library's layout.
    """
    from nlpcheck.expr import DomainError
    from nlpcheck.model import Tolerances, evaluate_point

    x = np.asarray(x, dtype=float)
    active = evaluate_point(problem, x, Tolerances(active=tol_active)).active
    trees = reference_rows(problem)
    eq = tuple(range(1, problem.p + 1))

    def subsets(labels, include_empty):
        start = 0 if include_empty else 1
        return [
            c for k in range(start, len(labels) + 1) for c in itertools.combinations(labels, k)
        ]

    def table(pt):
        try:
            rows = [reference_sweep(trees[i - 1], pt, 2)[1] for i in active]
            rows += [reference_sweep(e, pt, 2)[1] for e in trees[problem.m : -1]]
        except DomainError:
            return None
        tab = np.array(rows, dtype=float).reshape(len(rows), problem.n)
        # an entry this large could overflow the largest singular value
        if not (np.abs(tab) <= np.finfo(float).max / math.sqrt(max(tab.size, 1))).all():
            return None
        return tab

    center = table(x)
    points = list(sample_points(sampler, x))
    samples = [(r, idx, pt, table(pt)) for r, idx, pt in points]
    samples = [s for s in samples if s[3] is not None]

    def order(pair):
        return (len(pair[0]) + len(pair[1]), pair[0], pair[1])

    scans = {
        "crcq": sorted(
            ((I, J) for I in subsets(active, True) for J in subsets(eq, True) if I or J),
            key=order,
        ),
        "rcrcq": sorted(((I, eq) for I in subsets(active, bool(eq))), key=order),
    }
    n_points = len(sampler.radii) * sampler.samples_per_radius + 1
    out = {}
    for name, pairs in scans.items():
        partial = len(pairs) * max(n_points, 1) > budget
        if partial:
            pairs = [pq for pq in pairs if len(pq[0]) + len(pq[1]) <= 2]
            if (active, eq) not in pairs:
                pairs.append((active, eq))
        evidence = {
            "radii": [float(r) for r in sampler.radii],
            "samples_per_radius": sampler.samples_per_radius,
            "seed": sampler.seed,
            "subsets_scanned": len(pairs),
            "samples_used": len(samples),
            "samples_skipped_domain": len(points) - len(samples),
            "tol_rank": tol_rank,
            "partial": partial,
        }
        certificate = None
        for I, J in pairs:
            sel = [active.index(i) for i in I] + [len(active) + j - 1 for j in J]
            center_rank = _svd_rank(center[sel], tol_rank)
            for radius, idx, pt, tab in samples:
                rank = _svd_rank(tab[sel], tol_rank)
                if rank != center_rank:
                    certificate = {
                        "ineq_subset": list(I),
                        "eq_subset": list(J),
                        "center": [float(v) for v in x],
                        "center_rank": center_rank,
                        "witness": [float(v) for v in pt],
                        "witness_rank": rank,
                        "radius": radius,
                        "sample_index": idx,
                        "tol_rank": tol_rank,
                    }
                    break
            if certificate is not None:
                break
        if certificate is None:
            evidence["note"] = (
                "no rank mismatch at the sampled radii; constancy cannot be "
                "certified from finitely many samples"
            )
        evidence["active"] = list(active)
        out[name] = ("fails" if certificate else "undetermined", certificate, evidence)
    return out


def facial_minimum_oracle(H, cone, tol=1e-8):
    """One form's cone minimum by the one-face-at-a-time loop:
    ``facial_minima_oracle`` for the single form ``H``."""
    return facial_minima_oracle([H], cone, tol)[0]


def facial_minima_oracle(Hs, cone, tol=1e-8):
    """Each form's cone minimum by the one-face-at-a-time loop.

    This is the enumeration ``cones.min_quadratics_on_cone`` ran before
    faces shared stacked calls: for each face, in mask order, its own
    nullspace basis, and for each form its own eigenproblem on that face.
    Returns one ``(min_value, witness)`` per form, or None for a form no
    face yields a feasible eigenvector for.  It reuses the library's
    nullspace and eigenspace-feasibility helpers, with nullspaces cut at
    ``cone.tol.rank``, so a correct stacked enumeration must reproduce it
    bit for bit.
    """
    from nlpcheck.cones import _feasible_in_eigenspace
    from nlpcheck.linalg import nullspace_basis

    Hs = [np.asarray(H, dtype=float) for H in Hs]
    k_in = cone.a_in.shape[0]
    best = [None] * len(Hs)
    for mask in range(1 << k_in):
        pinned = [i for i in range(k_in) if mask >> i & 1]
        rest = [i for i in range(k_in) if not mask >> i & 1]
        B = nullspace_basis(np.vstack([cone.a_eq, cone.a_in[pinned]]), cone.tol.rank)
        if B.shape[1] == 0:
            continue
        for q, H in enumerate(Hs):
            Hr = B.T @ H @ B
            w, V = np.linalg.eigh(0.5 * (Hr + Hr.T))
            if best[q] is not None and float(w[0]) >= best[q][0]:
                continue
            d = _feasible_in_eigenspace(B, w, V, cone.a_in[rest], tol)
            if d is not None:
                best[q] = (float(d @ H @ d), d)
    return best


def _reference_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    if M.size and not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


@dataclass
class LpResult:
    """Outcome of a linear program: status, minimizer, optimal value."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _simplex_phase(
    T: np.ndarray, basis: list[int], ncols: int, tol: float
) -> str:
    """Run Bland-rule pivoting on a tableau whose last row is the objective.

    Columns ``0..ncols-1`` may enter the basis.  Returns "optimal" or
    "unbounded".  Bland's rule (smallest eligible entering index; among
    min-ratio ties the row whose basic variable has the smallest index)
    guarantees termination without cycling.
    """
    mrows = T.shape[0] - 1
    while True:
        enter = -1
        for j in range(ncols):
            if T[-1, j] < -tol:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best_ratio = np.inf
        for i in range(mrows):
            a = T[i, enter]
            if a > tol:
                ratio = T[i, -1] / a
                if ratio < best_ratio - tol or (
                    abs(ratio - best_ratio) <= tol
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)


def reference_simplex_lp(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    bounds: Sequence[tuple[float | None, float | None]] | None = None,
) -> LpResult:
    """Minimize ``c @ x`` subject to ``A_ub x <= b_ub``, ``A_eq x = b_eq``.

    ``bounds`` holds one ``(lo, hi)`` pair per variable with ``None`` meaning
    unbounded on that side; variables are free by default.  Dense two-phase
    simplex with Bland's rule, so it terminates on every input; feasibility
    is classified at absolute tolerance 1e-9.
    """
    c = np.asarray(c, dtype=float).ravel()
    nvar = c.size
    A_ub = np.zeros((0, nvar)) if A_ub is None else _reference_matrix(A_ub)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    A_eq = np.zeros((0, nvar)) if A_eq is None else _reference_matrix(A_eq)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    if A_ub.shape != (b_ub.size, nvar):
        raise ValueError("A_ub/b_ub dimensions do not match c")
    if A_eq.shape != (b_eq.size, nvar):
        raise ValueError("A_eq/b_eq dimensions do not match c")
    if bounds is None:
        bounds = [(None, None)] * nvar
    if len(bounds) != nvar:
        raise ValueError("bounds must list one (lo, hi) pair per variable")

    # substitute x_j = offset_j + sum of signed standard columns (z >= 0)
    offsets = np.zeros(nvar)
    col_of: list[list[tuple[int, float]]] = []
    range_rows: list[tuple[int, float]] = []  # (column, upper bound) for two-sided bounds
    ncols = 0
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None and hi is not None:
            if lo > hi:
                return LpResult("infeasible", None, None)
            offsets[j] = lo
            col_of.append([(ncols, 1.0)])
            range_rows.append((ncols, hi - lo))
            ncols += 1
        elif lo is not None:
            offsets[j] = lo
            col_of.append([(ncols, 1.0)])
            ncols += 1
        elif hi is not None:
            offsets[j] = hi
            col_of.append([(ncols, -1.0)])
            ncols += 1
        else:
            col_of.append([(ncols, 1.0), (ncols + 1, -1.0)])
            ncols += 2

    def to_std(rows: np.ndarray) -> np.ndarray:
        out = np.zeros((rows.shape[0], ncols))
        for j in range(nvar):
            col = rows[:, j]
            for k, coeff in col_of[j]:
                out[:, k] += coeff * col
        return out

    ub_rows = to_std(A_ub)
    ub_rhs = b_ub - A_ub @ offsets
    for k, ub in range_rows:
        row = np.zeros(ncols)
        row[k] = 1.0
        ub_rows = np.vstack([ub_rows, row])
        ub_rhs = np.append(ub_rhs, ub)
    eq_rows = to_std(A_eq)
    eq_rhs = b_eq - A_eq @ offsets
    c_std = to_std(c.reshape(1, -1)).ravel()

    n_ub = ub_rows.shape[0]
    n_eq = eq_rows.shape[0]
    mrows = n_ub + n_eq
    nslack = n_ub
    ntot = ncols + nslack  # artificials appended after these
    A = np.zeros((mrows, ntot + mrows))
    rhs = np.concatenate([ub_rhs, eq_rhs])
    A[:n_ub, :ncols] = ub_rows
    A[n_ub:, :ncols] = eq_rows
    for i in range(nslack):
        A[i, ncols + i] = 1.0
    for i in range(mrows):
        if rhs[i] < 0.0:
            A[i] = -A[i]
            rhs[i] = -rhs[i]
        A[i, ntot + i] = 1.0

    T = np.zeros((mrows + 1, ntot + mrows + 1))
    T[:mrows, :-1] = A
    T[:mrows, -1] = rhs
    basis = [ntot + i for i in range(mrows)]
    # phase-1 objective: sum of artificials, expressed in the artificial basis
    for i in range(mrows):
        T[-1, :] -= T[i, :]
    T[-1, ntot:-1] += 1.0
    _simplex_phase(T, basis, ntot, LP_TOL)
    if T[-1, -1] < -LP_TOL:  # tableau stores -objective
        return LpResult("infeasible", None, None)

    # drive leftover artificial basics out, dropping redundant rows
    keep = []
    for i in range(mrows):
        if basis[i] >= ntot:
            pivot_col = -1
            for j in range(ntot):
                if abs(T[i, j]) > LP_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue  # redundant constraint row
            _pivot(T, basis, i, pivot_col)
        keep.append(i)
    basis = [basis[i] for i in keep]
    mrows = len(basis)

    T2 = np.zeros((mrows + 1, ntot + 1))
    T2[:mrows, :ntot] = T[keep][:, :ntot]
    T2[:mrows, -1] = T[keep][:, -1]
    cost = np.zeros(ntot)
    cost[:ncols] = c_std
    T2[-1, :ntot] = cost
    for i in range(mrows):
        if cost[basis[i]] != 0.0:
            T2[-1, :] -= cost[basis[i]] * T2[i, :]
    status = _simplex_phase(T2, basis, ntot, LP_TOL)
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    z = np.zeros(ntot)
    for i in range(mrows):
        z[basis[i]] = T2[i, -1]
    x = offsets.copy()
    for j in range(nvar):
        for k, coeff in col_of[j]:
            x[j] += coeff * z[k]
    return LpResult("optimal", x, float(c @ x))


def box_maxima(A_ub, A_eq):
    """Maximize each coordinate, with either sign, over
    {z : A_ub z <= 0, A_eq z = 0} intersected with [-1, 1]^q.

    Yields one ``reference_simplex_lp`` result per coordinate and sign, in
    that order, and solves each LP only when it is asked for.  The value of
    each result is minus the maximum.  A nonzero member of the cone scaled
    to unit infinity norm reaches 1 in some coordinate, so the cone is {0}
    exactly when every maximum is 0.
    """
    q = A_ub.shape[1]
    for j in range(q):
        for sign in (1.0, -1.0):
            c = np.zeros(q)
            c[j] = -sign
            yield reference_simplex_lp(
                c,
                A_ub=A_ub,
                b_ub=np.zeros(A_ub.shape[0]),
                A_eq=A_eq,
                b_eq=np.zeros(A_eq.shape[0]),
                bounds=[(-1.0, 1.0)] * q,
            )


def zero_cone_oracle(cone):
    """True when the cone is {0} by the box-maxima LPs.

    This is the {0} test that ``cones`` ran before its NNLS
    certificate: each coordinate is maximized, with either sign, over the
    cone cut by [-1, 1]^n (``box_maxima``), and the cone is {0} exactly
    when every maximum is 0 (at 1e-6).  Any LP that does not solve leaves
    the cone uncertified.
    """
    return all(
        res.status == "optimal" and -res.value <= 1e-6
        for res in box_maxima(cone.a_in, cone.a_eq)
    )


def eigenspace_box_oracle(B, w, V, A_rest, tol):
    """``cones._feasible_in_eigenspace`` as it searched a repeated
    eigenvalue's eigenspace before its NNLS projections: eigh's signed
    basis vectors first, then the box maxima (``box_maxima``) over the
    eigenspace, each normalized and re-checked against the rows.
    """
    spread = 1e-10 * max(1.0, float(np.abs(w).max()))
    cluster = int(np.count_nonzero(w <= w[0] + spread))
    for idx in range(cluster):
        for sign in (1.0, -1.0):
            d = sign * (B @ V[:, idx])
            if A_rest.shape[0] and float((A_rest @ d).max()) > tol:
                continue
            return d
    if cluster == 1 or A_rest.shape[0] == 0:
        return None
    E = B @ V[:, :cluster]
    for res in box_maxima(A_rest @ E, np.zeros((0, cluster))):
        if res.status != "optimal" or res.x is None:
            continue
        nz = float(np.linalg.norm(res.x))
        if -res.value > 1e-6 and nz > 1e-9:
            d = E @ (res.x / nz)
            if float((A_rest @ d).max()) <= tol:
                return d
    return None


def multiplier_enumeration_oracle(pd):
    """The multiplier polyhedron by the one-subset-at-a-time loop.

    This is ``kkt.solve_multipliers`` as it ran before the subsets shared
    stacked SVDs: for each zero-mask, in mask order, its own nullspace basis
    and, with a trivial nullspace, its own least-squares solve, every
    cutoff at ``tol = pd.tol.rank``.  No subset is skipped or screened.  It
    reuses the library's probe, deduplication and result type, and its KKT
    rule: the enumeration decides, and the probe only where the enumeration
    does not run or finds no vertex.  So a correct stacked enumeration must
    reproduce it bit for bit.
    """
    from nlpcheck.kkt import _ENUM_LIMIT, MultiplierSet, _dedup_sorted
    from nlpcheck.linalg import nnls, nullspace_basis

    act, rows, tol = pd.active, pd.rows, pd.tol.rank
    a, p = len(act), pd.p
    cols = pd.c_grads[rows].T.copy()
    y_probe, _ = nnls(cols, pd.f_grad, np.array([True] * a + [False] * p, dtype=bool))
    residual = float(np.abs(cols @ y_probe + pd.f_grad).max(initial=0.0))

    def expand(y):
        full = np.zeros(pd.m + p)
        full[rows] = y
        return full

    def split(full):
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
    vertex_raw, ray_raw, misses = [], [], []
    for zero_mask in range(1 << a):
        keep = [k for k in range(a) if not (zero_mask >> k & 1)] + list(range(a, a + p))
        sub = cols[:, keep]
        if not keep:
            if float(np.abs(rhs).max(initial=0.0)) <= tol:
                vertex_raw.append(expand(np.zeros(a + p)))
                misses.append(float(np.abs(rhs).max(initial=0.0)))
            continue
        null = nullspace_basis(sub, tol)
        if null.shape[1] == 0:
            y_sub, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
            miss = float(np.abs(sub @ y_sub - rhs).max(initial=0.0))
            if miss <= tol:
                y = np.zeros(a + p)
                y[keep] = y_sub
                if not (y[:a] < -1e-12).any():
                    vertex_raw.append(expand(y))
                    misses.append(miss)
        if null.shape[1] == 1:
            w = np.zeros(a + p)
            w[keep] = null[:, 0]
            for sign in (1.0, -1.0):
                cand = sign * w
                if not (cand[:a] < -1e-12).any():
                    norm = float(np.linalg.norm(cand))
                    if norm > 1e-12:
                        ray_raw.append(expand(cand / norm))
    if not vertex_raw and residual > tol:
        ms.note = unsolved
        return ms
    ms.vertices = [split(v) for v in _dedup_sorted(vertex_raw)]
    ms.rays = [split(r) for r in _dedup_sorted(ray_raw)]
    ms.bounded = not ms.rays
    if residual > tol and misses:
        ms.residual = min(misses)
    if not ms.vertices:
        ms.vertices = [split(expand(y_probe))]
        ms.partial = True
        ms.note = (
            "no vertex found (multiplier set has a lineality space); "
            "least-squares representative reported"
        )
    return ms


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, as written in the source (x1, x2, ...)


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "sin" | "cos" | "exp" | "log" | "sqrt"
    arg: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str  # "add" | "sub" | "mul" | "div"
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Power:
    base: "Expression"
    exponent: int  # non-negative integer


Expression = Union[Const, Var, Unary, Binary, Power]

_BINOP_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def reference_to_source(e):
    """Print a tree by an iterative walk, so trees of any depth print.

    Binary operations are fully parenthesized, so the result parses back
    to the same operations at any depth.  Negative constants (possible
    only in hand-built trees, the parser never produces them) print as
    negated positive literals.
    """
    parts = []
    stack = [e]  # nodes still to print and literal text, last first
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Const):
            parts.append(f"(-{-item.value!r})" if item.value < 0 else repr(item.value))
        elif isinstance(item, Var):
            parts.append(f"x{item.index}")
        elif isinstance(item, Unary):
            head = "(-" if item.op == "neg" else f"{item.op}("
            stack.extend((")", item.arg, head))
        elif isinstance(item, Binary):
            stack.extend((")", item.right, f" {_BINOP_SYMBOL[item.op]} ", item.left, "("))
        elif isinstance(item, Power):
            base = item.base
            if isinstance(base, Var) or (isinstance(base, Const) and not base.value < 0):
                stack.extend((f"^{item.exponent}", base))
            else:
                stack.extend((f")^{item.exponent}", base, "("))
        else:
            raise TypeError(f"not an expression node: {item!r}")
    return "".join(parts)


class _RecursiveDescentParser:
    """The recursive-descent parser the one-loop ``expr.parse`` replaced:
    one method per grammar rule, reading ``expr._tokenize``'s tokens."""

    def __init__(self, tokens, n):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        from nlpcheck.expr import ParseError

        kind, payload, off = self.peek()
        if kind != "op" or payload != symbol:
            raise ParseError(f"expected '{symbol}'", off)
        self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, payload, _ = self.peek()
            if kind == "op" and payload in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Binary("add" if payload == "+" else "sub", node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, payload, _ = self.peek()
            if kind == "op" and payload in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = Binary("mul" if payload == "*" else "div", node, rhs)
            else:
                return node

    def parse_factor(self):
        kind, payload, _ = self.peek()
        if kind == "op" and payload == "-":
            self.advance()
            return Unary("neg", self.parse_power())
        return self.parse_power()

    def parse_power(self):
        from nlpcheck.expr import _MAX_EXPONENT, ParseError

        base = self.parse_atom()
        kind, payload, _ = self.peek()
        if kind == "op" and payload == "^":
            self.advance()
            kind, payload, off = self.peek()
            if kind == "op" and payload == "-":
                raise ParseError("negative integer exponent not allowed", off)
            if kind != "num":
                raise ParseError("integer exponent expected after '^'", off)
            value, text = payload
            if any(c in text for c in ".eE"):
                raise ParseError("exponent must be an integer literal", off)
            exponent = int(text)
            if exponent > _MAX_EXPONENT:
                raise ParseError(
                    f"integer exponent {exponent} exceeds the limit {_MAX_EXPONENT}", off
                )
            self.advance()
            return Power(base, exponent)
        return base

    def parse_atom(self):
        from nlpcheck.expr import ParseError

        kind, payload, off = self.advance()
        if kind == "num":
            value, _ = payload
            return Const(value)
        if kind == "var":
            index = int(payload)
            if index == 0:
                raise ParseError("variable index 0 (variables are x1..xn)", off)
            if index > self.n:
                raise ParseError(
                    f"variable x{index} exceeds declared dimension {self.n}", off
                )
            return Var(index)
        if kind == "func":
            self.expect_op("(")
            inner = self.parse_expr()
            self.expect_op(")")
            return Unary(str(payload), inner)
        if kind == "op" and payload == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, variable, function, or '('", off)


def reference_parse(source, n):
    """Parse ``source`` by recursive descent; Python's stack bounds the
    depth, so callers keep their inputs shallow."""
    from nlpcheck.expr import ParseError, _tokenize

    parser = _RecursiveDescentParser(_tokenize(source), n)
    node = parser.parse_expr()
    kind, _, off = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", off)
    return node


def reference_rows(problem):
    """The trees of ``problem.sweep``'s outputs, by ``reference_parse`` of
    ``problem.source``: one per constraint row (the inequalities, then the
    equalities, each in file order), then the objective."""
    lines = {"ineq": [], "eq": [], "objective": []}
    for raw in problem.source.splitlines():
        parts = raw.split("#", 1)[0].split(None, 1)
        if parts and parts[0] in lines:
            lines[parts[0]].append(reference_parse(parts[1], problem.n))
    return lines["ineq"] + lines["eq"] + lines["objective"]


@dataclass
class RefJet:
    """(value, gradient, Hessian) with the second-order propagation rules of
    the recursive interpreter: each update is built from explicitly
    symmetric pieces, so Hessians stay symmetric to the last bit."""

    value: float
    grad: np.ndarray
    hess: np.ndarray

    @staticmethod
    def constant(value, n):
        return RefJet(float(value), np.zeros(n), np.zeros((n, n)))

    @staticmethod
    def variable(i0, value, n):
        grad = np.zeros(n)
        grad[i0] = 1.0
        return RefJet(float(value), grad, np.zeros((n, n)))

    def __add__(self, other):
        return RefJet(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    def __sub__(self, other):
        return RefJet(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __neg__(self):
        return RefJet(-self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        cross = np.outer(self.grad, other.grad)
        cross = cross + cross.T
        return RefJet(
            self.value * other.value,
            self.value * other.grad + other.value * self.grad,
            (self.value * other.hess + other.value * self.hess) + cross,
        )

    def __truediv__(self, other):
        w = other.value
        value = self.value / w
        grad = (self.grad - value * other.grad) / w
        cross = np.outer(grad, other.grad)
        cross = cross + cross.T
        hess = ((self.hess - value * other.hess) - cross) / w
        return RefJet(value, grad, hess)

    def lift(self, f0, f1, f2):
        return RefJet(f0, f1 * self.grad, f1 * self.hess + f2 * np.outer(self.grad, self.grad))


class RefDomainError(Exception):
    """The reference interpreter left a function's domain (exp overflow included)."""


def _ref_exp(v):
    try:
        return math.exp(v)
    except OverflowError:
        raise RefDomainError(f"exp overflows at {v!r}") from None


def reference_evaluate(e, x):
    """Value of an expression tree by recursion, the pre-tape ``_eval``."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x[e.index - 1])
    if isinstance(e, Unary):
        v = reference_evaluate(e.arg, x)
        if e.op == "neg":
            return -v
        if e.op == "exp":
            return _ref_exp(v)
        if e.op == "log":
            if v <= 0.0:
                raise RefDomainError("log")
            return math.log(v)
        if e.op == "sqrt":
            if v < 0.0:
                raise RefDomainError("sqrt")
            return math.sqrt(v)
        return {"sin": math.sin, "cos": math.cos}[e.op](v)
    if isinstance(e, Binary):
        u = reference_evaluate(e.left, x)
        w = reference_evaluate(e.right, x)
        if e.op == "div":
            if w == 0.0:
                raise RefDomainError("division by zero")
            return u / w
        return {"add": u + w, "sub": u - w, "mul": u * w}[e.op]
    if isinstance(e, Power):
        v = reference_evaluate(e.base, x)
        out = 1.0
        for _ in range(e.exponent):
            out *= v
        return out
    raise TypeError(f"not an expression node: {e!r}")


def reference_grad_hess(e, x):
    """RefJet of an expression tree by recursion, the pre-tape ``_ad``."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if isinstance(e, Const):
        return RefJet.constant(e.value, n)
    if isinstance(e, Var):
        return RefJet.variable(e.index - 1, x[e.index - 1], n)
    if isinstance(e, Unary):
        u = reference_grad_hess(e.arg, x)
        v = u.value
        if e.op == "neg":
            return -u
        if e.op == "sin":
            return u.lift(math.sin(v), math.cos(v), -math.sin(v))
        if e.op == "cos":
            return u.lift(math.cos(v), -math.sin(v), -math.cos(v))
        if e.op == "exp":
            ev = _ref_exp(v)
            return u.lift(ev, ev, ev)
        if e.op == "log":
            if v <= 0.0:
                raise RefDomainError("log")
            return u.lift(math.log(v), 1.0 / v, -1.0 / (v * v))
        if e.op == "sqrt":
            if v <= 0.0:
                raise RefDomainError("sqrt")
            s = math.sqrt(v)
            return u.lift(s, 0.5 / s, -0.25 / (s * v))
        raise TypeError(f"unknown unary op {e.op!r}")
    if isinstance(e, Binary):
        u = reference_grad_hess(e.left, x)
        w = reference_grad_hess(e.right, x)
        if e.op == "div":
            if w.value == 0.0:
                raise RefDomainError("division by zero")
            return u / w
        return {"add": RefJet.__add__, "sub": RefJet.__sub__, "mul": RefJet.__mul__}[e.op](u, w)
    if isinstance(e, Power):
        u = reference_grad_hess(e.base, x)
        out = RefJet.constant(1.0, n)
        for _ in range(e.exponent):
            out = out * u
        return out
    raise TypeError(f"not an expression node: {e!r}")


def reference_sweep(e, x, order):
    """Run the expression ``e`` forward once at the point ``x``, one node
    at a time, by a recursion in post-order (left operand, right operand,
    node); return the root's (value, gradient, Hessian), entries past
    ``order`` None.

    Each node takes the floating-point operations of the sweep, in its
    order (see the ``nlpcheck.expr`` module docstring); derivatives past
    ``order`` are carried along but never decide a value or a failure.  A
    domain failure raises the ``DomainError`` of the first failing node in
    post-order; an overflow reaches the caller as inf.
    """
    from nlpcheck.expr import _UNARY_CODE, DomainError, _elementary

    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    xs, zero_g, unit, zero_h = x.tolist(), np.zeros(n), np.eye(n), np.zeros((n, n))

    def sweep(e):
        if isinstance(e, Var):
            return xs[e.index - 1], unit[e.index - 1], zero_h
        if isinstance(e, Const):
            return float(e.value), zero_g, zero_h
        if isinstance(e, Power):
            # repeated multiplications of the constant 1 by the base; the
            # zero-gradient terms of the first product set signs of zeros
            u, ug, uh = sweep(e.base)
            v, g, h = 1.0, zero_g, zero_h
            for _ in range(e.exponent):
                cross = np.outer(g, ug)
                v, g, h = v * u, v * ug + u * g, (v * uh + u * h) + (cross + cross.T)
            return v, g, h
        if isinstance(e, Unary):
            u, ug, uh = sweep(e.arg)
            if e.op == "neg":
                return -u, -ug, -uh
            v, f1, f2 = _elementary(_UNARY_CODE[e.op], u, order)
            return v, f1 * ug, f1 * uh + f2 * np.outer(ug, ug)
        assert isinstance(e, Binary)
        u, ug, uh = sweep(e.left)
        w, wg, wh = sweep(e.right)
        if e.op == "add":
            return u + w, ug + wg, uh + wh
        if e.op == "sub":
            return u - w, ug - wg, uh - wh
        if e.op == "mul":
            cross = np.outer(ug, wg)
            return u * w, u * wg + w * ug, (u * wh + w * uh) + (cross + cross.T)
        if w == 0.0:
            raise DomainError("division by zero")
        v = u / w
        g = (ug - v * wg) / w
        cross = np.outer(g, wg)
        return v, g, ((uh - v * wh) - (cross + cross.T)) / w

    with np.errstate(all="ignore"):
        v, g, h = sweep(e)
    return v, g if order else None, h if order == 2 else None


def _chart_fun_jac(problem, chart):
    """c(x) and c'(x) of a chart by one-point reference sweeps, row by row."""
    trees = reference_rows(problem)
    rows = [trees[chart.components[i]] for i in chart.xi]
    keep = list(chart.keep_vars)
    n = chart.n
    r = len(rows)

    def fun_jac(x):
        F = np.zeros(n)
        J = np.zeros((n, n))
        for row, e in enumerate(rows):
            F[row], J[row], _ = reference_sweep(e, x, 1)
        for row, k in enumerate(keep):
            F[r + row] = x[k]
            J[r + row, k] = 1.0
        return F, J

    return fun_jac


def reference_newton(fun_jac, start, target, tol=1e-12):
    """Solve ``F(x) = target`` for one system by damped Newton steps.

    ``start`` is an evaluated point ``(x, F(x), J(x))`` and ``fun_jac(x)``
    returns ``(F, J)``, raising ``DomainError`` outside the domain.  Full
    steps are halved (up to 30 times) until the max-norm residual
    decreases; a point outside the domain counts as an increase.  Returns
    the evaluated triple at the solution, or raises the ``NewtonError``
    that ``linalg.newton_batch`` records for the system.
    """
    from nlpcheck.expr import DomainError
    from nlpcheck.linalg import NewtonConvergenceError, SingularJacobianError

    x, F, J = start
    target = np.asarray(target, dtype=float)
    res = float(np.abs(F - target).max(initial=0.0))
    for _ in range(50):
        if res <= tol:
            return x, F, J
        try:
            step = np.linalg.solve(J, target - F)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"singular Jacobian at iterate (residual {res:.3e})") from exc
        if not np.isfinite(step).all():
            raise SingularJacobianError("non-finite Newton step")
        alpha = 1.0
        for _halving in range(30):
            x_new = x + alpha * step
            try:
                F_new, J_new = fun_jac(x_new)
            except DomainError:
                alpha *= 0.5
                continue
            res_new = float(np.abs(F_new - target).max(initial=0.0))
            if res_new < res or res_new <= tol:
                x, F, J, res = x_new, F_new, J_new, res_new
                break
            alpha *= 0.5
        else:
            raise NewtonConvergenceError(f"no descent after 30 halvings (residual {res:.3e})", x, res)
    if res <= tol:
        return x, F, J
    raise NewtonConvergenceError(f"no convergence in 50 iterations (residual {res:.3e})", x, res)


def sequential_trace_arc(problem, chart, d, delta, samples=41, newton_tol=1e-12):
    """One arc marched side by side with one Newton solve at a time, every
    constraint value taken by a one-point ``reference_sweep``."""
    from nlpcheck.arc import ArcResult
    from nlpcheck.expr import DomainError
    from nlpcheck.linalg import NewtonError

    x = chart.center
    d = np.asarray(d, dtype=float).ravel()
    half = (samples - 1) // 2
    fun_jac = _chart_fun_jac(problem, chart)
    step_z = chart.jac_center @ d
    m, p = problem.m, problem.p
    trees = reference_rows(problem)

    def constraint_values(pt):
        g = np.array([reference_sweep(e, pt, 0)[0] for e in trees[:m]]) if m else np.zeros(0)
        h = np.array([reference_sweep(e, pt, 0)[0] for e in trees[m:-1]]) if p else np.zeros(0)
        return g, h

    center_g, center_h = constraint_values(x)
    notes = []

    def march(side):
        out = []
        state = (x, chart.z_center, chart.jac_center)
        for k in range(1, half + 1):
            tk = side * delta * k / half
            target = chart.z_center + tk * step_z
            try:
                state = reference_newton(fun_jac, state, target, newton_tol)
                g, h = constraint_values(state[0])
            except (NewtonError, DomainError) as exc:
                notes.append(f"side {side:+d} truncated at sample {k} (t = {tk:.6g}): {exc}")
                break
            out.append((side * k, state[0], g, h))
        return out

    neg = march(-1)
    pos = march(+1)
    entries = sorted(neg + [(0, x.copy(), center_g, center_h)] + pos, key=lambda e: e[0])
    return ArcResult(
        t=np.array([delta * k / half for k, *_ in entries]),
        points=np.vstack([e[1] for e in entries]),
        g_values=np.vstack([e[2] for e in entries]) if m else np.zeros((len(entries), 0)),
        h_values=np.vstack([e[3] for e in entries]) if p else np.zeros((len(entries), 0)),
        delta=delta,
        direction=d.copy(),
        center=x.copy(),
        truncated=len(entries) < samples,
        note="; ".join(notes),
    )


def sequential_arc(problem, pd, d, delta=0.1, samples=41):
    """The arc one direction gets at the tolerances ``pd.tol``, traced alone
    and retraced at half delta (up to five times) while truncated; None
    where pinning or charting fails."""
    from nlpcheck.arc import DegenerateRankError, build_chart, pinned_constraints

    try:
        chart = build_chart(pd, pinned_constraints(pd, d))
    except (ValueError, DegenerateRankError):
        return None
    cur_delta = float(delta)
    for _ in range(6):
        arc = sequential_trace_arc(problem, chart, d, cur_delta, samples, pd.tol.newton)
        if not arc.truncated:
            break
        cur_delta *= 0.5
    return arc


def _reference_json_scalar(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return '"NaN"'
        if math.isinf(x):
            return '"Infinity"' if x > 0 else '"-Infinity"'
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    return None


def _reference_write_json(obj, indent, out):
    pad = "  " * indent
    scalar = _reference_json_scalar(obj)
    if scalar is not None:
        out.append(scalar)
        return
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for k, (key, value) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(key)) + ": ")
            _reference_write_json(value, indent + 1, out)
            out.append(",\n" if k + 1 < len(items) else "\n")
        out.append(pad + "}")
        return
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        scalars = [_reference_json_scalar(v) for v in seq]
        if None not in scalars:
            out.append("[" + ", ".join(scalars) + "]")
            return
        out.append("[\n")
        for k, value in enumerate(seq):
            out.append(pad + "  ")
            _reference_write_json(value, indent + 1, out)
            out.append(",\n" if k + 1 < len(seq) else "\n")
        out.append(pad + "]")
        return
    raise TypeError(f"cannot serialize {type(obj).__name__} to the report")


def reference_report_to_json(report):
    out = []
    _reference_write_json(report, 0, out)
    out.append("\n")
    return "".join(out)


def fd_grad_hess(sweep, x, step=1e-4):
    """Central finite-difference gradient and Hessian of output 0 of
    ``sweep``, O(step^2) accurate.

    Independent of the propagated derivatives (it sweeps values only); used
    to cross-check ``expr.grad_hess``.  If a stencil point leaves the domain
    of the expression, the ``DomainError`` of the first such point (the
    point, then the single steps, then the pairs) propagates.
    """
    from nlpcheck.expr import Taylor2Scalar

    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    n = x.size
    # the stencil: x, x +- step e_i, then x +- step e_i +- step e_j (i < j)
    moves = [()] + [((i, s),) for i in range(n) for s in (step, -step)]
    moves += [
        ((i, si), (j, sj))
        for i in range(n)
        for j in range(i + 1, n)
        for si, sj in ((step, step), (step, -step), (-step, step), (-step, -step))
    ]
    X = np.repeat(x[None], len(moves), axis=0)
    for r, move in enumerate(moves):
        for i, s in move:
            X[r, i] += s
    values, _, _, ok = sweep.evaluate(X, [0], order=0)
    if not ok.all():
        sweep.at(X[np.argmin(ok[:, 0])], [0], order=0)  # raises that point's error
    v = values[:, 0]
    f0 = float(v[0])
    plus, minus = v[1 : 2 * n + 1 : 2], v[2 : 2 * n + 1 : 2]
    grad = (plus - minus) / (2.0 * step)
    hess = np.diag((plus - 2.0 * f0 + minus) / (step * step))
    corner = v[2 * n + 1 :].reshape(-1, 4)
    mixed = (corner[:, 0] - corner[:, 1] - corner[:, 2] + corner[:, 3]) / (4.0 * step * step)
    upper = np.triu_indices(n, 1)
    hess[upper] = mixed
    hess[upper[::-1]] = mixed
    return Taylor2Scalar(f0, grad, hess)


def check_kkt(pd, mu, lam, tol=1e-8):
    """KKT residual of a proposed multiplier pair, and whether it is at
    most ``tol``.

    The residual is the max of the stationarity infinity-norm, the worst
    negative-mu violation, and the worst complementarity product
    ``|mu_i g_i(x)|``.
    """
    from nlpcheck.model import check_multiplier

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


def critical_cone_multiplier_form(pd, mu, tol=1e-8):
    """Critical cone written through a multiplier: strictly positive
    multipliers pin their constraints to equalities.  At a KKT multiplier
    it is the set ``cones.strong_critical_cone`` describes.

    ``mu`` must be the inequality part of a KKT multiplier at the point: it
    is validated for sign and complementarity at ``tol``
    (``model.check_multiplier``) and for stationarity (minimizing over the
    equality multiplier), and rejected above ``tol``.
    """
    from nlpcheck.cones import ConeRep
    from nlpcheck.model import check_multiplier

    mu, _ = check_multiplier(pd, mu, np.zeros(pd.p), tol)  # lam is solved for below
    a = len(pd.active)
    rows = pd.c_grads[pd.rows]
    base = pd.f_grad + (mu @ pd.c_grads[: pd.m] if pd.m else 0.0)
    if pd.p:
        lam, *_ = np.linalg.lstsq(rows[a:].T, -base, rcond=None)
        residual = float(np.abs(base + rows[a:].T @ lam).max(initial=0.0))
    else:
        residual = float(np.abs(base).max(initial=0.0))
    if residual > tol:
        raise ValueError(
            f"mu is not part of a KKT multiplier (stationarity residual {residual:.3e})"
        )
    # strict-multiplier threshold: anything above 1e-10 counts as positive
    positive = mu[pd.rows[:a]] > 1e-10
    a_eq = np.vstack([rows[a:], rows[:a][positive]])
    return ConeRep(pd.n, a_eq, rows[:a][~positive])
