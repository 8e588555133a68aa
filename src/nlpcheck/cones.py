"""Polyhedral cones attached to a candidate point.

The linearized cone at a feasible point collects the first-order feasible
directions: active inequality gradients impose ``a . d <= 0`` and equality
gradients impose ``a . d = 0``.  The strong critical cone additionally
requires the objective not to increase to first order.  Both are stored as
row systems over the constraint rows of :class:`~nlpcheck.model.PointData`.

The central computation here is minimizing a quadratic form over such a
cone.  Scaling ``d`` by ``t > 0`` scales ``d^T H d`` by ``t^2``, so the sign
of the minimum is decided on unit vectors.  A constrained minimizer on the
cone is an eigenvector of the Hessian restricted to the span of the face it
lies on, so enumerating faces (subsets of inequality rows turned into
equalities) and solving a small symmetric eigenproblem per face certifies
the global minimum whenever the face count is tractable.  When the
smallest eigenvalue is repeated, its eigenspace is searched by projecting
onto the wedge the remaining rows cut out of it, one non-negative
least-squares solve per projection, so that solver is the one polyhedral
primitive here.  A cone without inequality rows is a subspace with a
single face.  The faces depend only on the cone, so several forms over one
cone (one per multiplier in the second-order check) share a single
enumeration, whose faces share their LAPACK calls as
:func:`min_quadratics_on_cone` describes; each form's minimum is still the
one a loop over one face at a time selects, to the bit.  A form with a
non-finite entry is not minimized.

Before any face, one test decides whether the cone is {0}: a rank gate,
then one non-negative least-squares solve for a positive dependence of the
rows (Stiemke's alternative), re-checked by its residual.  A {0} cone gives
every form the certified minimum 0 (``"zero-cone"``).  When its certificate
also has a margin over the face loop's tolerances, which proves that no
face could yield, the faces are skipped; otherwise they are walked as
usual, and the test's verdict settles only the forms that no face yields
for, and every form when the inequality rows are too many to enumerate.
A nonzero cone is then reported ``"uncertified"``: nothing short of the
face enumeration certifies its minimum, and an uncertified value could
change no second-order verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nlpcheck.linalg import (
    grouped_nullspace_bases,
    nnls,
    nullspace_basis,
    numerical_rank,
    stack_chunk,
)
from nlpcheck.model import PointData, Tolerances

__all__ = [
    "ConeRep",
    "linearized_cone",
    "strong_critical_cone",
    "membership",
    "sample_directions",
    "QuadOnConeResult",
    "min_quadratic_on_cone",
    "min_quadratics_on_cone",
]

_FACIAL_LIMIT = 16  # most inequality rows whose 2^k_in faces are enumerated
_TOL = 1e-8  # how far an eigenvector may violate the remaining rows


@dataclass
class ConeRep:
    """Cone {d : a_eq @ d = 0, a_in @ d <= 0}.

    The rows are constraint gradients taken in the order of ``pd.rows``; the
    strong critical cone appends the objective gradient as its last
    ``a_in`` row.  ``tol`` is the tolerance record of the point data.
    """

    n: int
    a_eq: np.ndarray  # (k_eq, n)
    a_in: np.ndarray  # (k_in, n)
    tol: Tolerances = Tolerances()


def linearized_cone(pd: PointData) -> ConeRep:
    """First-order feasible directions at the evaluated point."""
    a = len(pd.active)
    return ConeRep(pd.n, pd.c_grads[pd.rows[a:]], pd.c_grads[pd.rows[:a]], pd.tol)


def strong_critical_cone(pd: PointData) -> ConeRep:
    """Linearized cone intersected with {d : f_grad . d <= 0}."""
    base = linearized_cone(pd)
    return ConeRep(pd.n, base.a_eq, np.vstack([base.a_in, pd.f_grad.reshape(1, -1)]), pd.tol)


def membership(cone: ConeRep, d) -> bool:
    """Test ``d`` against the cone rows at scale ``tol.direction * (1 + ||d||)``."""
    d = np.asarray(d, dtype=float).ravel()
    if d.size != cone.n:
        raise ValueError(f"direction must have length {cone.n}")
    scale = cone.tol.direction * (1.0 + float(np.linalg.norm(d)))
    if cone.a_eq.shape[0] and float(np.abs(cone.a_eq @ d).max()) > scale:
        return False
    if cone.a_in.shape[0] and float((cone.a_in @ d).max()) > scale:
        return False
    return True


def _project_into_rows(z: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Cyclic projection of ``z`` onto {z : R z <= 0} (most-violated row
    first, at most 80 steps)."""
    if R.shape[0] == 0:
        return z
    for _ in range(80):
        v = R @ z
        worst = int(np.argmax(v))
        if v[worst] <= 1e-15:
            return z
        row = R[worst]
        nr2 = float(row @ row)
        if nr2 <= 1e-30:
            return z
        z = z - (v[worst] / nr2) * row
    return z


def sample_directions(cone: ConeRep, count: int, seed: int) -> list[np.ndarray]:
    """Sample up to ``count`` unit directions from the cone, deterministically.

    Gaussian draws in the nullspace of the equality rows (at
    ``cone.tol.rank``) are pushed into the inequality system by cyclic
    projection; draws that fail :func:`membership` after projection are
    discarded.  Duplicates are allowed.  Returns fewer than
    ``count`` vectors (possibly none) when the cone has no nonzero members
    reachable at the sampling tolerance.
    """
    if count <= 0:
        return []
    rng = np.random.default_rng(seed)
    B = nullspace_basis(cone.a_eq if len(cone.a_eq) else np.zeros((0, cone.n)), cone.tol.rank)
    k = B.shape[1]
    if k == 0:
        return []
    R = cone.a_in @ B if cone.a_in.shape[0] else np.zeros((0, k))
    out: list[np.ndarray] = []
    tries = 0
    max_tries = max(50, 40 * count)
    while len(out) < count and tries < max_tries:
        tries += 1
        z = rng.standard_normal(k)
        nz = float(np.linalg.norm(z))
        if nz < 1e-12:
            continue
        z = _project_into_rows(z / nz, R)
        nz = float(np.linalg.norm(z))
        if nz < 1e-10:
            continue
        d = B @ (z / nz)
        if membership(cone, d):
            out.append(d)
    return out


@dataclass
class QuadOnConeResult:
    """Minimum of d^T H d over unit cone members, with the method used.

    ``"facial-enumeration"`` and ``"zero-cone"`` (a cone certified to be
    {0} by the NNLS test, where the form vanishes identically) are
    certified.  A nonzero cone with more than ``_FACIAL_LIMIT`` inequality
    rows, or one where no face yields a feasible eigenvector, gives
    ``"uncertified"``: ``min_value`` 0 at the zero witness, which carries
    no information about the minimum.
    """

    min_value: float
    witness: np.ndarray
    method: str  # "facial-enumeration" | "zero-cone" | "uncertified"
    certified: bool


def _zero_cone_reach(cone: ConeRep) -> tuple[float, float]:
    """The {0} test: ``(reach, sigma_max)``, where ``sigma_max`` is the
    largest singular value of the rows ``[a_in; a_eq]`` (0, like ``reach``,
    when there are fewer than n rows).

    A positive ``reach`` proves that no unit ``d`` has ``a . d <= reach``
    on every inequality row and ``|a . d| <= reach`` on every equality row;
    in particular the cone is {0}.  By Stiemke's alternative a cone is {0}
    exactly when its rows have rank n (at ``cone.tol.rank``) and ``a_in.T @
    mu + a_eq.T @ lam = 0`` for some ``mu >= 1``.  Fewer than n rows, or a numerical rank below n,
    give ``reach`` 0 at once.  Otherwise one :func:`~nlpcheck.linalg.nnls`
    call minimizes ``||a_in.T @ (1 + nu) + a_eq.T @ lam||`` over ``nu >= 0``,
    and the certificate ``mu = 1 + nu`` is checked by its residual ``r``
    (``nnls`` may stop at its best iterate, so nothing is taken on trust).
    For such a ``d``, ``mu . (a_in d) + lam . (a_eq d) = r . d`` and
    ``mu >= 1`` bound every ``|a . d|`` by ``(1 + |mu|_1 + |lam|_1) reach +
    ||r||``, so ``||[a_in; a_eq] d|| <= sigma_min / 2`` when ``reach`` is
    ``(sigma_min / (2 sqrt(rows)) - ||r||) / (1 + |mu|_1 + |lam|_1)``, and no
    unit ``d`` gets that far; the factor 2 spares the rounding.  The rows
    are first scaled by a power of two, which changes neither the cone nor
    the certificate, so that ``nnls`` works at unit scale.
    """
    rows = np.vstack([cone.a_in, cone.a_eq])
    if not np.isfinite(rows).all():
        raise ValueError("matrix has non-finite entries")
    if rows.shape[0] < cone.n:
        return 0.0, 0.0
    exp = math.frexp(float(np.abs(rows).max()))[1]
    rows = np.ldexp(rows, -exp)
    info = numerical_rank(rows, cone.tol.rank)
    s_max = math.ldexp(float(info.magnitudes[0]), exp)
    if info.rank < cone.n:
        return 0.0, s_max
    k_in = cone.a_in.shape[0]
    mu, lam = np.ones(k_in), np.zeros(rows.shape[0] - k_in)
    if k_in:
        y, _ = nnls(rows.T, rows[:k_in].sum(axis=0), np.arange(rows.shape[0]) < k_in)
        mu += np.maximum(y[:k_in], 0.0)
        lam = y[k_in:]
    r = rows[:k_in].T @ mu + rows[k_in:].T @ lam
    room = float(info.magnitudes[-1]) / (2.0 * math.sqrt(rows.shape[0])) - float(np.linalg.norm(r))
    reach = room / (1.0 + float(mu.sum()) + float(np.abs(lam).sum()))
    return max(0.0, math.ldexp(reach, exp)), s_max


def _checked_form(H, n: int) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.shape != (n, n):
        raise ValueError(f"H must have shape ({n}, {n})")
    scale = max(1.0, float(np.abs(H).max(initial=0.0)))
    # a non-finite entry gives a NaN difference, which passes (such a form
    # gets the flat minimum); a difference past the float range fails
    with np.errstate(over="ignore", invalid="ignore"):
        if float(np.abs(H - H.T).max(initial=0.0)) > 1e-12 * scale:
            raise ValueError("H is not symmetric within 1e-12 relative")
    return H


def min_quadratic_on_cone(H, cone: ConeRep) -> QuadOnConeResult:
    """Minimize ``d^T H d`` over unit-norm members of the cone.

    The single-form case of :func:`min_quadratics_on_cone`.
    """
    return min_quadratics_on_cone([H], cone)[0]


def min_quadratics_on_cone(Hs, cone: ConeRep) -> list[QuadOnConeResult]:
    """Minimize each ``d^T H d`` over unit-norm members of the cone.

    The {0} test (:func:`_zero_cone_reach`) runs first.  When its ``reach``
    exceeds ``tau = max(_TOL, cone.tol.rank * sigma_max)``, every form gets
    the certified zero minimum and no face is walked.  That skips nothing
    the faces could give: a face's unit eigenvector is kept only if it
    meets every remaining inequality row at ``_TOL``, and it lies in the
    numerical nullspace of the pinned rows, cut at ``cone.tol.rank`` times
    their largest singular value, so ``a . d <= tau`` on every inequality
    row and ``|a . d| <= tau`` on every equality row, which a ``reach``
    above ``tau`` rules out for unit ``d``.  Without that margin the faces are
    walked first.

    With at most ``_FACIAL_LIMIT`` inequality rows every face is enumerated
    once for all forms: rows in the chosen subset become equalities, every
    form restricted to the resulting subspace is minimized by its smallest
    eigenpair, and the eigenvector (either sign) is kept if it satisfies the
    remaining inequalities at ``_TOL``.  A cone without inequality rows is a
    subspace, so its one face gives the exact minimum.  The faces are taken
    in mask order, in chunks (:func:`~nlpcheck.linalg.stack_chunk`) sized
    by their SVD's input and factors plus one float per form.  Within a
    chunk, faces with the same number of pinned rows share one stacked SVD
    (:func:`~nlpcheck.linalg.grouped_nullspace_bases`).  Each chunk is
    taken in mask order, in runs sized by every form's eigenpairs and
    temporaries on a face of dimension up to n, and one stacked call per
    basis dimension in a run gives every form's eigenpairs on those faces,
    once per distinct basis: faces whose bases have the same bits read one
    solve, which gives them the same eigenpairs bit for bit.  The dedupe
    stays within the run, so memory stays bounded by the run.  Each
    form then walks the run's faces whose lowest eigenvalue is below its
    running minimum, in mask order, with the eigenpairs that made them
    candidates.  A form is walked scaled by the power of two that brings
    its entries within ``float max / (4 n)``, so that its restricted forms
    and ``d @ H @ d`` stay finite, and its minimum is scaled back (-inf
    past the float range).  A form with a non-finite entry is not
    minimized.  Such a form, a form for which no face yields a feasible
    eigenvector, and every form beyond the limit, gets
    the certified zero minimum when the {0} test passed and an uncertified
    result otherwise.  Results are returned in the order of ``Hs``.  Forms
    with the same bits are scaled and walked once and share one
    :class:`QuadOnConeResult` object.
    """
    Hs = [_checked_form(H, cone.n) for H in Hs]
    if not Hs:
        return []
    reach, s_max = _zero_cone_reach(cone)
    zero = reach > 0.0
    if reach > max(_TOL, cone.tol.rank * s_max):
        # no face can yield a feasible eigenvector (see the docstring)
        return [_flat_minimum(cone.n, True) for _ in Hs]
    # equal forms, bit for bit, are walked once and share one result
    firsts, of = _distinct(Hs)
    forms = [Hs[q] for q in firsts]
    limit = np.finfo(float).max / (4 * cone.n)  # see the docstring
    tops = [float(np.abs(H).max()) for H in forms]
    minimized = [q for q, top in enumerate(tops) if math.isfinite(top)]
    # the power of two that brings each form under the limit
    shift = [math.frexp(tops[q] / limit)[1] if tops[q] > limit else 0 for q in minimized]
    scaled = [np.ldexp(forms[q], -s) for q, s in zip(minimized, shift)]
    best: list[QuadOnConeResult | None] = [None] * len(minimized)
    k_in = cone.a_in.shape[0]
    faces = 1 << k_in if k_in <= _FACIAL_LIMIT and minimized else 0
    # per face: the SVD's input and factors, and one float per form for its
    # row of the lowest-eigenvalue table
    rows = cone.a_eq.shape[0] + k_in
    chunk = stack_chunk((rows + cone.n) ** 2 + len(minimized))
    for start in range(0, faces, chunk):
        masks = np.arange(start, min(faces, start + chunk))
        _scan_faces(masks, cone, scaled, best)
    for res, s in zip(best, shift):
        if res is not None:
            res.min_value *= 2.0**s  # a Python float product: -inf past the range, silently
    found = dict(zip(minimized, best))
    results = [found.get(u) or _flat_minimum(cone.n, zero) for u in range(len(forms))]
    return [results[u] for u in of]


def _distinct(arrays: list) -> tuple[list[int], list[int]]:
    """The positions of the first of each bitwise-distinct array, in
    order, and for every array the index of its first among them.

    Keyed on the bytes, so -0.0 and 0.0 differ; not ``np.unique``, which
    compares by value and imports ``numpy.ma``."""
    index: dict = {}
    firsts: list[int] = []
    of = []
    for i, a in enumerate(arrays):
        u = index.setdefault(a.tobytes(), len(firsts))
        if u == len(firsts):
            firsts.append(i)
        of.append(u)
    return firsts, of


def _flat_minimum(n: int, zero: bool) -> QuadOnConeResult:
    """The minimum 0 at the zero witness: certified on a {0} cone,
    uncertified otherwise."""
    return QuadOnConeResult(0.0, np.zeros(n), "zero-cone" if zero else "uncertified", zero)


def _scan_faces(masks: np.ndarray, cone: ConeRep, Hs: list, best: list) -> None:
    """Update each form's running minimum ``best`` over the faces ``masks``
    (bit i pins inequality row i), in mask order.

    The faces are taken in runs (see :func:`min_quadratics_on_cone`).
    Within a run, the faces whose bases have one dimension, from every SVD
    group that gives it, are keyed on the bits of their bases, and one
    stacked call per dimension solves every form on the first face of each
    distinct key; a face reads its eigenpairs through that index, so a
    candidate reads the eigenpairs of the call that made it a candidate.
    Each slice of that call is its own LAPACK solve, so a face's
    eigenpairs have the bits a call for that face alone would give.  A
    face replaces a form's minimum only when its smallest restricted
    eigenvalue is strictly below it and an eigenvector meets the remaining
    rows, exactly as a loop over one face at a time would.
    """
    k_in = cone.a_in.shape[0]
    H_stack = np.stack(Hs)
    pinned = (masks[:, None] >> np.arange(k_in) & 1).astype(bool)  # (faces, k_in)
    eq = cone.a_eq

    def gather(cols: np.ndarray) -> np.ndarray:
        # equalities, then the pinned rows
        eqs = np.broadcast_to(eq, (len(cols),) + eq.shape)
        return np.concatenate([eqs, cone.a_in[cols]], axis=1)

    # where each face's basis lies in ``groups``; -1 for a zero subspace
    groups: list = []
    group_of = np.full(len(masks), -1)
    slot_of = np.zeros(len(masks), dtype=int)
    for at, bases in grouped_nullspace_bases(pinned, gather, cone.tol.rank):
        if bases.shape[2]:
            group_of[at], slot_of[at] = len(groups), np.arange(len(at))
            groups.append(bases)
    bound = np.array([math.inf if res is None else res.min_value for res in best])
    # per face: every form's (d, n) product, restricted form, its
    # symmetrized copies and eigenvectors, on a face of dimension up to n
    run = stack_chunk(4 * len(Hs) * cone.n**2)
    for start in range(0, len(masks), run):
        of = group_of[start : start + run]
        # each face's lowest restricted eigenvalue for every form, +inf on
        # a zero subspace, and which call's row holds its eigenpairs
        lowest = np.full((len(of), len(Hs)), np.inf)
        calls: list = []
        call_of = np.zeros(len(of), dtype=int)
        row_of = np.zeros(len(of), dtype=int)
        # the run's faces by basis dimension; a group's faces in the run
        # are consecutive slots of its stack
        by_dim: dict = {}
        for g in sorted(set(of.tolist()) - {-1}):
            at = np.flatnonzero(of == g)
            lo = slot_of[start + at[0]]
            by_dim.setdefault(groups[g].shape[2], []).append((at, groups[g][lo : lo + len(at)]))
        for _, parts in sorted(by_dim.items()):
            at = np.concatenate([at for at, _ in parts])
            # faces whose bases have the same bits share one eigenproblem
            stack = np.concatenate([bases for _, bases in parts])
            firsts, row = _distinct(stack)
            bases = stack[firsts]
            w, V = _restricted_eigh(bases, H_stack)
            lowest[at] = w[row, :, 0]
            call_of[at], row_of[at] = len(calls), row
            calls.append((bases, w, V))
        # not ``lowest < bound``: a NaN eigenvalue is a candidate, as it is
        # for the one-face loop
        candidate = ~(lowest >= bound)
        for q in np.flatnonzero(candidate.any(axis=0)).tolist():
            for j in np.flatnonzero(candidate[:, q]).tolist():
                if lowest[j, q] >= bound[q]:
                    continue
                bases, w, V = calls[call_of[j]]
                r = row_of[j]
                rest = cone.a_in[~pinned[start + j]]
                d = _feasible_in_eigenspace(bases[r], w[r, q], V[r, q], rest, _TOL)
                if d is None:
                    continue
                best[q] = QuadOnConeResult(float(d @ Hs[q] @ d), d, "facial-enumeration", True)
                bound[q] = best[q].min_value


def _restricted_eigh(Bs: np.ndarray, H_stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (smallest eigenvalue first) of every form in ``H_stack``
    restricted to every basis in ``Bs``, shape ``(faces, n, d)``: arrays of
    shape ``(faces, forms, d)`` and ``(faces, forms, d, d)``."""
    Hr = Bs.transpose(0, 2, 1)[:, None] @ H_stack[None] @ Bs[:, None]
    return np.linalg.eigh(0.5 * (Hr + Hr.transpose(0, 1, 3, 2)))


def _feasible_in_eigenspace(
    B: np.ndarray,
    w: np.ndarray,
    V: np.ndarray,
    A_rest: np.ndarray,
    tol: float,
) -> np.ndarray | None:
    """Unit vector achieving the smallest restricted eigenvalue while
    satisfying the remaining inequality rows, or None.

    ``w``/``V`` are the eigendecomposition of the quadratic restricted to the
    columns of ``B``.  When the smallest eigenvalue is simple, only its
    eigenvector (either sign) can work.  Under multiplicity the minimizer
    may be any unit vector of the eigenspace, so after trying the computed
    basis vectors each signed coordinate vector ``v`` of the eigenspace is
    projected onto the wedge ``{z : M z <= 0}`` the remaining rows cut out
    of it; by Moreau that is ``v - M.T @ y`` for the ``y >= 0`` minimizing
    ``||M.T @ y - v||``, one :func:`~nlpcheck.linalg.nnls` call.  Every
    ``v`` projects to 0 exactly when the wedge is {0}, since a nonzero
    member is at an acute angle with one ``v``.  Each projection is
    normalized and re-checked against the rows (``nnls`` may stop at its
    best iterate).
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
    E = B @ V[:, :cluster]  # (n, cluster) orthonormal
    M = A_rest @ E
    M = np.ldexp(M, -math.frexp(float(np.abs(M).max()))[1])  # same wedge, unit scale
    wedge = np.ones(M.shape[0], dtype=bool)
    for v in np.kron(np.eye(cluster), [[1.0], [-1.0]]):  # e_1, -e_1, e_2, ...
        y, _ = nnls(M.T, -v, wedge)
        z = v - M.T @ y
        nz = float(np.linalg.norm(z))
        if nz > 1e-6:  # in a nonzero wedge some v projects to >= 1/sqrt(cluster)
            d = E @ (z / nz)
            if float((A_rest @ d).max()) <= tol:
                return d
    return None
