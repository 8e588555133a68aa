"""Polyhedral cones attached to a candidate point.

The linearized cone at a feasible point collects the first-order feasible
directions: active inequality gradients impose ``a . d <= 0`` and equality
gradients impose ``a . d = 0``.  The strong critical cone additionally
requires the objective not to increase to first order.  Both are stored as
row systems; each row remembers which constraint produced it.

The central computation here is minimizing a quadratic form over such a
cone.  Scaling ``d`` by ``t > 0`` scales ``d^T H d`` by ``t^2``, so the sign
of the minimum is decided on unit vectors.  A constrained minimizer on the
cone is an eigenvector of the Hessian restricted to the span of the face it
lies on, so enumerating faces (subsets of inequality rows turned into
equalities) and solving a small symmetric eigenproblem per face certifies
the global minimum whenever the face count is tractable.  The faces depend
only on the cone, so several forms over one cone (one per multiplier in
the second-order check) share a single enumeration: each face's nullspace
basis is computed once and all forms restricted to it are solved in one
batched eigenproblem.

When no face yields a feasible eigenvector, or the inequality rows are too
many to enumerate, one box-bounded LP per coordinate decides whether the
cone is {0}; a {0} cone gives the certified minimum 0 (``"zero-cone"``).
Only a nonzero cone falls through to the uncertified sampled search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nlpcheck.linalg import min_eig_sym, nullspace_basis, simplex_lp
from nlpcheck.model import PointData

__all__ = [
    "ConeRep",
    "linearized_cone",
    "strong_critical_cone",
    "critical_cone_multiplier_form",
    "membership",
    "sample_directions",
    "QuadOnConeResult",
    "min_quadratic_on_cone",
    "min_quadratics_on_cone",
]


@dataclass
class ConeRep:
    """Cone {d : a_eq @ d = 0, a_in @ d <= 0} with row provenance labels.

    Labels are ``"g3"``/``"h1"`` for constraint gradients (1-based) and
    ``"f"`` for the objective-gradient row of the strong critical cone.
    """

    n: int
    a_eq: np.ndarray  # (k_eq, n)
    a_in: np.ndarray  # (k_in, n)
    provenance_eq: tuple[str, ...]
    provenance_in: tuple[str, ...]


def linearized_cone(pd: PointData) -> ConeRep:
    """First-order feasible directions at the evaluated point."""
    a_in = pd.active_g_grads()
    prov_in = tuple(f"g{i}" for i in pd.active)
    a_eq = pd.h_grads.copy() if pd.p else np.zeros((0, pd.n))
    prov_eq = tuple(f"h{j + 1}" for j in range(pd.p))
    return ConeRep(pd.n, a_eq, a_in, prov_eq, prov_in)


def strong_critical_cone(pd: PointData) -> ConeRep:
    """Linearized cone intersected with {d : f_grad . d <= 0}."""
    base = linearized_cone(pd)
    a_in = np.vstack([base.a_in, pd.f_grad.reshape(1, -1)])
    return ConeRep(
        pd.n, base.a_eq, a_in, base.provenance_eq, base.provenance_in + ("f",)
    )


def critical_cone_multiplier_form(pd: PointData, mu, tol: float = 1e-8) -> ConeRep:
    """Critical cone written through a multiplier: strictly positive
    multipliers pin their constraints to equalities.

    ``mu`` must be the inequality part of a KKT multiplier at the point: it
    is validated for sign, complementarity, and stationarity (minimizing
    over the equality multiplier), and rejected above ``tol``.
    """
    mu = np.asarray(mu, dtype=float).ravel()
    if mu.size != pd.m:
        raise ValueError(f"mu must have length {pd.m}")
    if (mu < -tol).any():
        raise ValueError("negative inequality multiplier")
    active = set(pd.active)
    for i in range(pd.m):
        if (i + 1) not in active and abs(mu[i]) > tol:
            raise ValueError(f"nonzero multiplier on inactive constraint {i + 1}")
    base = pd.f_grad + (mu @ pd.g_grads if pd.m else 0.0)
    if pd.p:
        lam, *_ = np.linalg.lstsq(pd.h_grads.T, -base, rcond=None)
        residual = float(np.abs(base + pd.h_grads.T @ lam).max(initial=0.0))
    else:
        residual = float(np.abs(base).max(initial=0.0))
    if residual > tol:
        raise ValueError(
            f"mu is not part of a KKT multiplier (stationarity residual {residual:.3e})"
        )
    # strict-multiplier threshold: anything above 1e-10 counts as positive
    positive = [i for i in pd.active if mu[i - 1] > 1e-10]
    weak = [i for i in pd.active if mu[i - 1] <= 1e-10]
    eq_rows = [pd.h_grads[j] for j in range(pd.p)]
    eq_prov = [f"h{j + 1}" for j in range(pd.p)]
    for i in positive:
        eq_rows.append(pd.g_grads[i - 1])
        eq_prov.append(f"g{i}")
    in_rows = [pd.g_grads[i - 1] for i in weak]
    in_prov = [f"g{i}" for i in weak]
    a_eq = np.array(eq_rows) if eq_rows else np.zeros((0, pd.n))
    a_in = np.array(in_rows) if in_rows else np.zeros((0, pd.n))
    return ConeRep(pd.n, a_eq, a_in, tuple(eq_prov), tuple(in_prov))


def membership(cone: ConeRep, d, tol: float = 1e-8) -> bool:
    """Test ``d`` against the cone rows at scale ``tol * (1 + ||d||)``."""
    d = np.asarray(d, dtype=float).ravel()
    if d.size != cone.n:
        raise ValueError(f"direction must have length {cone.n}")
    scale = tol * (1.0 + float(np.linalg.norm(d)))
    if cone.a_eq.shape[0] and float(np.abs(cone.a_eq @ d).max()) > scale:
        return False
    if cone.a_in.shape[0] and float((cone.a_in @ d).max()) > scale:
        return False
    return True


def _project_into_rows(z: np.ndarray, R: np.ndarray, max_iter: int = 80) -> np.ndarray:
    """Cyclic projection of ``z`` onto {z : R z <= 0} (most-violated first)."""
    if R.shape[0] == 0:
        return z
    for _ in range(max_iter):
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


def sample_directions(
    cone: ConeRep, count: int, seed: int, tol: float = 1e-8
) -> list[np.ndarray]:
    """Sample up to ``count`` unit directions from the cone, deterministically.

    Gaussian draws in the nullspace of the equality rows are pushed into the
    inequality system by cyclic projection; draws that fail membership after
    projection are discarded.  Duplicates are allowed.  Returns fewer than
    ``count`` vectors (possibly none) when the cone has no nonzero members
    reachable at the sampling tolerance.
    """
    if count <= 0:
        return []
    rng = np.random.default_rng(seed)
    B = nullspace_basis(cone.a_eq if cone.a_eq.shape[0] else np.zeros((0, cone.n)))
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
        if membership(cone, d, tol):
            out.append(d)
    return out


@dataclass
class QuadOnConeResult:
    """Minimum of d^T H d over unit cone members, with the method used.

    ``certified`` is True only for the exact paths: the subspace
    eigenproblem, full facial enumeration, or a cone certified to be {0}
    (``"zero-cone"``, where the form vanishes identically).  The sampled
    fallback reports the best value found without any optimality guarantee.
    """

    min_value: float
    witness: np.ndarray
    method: str  # "exact-subspace" | "facial-enumeration" | "zero-cone" | "sampled"
    certified: bool


def _is_zero_cone(cone: ConeRep) -> bool:
    """True when the cone is certified to be {0}.

    One box-bounded LP per coordinate and sign maximizes that coordinate
    over the cone intersected with [-1, 1]^n.  A nonzero member scaled to
    unit infinity norm reaches 1 in some coordinate, so the cone is {0}
    exactly when every optimum is 0; any LP that does not solve leaves the
    cone uncertified.
    """
    n = cone.n
    for j in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[j] = -sign
            res = simplex_lp(
                c,
                A_ub=cone.a_in,
                b_ub=np.zeros(cone.a_in.shape[0]),
                A_eq=cone.a_eq,
                b_eq=np.zeros(cone.a_eq.shape[0]),
                bounds=[(-1.0, 1.0)] * n,
            )
            if res.status != "optimal" or -res.value > 1e-6:
                return False
    return True


def _sampled_minimum(
    H: np.ndarray, cone: ConeRep, tol: float, dirs: list[np.ndarray]
) -> QuadOnConeResult:
    if not dirs:
        return QuadOnConeResult(0.0, np.zeros(cone.n), "sampled", False)
    best_d = dirs[0]
    best_v = float(best_d @ H @ best_d)
    for d in dirs[1:]:
        v = float(d @ H @ d)
        if v < best_v:
            best_v, best_d = v, d
    B = nullspace_basis(cone.a_eq if cone.a_eq.shape[0] else np.zeros((0, cone.n)))
    R = cone.a_in @ B if cone.a_in.shape[0] else np.zeros((0, B.shape[1]))
    z = B.T @ best_d
    eta = 0.5
    for _ in range(100):
        g = 2.0 * (B.T @ (H @ (B @ z)))
        z_new = _project_into_rows(z - eta * g, R)
        nz = float(np.linalg.norm(z_new))
        if nz < 1e-12:
            eta *= 0.5
            continue
        z_new = z_new / nz
        d_new = B @ z_new
        v_new = float(d_new @ H @ d_new)
        if v_new < best_v - 1e-15 and membership(cone, d_new, tol):
            best_v, best_d, z = v_new, d_new, z_new
        else:
            eta *= 0.5
            if eta < 1e-8:
                break
    return QuadOnConeResult(best_v, best_d, "sampled", False)


def _uncertified_minima(
    Hs: list[np.ndarray], cone: ConeRep, tol: float, seed: int
) -> list[QuadOnConeResult]:
    """Fallback for forms no exact path settled: certify a {0} cone, else
    sample (one draw set shared by every form)."""
    if _is_zero_cone(cone):
        return [QuadOnConeResult(0.0, np.zeros(cone.n), "zero-cone", True) for _ in Hs]
    dirs = sample_directions(cone, 512, seed, tol)
    return [_sampled_minimum(H, cone, tol, dirs) for H in Hs]


def _checked_form(H, n: int) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.shape != (n, n):
        raise ValueError(f"H must have shape ({n}, {n})")
    scale = max(1.0, float(np.abs(H).max(initial=0.0)))
    if float(np.abs(H - H.T).max(initial=0.0)) > 1e-12 * scale:
        raise ValueError("H is not symmetric within 1e-12 relative")
    return H


def min_quadratic_on_cone(
    H,
    cone: ConeRep,
    tol: float = 1e-8,
    facial_limit: int = 16,
    seed: int = 0,
) -> QuadOnConeResult:
    """Minimize ``d^T H d`` over unit-norm members of the cone.

    The single-form case of :func:`min_quadratics_on_cone`.
    """
    return min_quadratics_on_cone([H], cone, tol, facial_limit, seed)[0]


def min_quadratics_on_cone(
    Hs,
    cone: ConeRep,
    tol: float = 1e-8,
    facial_limit: int = 16,
    seed: int = 0,
) -> list[QuadOnConeResult]:
    """Minimize each ``d^T H d`` over unit-norm members of the cone.

    With no inequality rows the cone is a subspace and one restricted
    eigenproblem per form is exact.  With at most ``facial_limit``
    inequality rows every face is enumerated once for all forms: rows in
    the chosen subset become equalities, every form restricted to the
    resulting subspace is minimized by its smallest eigenpair (one batched
    eigenproblem per face), and the eigenvector (either sign) is kept if it
    satisfies the remaining inequalities at ``tol``.  A form for which no
    face yields a feasible eigenvector, and every form beyond the limit,
    goes to the fallback: a cone certified to be {0} gives a certified
    zero minimum; otherwise a sampled search runs and the result is
    flagged uncertified.  Results are returned in the order of ``Hs``.
    """
    Hs = [_checked_form(H, cone.n) for H in Hs]
    if not Hs:
        return []
    k_in = cone.a_in.shape[0]
    if k_in == 0:
        B = nullspace_basis(cone.a_eq if cone.a_eq.shape[0] else np.zeros((0, cone.n)))
        if B.shape[1] == 0:
            # the cone is {0}; the quadratic is identically zero on it
            return [
                QuadOnConeResult(0.0, np.zeros(cone.n), "exact-subspace", True) for _ in Hs
            ]
        out = []
        for H in Hs:
            theta, v = min_eig_sym(B.T @ H @ B)
            out.append(QuadOnConeResult(theta, B @ v, "exact-subspace", True))
        return out
    if k_in > facial_limit:
        return _uncertified_minima(Hs, cone, tol, seed)

    H_stack = np.stack(Hs)
    best: list[QuadOnConeResult | None] = [None] * len(Hs)
    for mask in range(1 << k_in):
        rows = [cone.a_eq] if cone.a_eq.shape[0] else []
        pinned = [i for i in range(k_in) if mask >> i & 1]
        if pinned:
            rows.append(cone.a_in[pinned])
        stacked = np.vstack(rows) if rows else np.zeros((0, cone.n))
        B = nullspace_basis(stacked)
        if B.shape[1] == 0:
            continue
        Hr = B.T @ H_stack @ B
        w, V = np.linalg.eigh(0.5 * (Hr + Hr.transpose(0, 2, 1)))
        rest = np.array([i for i in range(k_in) if not (mask >> i & 1)], dtype=int)
        A_rest = cone.a_in[rest] if rest.size else np.zeros((0, cone.n))
        for q, H in enumerate(Hs):
            if best[q] is not None and float(w[q, 0]) >= best[q].min_value:
                continue
            d = _feasible_in_eigenspace(B, w[q], V[q], A_rest, tol)
            if d is None:
                continue
            best[q] = QuadOnConeResult(float(d @ H @ d), d, "facial-enumeration", True)
    missing = [q for q, res in enumerate(best) if res is None]
    if missing:
        # no face produced a feasible eigenvector for these forms
        fallback = _uncertified_minima([Hs[q] for q in missing], cone, tol, seed)
        for q, res in zip(missing, fallback):
            best[q] = res
    return best


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
    basis vectors a box-bounded LP per coordinate decides exactly whether
    the eigenspace meets the remaining inequalities away from zero.
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
    E = B @ V[:, :cluster]  # (n, q) orthonormal
    R = A_rest @ E
    q = cluster
    for j in range(q):
        for sign in (1.0, -1.0):
            c = np.zeros(q)
            c[j] = -sign
            res = simplex_lp(c, A_ub=R, b_ub=np.zeros(R.shape[0]), bounds=[(-1.0, 1.0)] * q)
            if res.status != "optimal" or res.x is None:
                continue
            z = res.x
            nz = float(np.linalg.norm(z))
            if -res.value > 1e-6 and nz > 1e-9:
                d = E @ (z / nz)
                if not A_rest.shape[0] or float((A_rest @ d).max()) <= tol:
                    return d
    return None
