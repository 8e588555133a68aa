"""Dense numerical kernels shared by the analysis passes.

Everything here operates on small dense matrices (tens of rows and columns,
not thousands), or on stacks of them.  Rank decisions, nullspaces, and
eigenvalues are backed by LAPACK through numpy; the simplex solver, the
sign-constrained least-squares solver, the greedy column pivoting, and the
damped Newton iteration are implemented directly because their tie-breaking
and failure behaviour must be deterministic and inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RankInfo",
    "numerical_rank",
    "stacked_rank",
    "nullspace_basis",
    "pivot_select",
    "NewtonError",
    "SingularJacobianError",
    "NewtonConvergenceError",
    "newton_solve",
    "min_eig_sym",
    "LpResult",
    "simplex_lp",
    "nnls",
]

_LP_TOL = 1e-9


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    if M.size and not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


@dataclass
class RankInfo:
    """Numerical rank decision: rank, singular values, threshold used."""

    rank: int
    magnitudes: np.ndarray  # singular values, non-increasing
    tolerance_used: float


def _rank_cut(s: np.ndarray, tol_rel: float) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and thresholds for singular values ``s`` (non-increasing along
    the last axis): values above ``tol_rel * sigma_max`` count, and for an
    exactly zero matrix the threshold degenerates to ``tol_rel`` itself."""
    s_max = s[..., 0]
    threshold = np.where(s_max > 0.0, tol_rel * s_max, tol_rel)
    return np.count_nonzero(s > threshold[..., None], axis=-1), threshold


def numerical_rank(M, tol_rel: float = 1e-8) -> RankInfo:
    """Rank of ``M`` counted as singular values above ``tol_rel * sigma_max``.

    For an exactly zero (or empty) matrix the threshold degenerates to
    ``tol_rel`` itself and the rank is 0.
    """
    M = _as_matrix(M)
    if min(M.shape) == 0:
        return RankInfo(0, np.zeros(0), tol_rel)
    s = np.linalg.svd(M, compute_uv=False)
    rank, threshold = _rank_cut(s, tol_rel)
    return RankInfo(int(rank), s, float(threshold))


def stacked_rank(M, tol_rel: float = 1e-8) -> np.ndarray:
    """Numerical ranks of a stack of matrices, shape ``(k, rows, cols)``.

    One batched SVD decides all ``k`` ranks by the rule of
    :func:`numerical_rank`; the result is an integer array of length ``k``.
    """
    M = np.asarray(M, dtype=float)
    if M.size and not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    if min(M.shape[1:]) == 0:
        return np.zeros(M.shape[0], dtype=int)
    return _rank_cut(np.linalg.svd(M, compute_uv=False), tol_rel)[0]


def nullspace_basis(M, tol_rel: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace of ``M``.

    A matrix with no rows is treated as the zero map, so the basis is the
    identity.  The returned array has shape ``(n, n - rank)``.
    """
    M = _as_matrix(M)
    rows, cols = M.shape
    if rows == 0 or cols == 0:
        return np.eye(cols)
    _, s, Vh = np.linalg.svd(M)
    rank = int(_rank_cut(s, tol_rel)[0])
    return Vh[rank:].T.copy()


def pivot_select(M, r: int, tol_rel: float = 1e-8) -> list[int]:
    """Select ``r`` well-conditioned columns of ``M`` by greedy pivoting.

    At each step the column with the largest residual norm after
    orthogonalization against the previous picks is chosen; exact ties go to
    the smallest column index.  Returns 0-based column indices in selection
    order.  Raises :class:`ValueError` if ``r`` exceeds the numerical rank.
    """
    M = _as_matrix(M)
    if r < 0:
        raise ValueError("r must be non-negative")
    if r == 0:
        return []
    info = numerical_rank(M, tol_rel)
    if r > info.rank:
        raise ValueError(f"requested {r} pivot columns but numerical rank is {info.rank}")
    R = M.copy()
    selected: list[int] = []
    for _ in range(r):
        norms = np.linalg.norm(R, axis=0)
        for j in selected:
            norms[j] = -1.0
        j = int(np.argmax(norms))  # argmax takes the first maximum: smallest index wins ties
        selected.append(j)
        q = R[:, j] / norms[j]
        R -= np.outer(q, q @ R)
        R[:, j] = 0.0
    return selected


class NewtonError(Exception):
    """Base class for Newton iteration failures."""


class SingularJacobianError(NewtonError):
    """The Jacobian was singular at an iterate."""


class NewtonConvergenceError(NewtonError):
    """The iteration stalled or ran out of iterations."""

    def __init__(self, message: str, best_x: np.ndarray, best_residual: float):
        super().__init__(message)
        self.best_x = best_x
        self.best_residual = best_residual


def newton_solve(
    fun_jac: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0,
    target,
    tol: float = 1e-12,
    max_iter: int = 50,
    retry_exceptions: tuple[type, ...] = (),
) -> np.ndarray:
    """Solve ``F(x) = target`` by damped Newton steps.

    ``fun_jac(x)`` returns ``(F(x), J(x))``.  Full steps are halved (up to 30
    times) until the max-norm residual decreases; exceptions listed in
    ``retry_exceptions`` raised at a trial point are treated like a residual
    increase, which lets callers step around domain boundaries.  For an
    affine ``F`` the first full step lands on the solution exactly.
    """
    x = np.array(x0, dtype=float)
    target = np.asarray(target, dtype=float)
    F, J = fun_jac(x)
    res = float(np.abs(F - target).max(initial=0.0))
    for _ in range(max_iter):
        if res <= tol:
            return x
        try:
            step = np.linalg.solve(J, target - F)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"singular Jacobian at iterate (residual {res:.3e})") from exc
        if not np.isfinite(step).all():
            raise SingularJacobianError("non-finite Newton step")
        alpha = 1.0
        accepted = False
        for _halving in range(30):
            x_new = x + alpha * step
            try:
                F_new, J_new = fun_jac(x_new)
            except retry_exceptions:
                alpha *= 0.5
                continue
            res_new = float(np.abs(F_new - target).max(initial=0.0))
            if res_new < res or res_new <= tol:
                x, F, J, res = x_new, F_new, J_new, res_new
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise NewtonConvergenceError(
                f"no descent after 30 halvings (residual {res:.3e})", x, res
            )
    if res <= tol:
        return x
    raise NewtonConvergenceError(
        f"no convergence in {max_iter} iterations (residual {res:.3e})", x, res
    )


def min_eig_sym(H) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector of a symmetric matrix."""
    H = _as_matrix(H)
    rows, cols = H.shape
    if rows != cols:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(H).max(initial=0.0)))
    if float(np.abs(H - H.T).max(initial=0.0)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    w, V = np.linalg.eigh(0.5 * (H + H.T))
    return float(w[0]), V[:, 0].copy()


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


def simplex_lp(
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
    A_ub = np.zeros((0, nvar)) if A_ub is None else _as_matrix(A_ub)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    A_eq = np.zeros((0, nvar)) if A_eq is None else _as_matrix(A_eq)
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
    _simplex_phase(T, basis, ntot, _LP_TOL)
    if T[-1, -1] < -_LP_TOL:  # tableau stores -objective
        return LpResult("infeasible", None, None)

    # drive leftover artificial basics out, dropping redundant rows
    keep = []
    for i in range(mrows):
        if basis[i] >= ntot:
            pivot_col = -1
            for j in range(ntot):
                if abs(T[i, j]) > _LP_TOL:
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
    status = _simplex_phase(T2, basis, ntot, _LP_TOL)
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


def nnls(
    A,
    b,
    nonneg_mask,
    tol: float | None = None,
    max_iter: int | None = None,
) -> tuple[np.ndarray, float]:
    """Minimize ``||A y + b||_2`` with ``y[i] >= 0`` wherever ``nonneg_mask``.

    Unmasked entries are unconstrained.  Active-set iteration in the
    Lawson-Hanson pattern: masked coordinates enter the passive set one at a
    time by most-negative gradient, with backtracking steps that keep the
    passive iterate feasible.  Ties in the entering choice go to the
    smallest index.  Returns ``(y, residual_norm)``; if the iteration cap is
    reached the best iterate found so far is returned.
    """
    A = _as_matrix(A)
    b = np.asarray(b, dtype=float).ravel()
    mrows, ncols = A.shape
    mask = np.asarray(nonneg_mask, dtype=bool).ravel()
    if mask.size != ncols:
        raise ValueError("nonneg_mask must have one entry per column")
    if b.size != mrows:
        raise ValueError("b must have one entry per row")
    if max_iter is None:
        max_iter = 3 * ncols + 10
    scale = float(np.abs(A.T @ b).max(initial=0.0)) if ncols else 0.0
    if tol is None:
        tol = 1e-10 * max(1.0, scale)

    passive = ~mask.copy()
    y = np.zeros(ncols)

    def resolve(y_current: np.ndarray) -> np.ndarray:
        """Least squares on passive columns, backtracking to keep mask >= 0."""
        y_work = y_current.copy()
        for _ in range(ncols + 1):
            idx = np.flatnonzero(passive)
            if idx.size == 0:
                return np.zeros(ncols)
            sol, *_ = np.linalg.lstsq(A[:, idx], -b, rcond=None)
            y_new = np.zeros(ncols)
            y_new[idx] = sol
            bad = passive & mask & (y_new < -1e-14)
            if not bad.any():
                return y_new
            ratios = y_work[bad] / (y_work[bad] - y_new[bad])
            alpha = float(min(1.0, ratios.min()))
            y_work = y_work + alpha * (y_new - y_work)
            drop = passive & mask & (y_work <= 1e-14)
            y_work[drop] = 0.0
            passive[drop] = False
        return y_work

    if passive.any():
        y = resolve(y)
    best_y = y.copy()
    best_res = float(np.linalg.norm(A @ y + b))
    for _ in range(max_iter):
        w = -(A.T @ (A @ y + b))
        candidates = mask & ~passive & (w > tol)
        if not candidates.any():
            best_y, best_res = y, float(np.linalg.norm(A @ y + b))
            break
        order = np.flatnonzero(candidates)
        j = order[int(np.argmax(w[order]))]
        passive[j] = True
        y = resolve(y)
        res = float(np.linalg.norm(A @ y + b))
        if res < best_res:
            best_y, best_res = y.copy(), res
    return best_y, best_res
