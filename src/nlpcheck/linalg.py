"""Dense numerical kernels shared by the analysis passes.

Everything here operates on small dense matrices (tens of rows and columns,
not thousands), or on stacks of them.  Rank decisions, nullspaces,
eigenvalues and Newton directions are backed by LAPACK through numpy; the
MFCQ direction LP (a two-phase simplex on the one LP MFCQ solves), the
sign-constrained least-squares solver, the greedy column pivoting, and the
damped Newton iteration (a batch of systems stepped together, one stacked
solve per round) are implemented directly because their tie-breaking and
failure behaviour must be deterministic and inspectable.  The
sign-constrained least-squares solver is the polyhedral primitive of the
multiplier probe and of the cone layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RankInfo",
    "numerical_rank",
    "stacked_rank",
    "stacked_spectra",
    "entry_bound",
    "norm_bound",
    "nnls_bound",
    "nullspace_basis",
    "grouped_nullspace_bases",
    "stack_chunk",
    "pivot_select",
    "NewtonError",
    "SingularJacobianError",
    "NewtonConvergenceError",
    "newton_batch",
    "newton_solve",
    "min_eig_sym",
    "simplex_lp",
    "nnls",
]

_LP_TOL = 1e-9
_NEWTON_MAX_ITER = 50
_STACK_BYTES = 1 << 21  # memory one chunk of a stacked loop may take (stack_chunk)


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
    """Numerical rank decision: rank and singular values."""

    rank: int
    magnitudes: np.ndarray  # singular values, non-increasing


def entry_bound(rows: int, cols: int) -> float:
    """Largest entry magnitude a ``rows x cols`` matrix may have for its
    rank to be decided: sigma_max is at most ``sqrt(rows * cols)`` times the
    largest entry, and an overflowing sigma_max would turn every threshold
    into inf and the rank into 0."""
    return float(np.finfo(float).max / np.sqrt(max(rows * cols, 1)))


def norm_bound(cols: int) -> float:
    """Largest entry magnitude a vector of ``cols`` entries may have for its
    squared 2-norm to stay finite; half of the bound is returned, to spare
    the rounding of the sum of squares."""
    return 0.5 * math.sqrt(float(np.finfo(float).max) / max(cols, 1))


def nnls_bound(A) -> float:
    """Largest entry magnitude of ``b`` for which :func:`nnls` on ``A``
    computes with finite numbers.

    Every residual ``A y + b`` it forms is at most ``||b||`` long, and it
    squares those norms, so ``rows * max|b|^2`` must stay finite; the
    entries of ``A.T @ b`` and of the gradients ``A.T @ (A y + b)`` are at
    most ``rows * max|A| * max|b|``.  Half of the resulting bound is
    returned, to spare the rounding of the residuals.
    """
    A = _as_matrix(A)
    rows = max(A.shape[0], 1)
    big = float(np.finfo(float).max)
    bound = math.sqrt(big / rows)
    a = float(np.abs(A).max(initial=0.0))
    if a > 0.0:
        bound = min(bound, big / rows / a)
    return 0.5 * bound


def _rank_cut(s: np.ndarray, tol_rel: float) -> np.ndarray:
    """Ranks for singular values ``s`` (non-increasing along the last axis):
    values above ``tol_rel * sigma_max`` count, and for an exactly zero
    matrix the threshold degenerates to ``tol_rel`` itself."""
    s_max = s[..., 0]
    threshold = np.where(s_max > 0.0, tol_rel * s_max, tol_rel)
    return np.count_nonzero(s > threshold[..., None], axis=-1)


def numerical_rank(M, tol_rel: float = 1e-8) -> RankInfo:
    """Rank of ``M`` counted as singular values above ``tol_rel * sigma_max``.

    For an exactly zero (or empty) matrix the threshold degenerates to
    ``tol_rel`` itself and the rank is 0.
    """
    M = _as_matrix(M)
    if min(M.shape) == 0:
        return RankInfo(0, np.zeros(0))
    s = np.linalg.svd(M, compute_uv=False)
    return RankInfo(int(_rank_cut(s, tol_rel)), s)


def stacked_spectra(M, tol_rel: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Numerical ranks and singular values of a stack of matrices, shape
    ``(k, rows, cols)``.

    One batched SVD gives the ``(k, min(rows, cols))`` singular values
    (non-increasing in each row) and decides all ``k`` ranks by the rule of
    :func:`numerical_rank`.
    """
    M = np.asarray(M, dtype=float)
    if M.size and not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    if min(M.shape[1:]) == 0:
        return np.zeros(M.shape[0], dtype=int), np.zeros((M.shape[0], 0))
    s = np.linalg.svd(M, compute_uv=False)
    return _rank_cut(s, tol_rel), s


def stacked_rank(M, tol_rel: float = 1e-8) -> np.ndarray:
    """Numerical ranks of a stack of matrices, shape ``(k, rows, cols)``:
    the integer array of length ``k`` of :func:`stacked_spectra`."""
    return stacked_spectra(M, tol_rel)[0]


def stack_chunk(floats: int) -> int:
    """How many items of ``floats`` float64 values each one stacked call
    may take at once: the loops that stack their matrices (a face loop, a
    subset loop) walk them in chunks of this size, so that their memory
    stays within ``_STACK_BYTES`` however large the loop."""
    return max(1, _STACK_BYTES // (8 * max(floats, 1)))


def _nullspace_factors(stack, tol_rel: float) -> tuple[np.ndarray, np.ndarray]:
    """Numerical ranks and right singular factors of a stack of matrices,
    shape ``(k, rows, n)``: one batched SVD, after the non-finite check.

    Row ``rank_i`` onwards of ``Vh[i]`` spans the nullspace of matrix i.  A
    stack without rows or columns needs no SVD: every rank is 0 and every
    factor the identity.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got ndim={stack.ndim}")
    if stack.size and not np.isfinite(stack).all():
        raise ValueError("matrix has non-finite entries")
    k, rows, cols = stack.shape
    if rows == 0 or cols == 0:
        return np.zeros(k, dtype=int), np.broadcast_to(np.eye(cols), (k, cols, cols))
    _, s, Vh = np.linalg.svd(stack)
    return _rank_cut(s, tol_rel), Vh


def grouped_nullspace_bases(selected, gather, tol_rel: float = 1e-8):
    """Nullspace bases of ``k`` matrices, each built from a selection of
    ``r`` rows or columns, yielded in groups of one selection size and one
    rank.

    Row i of the boolean ``selected``, shape ``(k, r)``, marks the indices
    matrix i is built from.  Matrices with the same number of marks share
    one stacked SVD: ``gather(idx)``, given a group's marked indices
    ``(g, c)`` (ascending in each row), returns its ``(g, rows, n)`` stack.
    Each group of that stack with one rank is yielded as ``(at, bases)``:
    ``at`` holds its positions in ``selected``, ascending, and ``bases`` is
    a contiguous ``(len(at), n, d)`` stack whose slice j is, bit for bit,
    the :func:`nullspace_basis` of matrix ``at[j]``.  Groups come by
    selection size, then by rank, both ascending.
    """
    selected = np.asarray(selected, dtype=bool)
    count = selected.sum(axis=1)
    for c in sorted(set(count.tolist())):
        at = np.flatnonzero(count == c)
        idx = np.nonzero(selected[at])[1].reshape(len(at), c)
        ranks, Vh = _nullspace_factors(gather(idx), tol_rel)
        for rank in sorted(set(ranks.tolist())):
            same = ranks == rank
            yield at[same], Vh[same, rank:].transpose(0, 2, 1).copy()


def nullspace_basis(M, tol_rel: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace of ``M``.

    A matrix with no rows is treated as the zero map, so the basis is the
    identity.  The returned array has shape ``(n, n - rank)``, where rank
    is that of :func:`numerical_rank` at ``tol_rel``.
    """
    ranks, Vh = _nullspace_factors(_as_matrix(M)[None], tol_rel)
    return Vh[0, ranks[0] :].T.copy()


def pivot_select(M, r: int) -> list[int]:
    """Select ``r`` well-conditioned columns of ``M`` by greedy pivoting.

    The caller decides ``r``, typically as the :func:`numerical_rank` of
    ``M``; this function only pivots.  At each step the column with the
    largest residual norm after orthogonalization against the previous
    picks is chosen; exact ties go to the smallest column index.  Returns
    0-based column indices in selection order.  Raises :class:`ValueError`
    if a pick finds no residual left.
    """
    M = _as_matrix(M)
    if r < 0:
        raise ValueError("r must be non-negative")
    # a power-of-two scale is exact and brings max|M| into [0.5, 1), so the
    # squared norms neither underflow (1e-200 squares to 0) nor overflow
    R = np.ldexp(M, -np.frexp(np.abs(M).max(initial=0.0))[1])
    selected: list[int] = []
    for _ in range(r):
        norms = np.linalg.norm(R, axis=0)
        for j in selected:
            norms[j] = -1.0
        j = int(np.argmax(norms))  # argmax takes the first maximum: smallest index wins ties
        if not norms[j] > 0:
            raise ValueError(f"pivot {len(selected) + 1} of {r} finds no residual left")
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


def newton_batch(
    evaluate: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    start: tuple[np.ndarray, np.ndarray, np.ndarray],
    targets,
    tol: float = 1e-12,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray], list]:
    """Walk k systems of size n through their targets by damped Newton:
    system i solves ``F_i(x) = targets[i, j]`` for j = 0, ..., K - 1 in
    turn, from ``start`` and then from each last solution, and stops at
    its first failure.

    ``start`` holds evaluated points ``(X, F, J)`` of shapes ``(k, n)``,
    ``(k, n)`` and ``(k, n, n)``; ``evaluate(rows, X)`` returns ``(F, J,
    ok)`` at trial points ``X`` of the systems ``rows``, ``ok[i]`` False
    where a point left the domain; the solver may keep (and write into)
    the arrays it returns.  A round fails the systems that took 50 steps
    on their target, makes one stacked solve for the steps of all pending
    systems and tries them: the h-th trial of the systems still rejected
    is ``X + 2^-h step``, one ``evaluate`` call per h, and a system takes
    the first trial that lowers its max-norm residual (a point outside the
    domain counts as an increase) or fails after 30 halvings.  A target
    that the last solution meets takes no round.  Each system keeps its
    own target, step and counts, so its row equals solves of its targets
    alone, one after another.  Returns the ``(k, K, n)`` solutions (NaN
    past those reached), the evaluated ``(X, F, J)`` at the last solutions
    (at the last accepted iterate where a system failed), and per system
    None or ``(j, error)``: the target it failed at and its
    :class:`NewtonError`.
    """
    X, F, J = (np.array(a, dtype=float) for a in start)
    targets = np.asarray(targets, dtype=float)
    k, K, _ = targets.shape
    points = np.full(targets.shape, np.nan)
    at_target = np.zeros(k, dtype=int)  # the target each system is solving
    goal = targets[:, 0].copy()  # that target
    res = np.abs(F - goal).max(axis=1, initial=0.0)
    failures: list = [None] * k
    iterations = np.zeros(k, dtype=int)  # steps taken on that target
    pending = np.ones(k, dtype=bool)  # neither through its targets nor failed

    def reach(done: np.ndarray) -> None:
        """Keep the solutions of ``done``, which meet their targets, and move
        each on to its next target, again while it meets that one too."""
        while done.size:
            points[done, at_target[done]] = X[done]
            at_target[done] += 1
            iterations[done] = 0
            pending[done] = at_target[done] < K
            done = done[pending[done]]
            goal[done] = targets[done, at_target[done]]
            res[done] = np.abs(F[done] - goal[done]).max(axis=1, initial=0.0)
            done = done[res[done] <= tol]

    def fail(i: int, error: NewtonError) -> None:
        failures[i] = (int(at_target[i]), error)
        pending[i] = False

    reach(np.flatnonzero(res <= tol))
    rows = np.flatnonzero(pending)  # the systems of the round
    rounds = 0  # no system has taken more steps on its target than there were rounds
    while rows.size:
        if rounds >= _NEWTON_MAX_ITER:
            for i in rows[iterations[rows] == _NEWTON_MAX_ITER]:
                message = f"no convergence in {_NEWTON_MAX_ITER} iterations (residual {res[i]:.3e})"
                fail(i, NewtonConvergenceError(message, X[i].copy(), float(res[i])))
            rows = rows[pending[rows]]
            if not rows.size:
                break
        rounds += 1
        at = slice(None) if rows.size == k else rows  # views when every system steps
        # explicit columns, so the call means the same on numpy 1 and 2
        R = (goal[at] - F[at])[..., None]
        try:
            step = np.linalg.solve(J[at], R)[..., 0]
        except np.linalg.LinAlgError:  # one at a time, to find the singular systems
            step = np.full(R.shape[:2], np.nan)
            for s, (i, Ji, Ri) in enumerate(zip(rows, J[at], R)):
                try:
                    step[s] = np.linalg.solve(Ji, Ri)[:, 0]
                except np.linalg.LinAlgError:
                    message = f"singular Jacobian at iterate (residual {res[i]:.3e})"
                    fail(i, SingularJacobianError(message))
        iterations[at] += 1
        if not np.isfinite(step).all():  # the singular systems' steps are NaN
            finite = np.isfinite(step).all(axis=1)
            for i in rows[pending[at] & ~finite]:
                fail(i, SingularJacobianError("non-finite Newton step"))
            rows, step = rows[finite], step[finite]
            if not rows.size:
                break
            at = rows
        # the full steps, then the h-th halving of those still rejected
        trying, trial = rows, X[at] + step
        for h in range(1, 31):
            F_new, J_new, ok = evaluate(trying, trial)
            inside = ok.all()
            if inside:
                res_new = np.abs(F_new - goal[at]).max(axis=1, initial=0.0)
            else:  # the entries of a point outside the domain are meaningless
                res_new = np.full(trying.size, np.inf)
                res_new[ok] = np.abs(F_new[ok] - goal[trying[ok]]).max(axis=1, initial=0.0)
            solved = res_new <= tol
            better = (res_new < res[at]) | solved
            if not inside:
                better &= ok
            if better.all():
                if trying.size == k:
                    X, F, J, res = trial, F_new, J_new, res_new
                else:
                    X[trying], F[trying], J[trying], res[trying] = trial, F_new, J_new, res_new
                reach(trying[solved])
                break
            took = trying[better]
            X[took], F[took], J[took] = trial[better], F_new[better], J_new[better]
            res[took] = res_new[better]
            reach(trying[solved])
            trying = at = trying[~better]
            step = step[~better]
            trial = X[at] + 0.5**h * step
        else:  # still rejected after 30 halvings
            for i in trying:
                message = f"no descent after 30 halvings (residual {res[i]:.3e})"
                fail(i, NewtonConvergenceError(message, X[i].copy(), float(res[i])))
        rows = rows[pending[rows]]
    return points, (X, F, J), failures


def newton_solve(
    fun_jac: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    start: tuple[np.ndarray, np.ndarray, np.ndarray],
    target,
    tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`newton_batch` for one system and one target: ``fun_jac(x)``
    returns ``(F(x), J(x))``, and a :class:`DomainError` it raises marks
    ``x`` as outside the domain.  Raises the system's :class:`NewtonError`,
    and returns ``start`` itself when it already solves the system."""
    from nlpcheck.expr import DomainError  # expr imports this module

    evaluated = []

    def evaluate(rows, X):
        evaluated.append(X)
        try:
            F, J = fun_jac(X[0])
        except DomainError:
            return np.zeros_like(X), np.zeros(X.shape + X.shape[1:]), np.zeros(1, dtype=bool)
        return F[None], J[None], np.ones(1, dtype=bool)

    _, (X, F, J), failures = newton_batch(evaluate, [a[None] for a in start], [[target]], tol)
    if failures[0] is not None:
        raise failures[0][1]
    return (X[0], F[0], J[0]) if evaluated else start


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


def simplex_lp(A: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, float] | None:
    """The MFCQ direction LP: maximize ``s`` subject to ``A d + s <= 0``,
    ``E d = 0``, ``|d_k| <= 1`` and ``s <= 1``.

    Returns ``(d, s)`` at the optimum, or None when the simplex does not
    solve it.  The tableau minimizes ``c @ (d, s)`` with ``c = -e_s``, and
    ``s`` is minus that value, so the sign of a zero optimum is the one the
    minimization gives.  The LP always has the solution d = 0, s = 0 and
    is bounded, but feasibility is classified at the absolute tolerance
    ``_LP_TOL``.  The variables are shifted to z = (d + 1, 1 - s) >= 0,
    and each |d_k| <= 1 becomes the range row z_k <= 2.  Dense two-phase
    simplex with Bland's rule, so it terminates on every input: phase 1
    puts an artificial on every row, and the artificials left basic are
    driven out before phase 2.
    """
    a, n = A.shape
    p = E.shape[0]
    offsets = np.append(np.full(n, -1.0), 1.0)  # x at z = 0
    ntot = 2 * n + 1 + a  # z, then a slack per inequality and range row
    mrows = a + n + p  # inequality, range and equality rows
    T = np.zeros((mrows + 1, ntot + mrows + 1))  # artificials, then the rhs
    # the rows are copied as the general simplex's column map copied them,
    # with -0.0 read as 0.0, so the tableau has its bits
    T[:a, :n] = 0.0 + A
    T[:a, n] = -1.0
    T[a : a + n, :n] = np.eye(n)
    T[a + n : mrows, :n] = 0.0 + E
    T[: a + n, n + 1 : ntot] = np.eye(a + n)
    rhs = np.concatenate(
        [
            np.zeros(a) - np.hstack([A, np.ones((a, 1))]) @ offsets,
            np.full(n, 2.0),
            np.zeros(p) - np.hstack([E, np.zeros((p, 1))]) @ offsets,
        ]
    )
    for i in range(mrows):
        if rhs[i] < 0.0:
            T[i, :-1] = -T[i, :-1]
            rhs[i] = -rhs[i]
        T[i, ntot + i] = 1.0
    T[:mrows, -1] = rhs
    basis = [ntot + i for i in range(mrows)]
    # phase-1 objective: sum of artificials, expressed in the artificial basis
    for i in range(mrows):
        T[-1, :] -= T[i, :]
    T[-1, ntot:-1] += 1.0
    _simplex_phase(T, basis, ntot, _LP_TOL)
    if T[-1, -1] < -_LP_TOL:  # tableau stores -objective
        return None

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

    # phase 2 minimizes z_n = 1 - s, expressed in the current basis
    T2 = np.zeros((mrows + 1, ntot + 1))
    T2[:mrows, :ntot] = T[keep][:, :ntot]
    T2[:mrows, -1] = T[keep][:, -1]
    T2[-1, n] = 1.0
    if n in basis:
        T2[-1, :] -= T2[basis.index(n), :]
    if _simplex_phase(T2, basis, ntot, _LP_TOL) == "unbounded":
        return None

    z = np.zeros(ntot)
    z[basis] = T2[:mrows, -1]
    x = offsets + np.append(z[:n], -z[n])
    c = np.zeros(n + 1)
    c[n] = -1.0
    return x[:n], -float(c @ x)


def nnls(A, b, nonneg_mask) -> tuple[np.ndarray, float]:
    """Minimize ``||A y + b||_2`` with ``y[i] >= 0`` wherever ``nonneg_mask``.

    Unmasked entries are unconstrained.  Active-set iteration in the
    Lawson-Hanson pattern: masked coordinates enter the passive set one at a
    time by most-negative gradient, with backtracking steps that keep the
    passive iterate feasible.  Ties in the entering choice go to the
    smallest index.  Gradient entries count as negative below
    ``-1e-10 * |A^T b|_inf``.  Returns ``(y, residual_norm)``; after
    ``3 * columns + 10`` entering steps the best iterate found so far is
    returned.
    """
    A = _as_matrix(A)
    b = np.asarray(b, dtype=float).ravel()
    mrows, ncols = A.shape
    mask = np.asarray(nonneg_mask, dtype=bool).ravel()
    if mask.size != ncols:
        raise ValueError("nonneg_mask must have one entry per column")
    if b.size != mrows:
        raise ValueError("b must have one entry per row")
    scale = float(np.abs(A.T @ b).max(initial=0.0)) if ncols else 0.0
    tol = 1e-10 * scale  # relative, so that a column with a small gradient still enters

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
    for _ in range(3 * ncols + 10):
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
