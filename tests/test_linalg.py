"""Tests for the dense linear algebra kernels.

The simplex solver is cross-checked against a brute-force vertex
enumeration oracle on random bounded polytopes, and the masked
least-squares routine against scipy.optimize.nnls and plain lstsq in the
two unmasked extremes.
"""

import itertools

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from nlpcheck.expr import DomainError
from nlpcheck.linalg import (
    NewtonConvergenceError,
    NewtonError,
    SingularJacobianError,
    min_eig_sym,
    newton_batch,
    newton_solve,
    nnls,
    nnls_bound,
    grouped_nullspace_bases,
    nullspace_basis,
    numerical_rank,
    pivot_select,
    simplex_lp,
)

from _oracles import reference_newton, same_bits


class TestRank:
    def test_full_rank_identity(self):
        info = numerical_rank(np.eye(3))
        assert info.rank == 3

    def test_rank_one_outer_product(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
        assert numerical_rank(a).rank == 1

    def test_tiny_singular_value_below_threshold(self):
        a = np.diag([1.0, 1e-12])
        info = numerical_rank(a, tol_rel=1e-8)
        assert info.rank == 1
        assert_allclose(info.magnitudes, [1.0, 1e-12])

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((2, 3))).rank == 0

    def test_empty_rows(self):
        assert numerical_rank(np.zeros((0, 4))).rank == 0

    def test_tolerance_is_relative(self):
        # scaling the matrix must not change the rank decision
        a = np.diag([1.0, 1e-12])
        assert numerical_rank(1e6 * a).rank == numerical_rank(a).rank


class TestNullspace:
    def test_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 5))
        basis = nullspace_basis(a)
        assert basis.shape == (5, 3)
        assert_allclose(basis.T @ basis, np.eye(3), atol=1e-12)
        assert np.abs(a @ basis).max() <= 1e-12 * max(1.0, np.abs(a).max())

    def test_no_rows_gives_identity(self):
        assert_allclose(nullspace_basis(np.zeros((0, 3))), np.eye(3))

    def test_full_rank_square_gives_empty(self):
        assert nullspace_basis(np.eye(3)).shape == (3, 0)

    def test_duplicated_rows_collapse(self):
        a = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        basis = nullspace_basis(a)
        assert basis.shape == (3, 2)


def one_matrix_nullspace(M, tol_rel=1e-8):
    """The one-matrix SVD that ``nullspace_basis`` and
    ``grouped_nullspace_bases`` cut."""
    if 0 in M.shape:
        return np.eye(M.shape[1])
    _, s, Vh = np.linalg.svd(M)
    threshold = tol_rel * s[0] if s[0] > 0.0 else tol_rel
    return Vh[int(np.count_nonzero(s > threshold)) :].T


def stacked_bases(stack):
    """``grouped_nullspace_bases`` over one stack: every matrix selects the
    same single index, so the whole stack is one SVD.  Returns the bases in
    stack order."""
    bases = [None] * len(stack)
    for at, group in grouped_nullspace_bases(np.ones((len(stack), 1), dtype=bool), lambda idx: stack):
        for i, B in zip(at.tolist(), group):
            bases[i] = B
    return bases


class TestNullspaceBases:
    """``nullspace_basis`` and every slice of the stacked SVD of
    ``grouped_nullspace_bases`` are the one-matrix call, bit for bit."""

    @staticmethod
    def random_stack(rng, k, rows, n):
        stack = rng.standard_normal((k, rows, n))
        for i in range(k):
            kind = int(rng.integers(0, 4))
            if kind == 1 and rows and n:  # rank deficient
                r = int(rng.integers(0, min(rows, n)))
                stack[i] = rng.standard_normal((rows, r)) @ rng.standard_normal((r, n))
            elif kind == 2:  # all zero
                stack[i] = 0.0
            elif kind == 3:  # small integers: repeated and dependent rows
                stack[i] = rng.integers(-1, 2, size=(rows, n))
        return stack

    def test_slices_match_one_matrix_calls(self):
        rng = np.random.default_rng(29)
        shapes = [(k, rows, n) for k in (1, 4) for rows in range(5) for n in range(5)]
        for trial in range(300):
            k, rows, n = shapes[trial % len(shapes)]
            stack = self.random_stack(rng, k, rows, n)
            for M, B in zip(stack, stacked_bases(stack)):
                assert same_bits(B, nullspace_basis(M))
                assert same_bits(B, one_matrix_nullspace(M))

    def test_relative_tolerance_per_slice(self):
        # the same matrix at two scales keeps its rank in one stack
        a = np.diag([1.0, 1e-12, 0.0])
        bases = stacked_bases(np.stack([a, 1e6 * a, np.zeros((3, 3))]))
        assert [B.shape for B in bases] == [(3, 2), (3, 2), (3, 3)]
        assert nullspace_basis(1e6 * a).shape == (3, 2)

    def test_empty_shapes(self):
        assert nullspace_basis(np.zeros((0, 3))).shape == (3, 3)
        assert nullspace_basis(np.zeros((3, 0))).shape == (0, 0)
        assert [B.shape for B in stacked_bases(np.zeros((2, 0, 3)))] == [(3, 3)] * 2
        assert [B.shape for B in stacked_bases(np.zeros((2, 3, 0)))] == [(0, 0)] * 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_raises_the_one_matrix_message(self, bad):
        stack = np.ones((3, 2, 4))
        stack[1, 0, 2] = bad
        with pytest.raises(ValueError) as single:
            nullspace_basis(stack[1])
        with pytest.raises(ValueError) as stacked:
            stacked_bases(stack)
        assert str(stacked.value) == str(single.value) == "matrix has non-finite entries"

    def test_rejects_a_single_matrix(self):
        # gather must return a stack of matrices
        with pytest.raises(ValueError, match="stack of matrices"):
            stacked_bases(np.eye(3))


class TestGroupedNullspaceBases:
    def test_each_basis_is_its_selection_s_one_matrix_basis(self):
        # matrices built from selected rows of a (with a dependent row), one
        # SVD per selection size, each selection in exactly one group of
        # one rank, whose contiguous stack holds its one-matrix basis
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((6, 4))
        rows[5] = rows[0] + rows[1]
        selected = rng.integers(0, 2, size=(40, 6)).astype(bool)
        sizes = []

        def gather(idx):
            assert (np.diff(idx, axis=1) > 0).all()
            sizes.append(idx.shape[1])
            return rows[idx]

        seen, order = [], []
        for at, bases in grouped_nullspace_bases(selected, gather):
            assert (np.diff(at) > 0).all()
            assert bases.shape[0] == len(at) and bases.shape[1] == 4
            assert bases.flags.c_contiguous
            counts = selected[at].sum(axis=1)
            assert (counts == counts[0]).all()
            order.append((int(counts[0]), 4 - bases.shape[2]))
            for i, B in zip(at.tolist(), bases):
                M = rows[selected[i]] if selected[i].any() else np.zeros((0, 4))
                assert same_bits(B, nullspace_basis(M))
                seen.append(i)
        assert sorted(sizes) == sorted(set(selected.sum(axis=1).tolist()))
        assert sorted(seen) == list(range(len(selected)))
        assert order == sorted(set(order))  # by selection size, then rank
        assert len(order) > len({c for c, _ in order})  # the dependent row splits a size

    def test_no_selections(self):
        assert list(grouped_nullspace_bases(np.zeros((0, 3), dtype=bool), lambda idx: None)) == []

    def test_nonfinite_stack_raises_before_the_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD reached with a non-finite entry")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        rows = np.array([[1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            list(grouped_nullspace_bases(np.ones((1, 2), dtype=bool), lambda idx: rows[idx]))


class TestPivotSelect:
    def test_picks_largest_column_first(self):
        a = np.array([[1.0, 10.0, 2.0]]).T  # three rows, one column
        cols = np.hstack([a, np.array([[0.0, 0.0, 1.0]]).T])
        picked = pivot_select(cols, 2)
        assert picked[0] == 0

    def test_greedy_on_identity_prefers_first_max(self):
        picked = pivot_select(np.eye(3), 2)
        assert picked == [0, 1]

    def test_residual_greediness(self):
        # second pick must maximize the residual after projecting out the
        # first, not the raw norm
        cols = np.array(
            [
                [1.0, 0.99, 0.0],
                [0.0, 0.10, 0.0],
                [0.0, 0.00, 0.5],
            ]
        )
        picked = pivot_select(cols, 2)
        assert picked == [0, 2]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 3.0, 1e200])
    def test_scale_keeps_the_picks(self, scale):
        # squared norms of the scaled columns underflow or overflow
        cols = np.array([[1.0, 0.99, 0.0], [0.0, 0.10, 0.0], [0.0, 0.00, 0.5]])
        assert pivot_select(scale * cols, 2) == pivot_select(cols, 2) == [0, 2]

    def test_count_zero(self):
        assert pivot_select(np.eye(2), 0) == []

    def test_count_exceeding_columns_rejected(self):
        with pytest.raises(ValueError):
            pivot_select(np.eye(2), 3)


def solve(fun_jac, x0, target):
    """Newton from an unevaluated start; returns the solution point."""
    x0 = np.asarray(x0, dtype=float)
    return newton_solve(fun_jac, (x0, *fun_jac(x0)), np.asarray(target, dtype=float))[0]


class TestNewton:
    def test_linear_system_single_step(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])

        def fun_jac(x):
            return a @ x, a

        target = np.array([1.0, 6.0])
        x = solve(fun_jac, np.zeros(2), target)
        assert_allclose(x, np.linalg.solve(a, target), atol=1e-12)

    def test_scalar_square_root(self):
        def fun_jac(x):
            return np.array([x[0] ** 2]), np.array([[2.0 * x[0]]])

        x = solve(fun_jac, [1.0], [2.0])
        assert_allclose(x[0], np.sqrt(2.0), atol=1e-12)

    def test_returns_the_evaluated_solution(self):
        calls = []

        def fun_jac(x):
            calls.append(x.copy())
            return np.array([x[0] ** 2]), np.array([[2.0 * x[0]]])

        x0 = np.array([1.0])
        x, F, J = newton_solve(fun_jac, (x0, *fun_jac(x0)), np.array([2.0]))
        assert_allclose(x[0], np.sqrt(2.0), atol=1e-12)
        F_again, J_again = fun_jac(x)
        assert np.array_equal(F, F_again) and np.array_equal(J, J_again)
        # a start that already solves the system costs no evaluation
        n_calls = len(calls)
        assert newton_solve(fun_jac, (x, F, J), np.array([2.0]))[0] is x
        assert len(calls) == n_calls

    def test_singular_jacobian_raises(self):
        def fun_jac(x):
            return np.array([x[0] ** 2]), np.array([[0.0]])

        with pytest.raises(SingularJacobianError):
            solve(fun_jac, [0.0], [1.0])

    def test_convergence_error_carries_best_iterate(self):
        # the residual |x^2 + 1| cannot reach zero on the reals
        def fun_jac(x):
            return np.array([x[0] ** 2 + 1.0]), np.array([[2.0 * x[0]]])

        with pytest.raises(NewtonConvergenceError) as err:
            solve(fun_jac, [2.0], [0.0])
        assert err.value.best_residual > 0.0
        assert err.value.best_x.shape == (1,)

    def test_damping_rescues_overshoot(self):
        # full steps oscillate for atan from far away; halving converges
        def fun_jac(x):
            return np.array([np.arctan(x[0])]), np.array(
                [[1.0 / (1.0 + x[0] ** 2)]]
            )

        x = solve(fun_jac, [3.0], [0.0])
        assert abs(x[0]) <= 1e-10

    def test_retry_exceptions_treated_as_bad_step(self):
        def fun_jac(x):
            if x[0] < 0:
                raise DomainError("left half plane")
            return np.array([np.sqrt(x[0]) - 1.0]), np.array(
                [[0.5 / max(np.sqrt(x[0]), 1e-6)]]
            )

        x = solve(fun_jac, [0.25], [0.0])
        assert_allclose(x[0], 1.0, atol=1e-10)

    def test_batch_rows_match_the_reference_solve(self):
        # six systems of size 2 in one batch, one per outcome; each row
        # must be the reference Newton on its system alone, bit for bit
        def sphere(x):
            return np.array([x[0] ** 2 + x[1] ** 2, x[0] - x[1]]), np.array(
                [[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]]
            )

        def flat(x):  # J = 0 at the start: LAPACK rejects the stack
            return np.array([x[0] ** 2, x[1] ** 2]), np.diag([2.0 * x[0], 2.0 * x[1]])

        def tiny(x):  # a step of 1e10 / 1e-300 overflows
            return np.array([1e-300 * x[0], x[1]]), np.diag([1e-300, 1.0])

        def root(x):  # the full first step lands on x1 = -3
            if x[0] <= 0:
                raise DomainError("closed left half plane")
            return np.array([np.sqrt(x[0]) - 1.0, x[1]]), np.diag([0.5 / np.sqrt(x[0]), 1.0])

        def uphill(x):  # the Jacobian's sign is wrong: no step descends
            return x.copy(), -np.eye(2)

        def creep(x):  # the Jacobian is 1000 times too steep
            return x.copy(), 1000.0 * np.eye(2)

        systems = [
            (sphere, [2.0, 0.5], [2.0, 0.0]),
            (flat, [0.0, 0.0], [1.0, 1.0]),
            (tiny, [0.0, 0.0], [1e10, 0.0]),
            (root, [9.0, 0.0], [0.0, 0.0]),
            (uphill, [1.0, 1.0], [0.0, 0.0]),
            (creep, [1.0, 1.0], [0.0, 0.0]),
        ]
        errors, outside, _ = self.check_batch(systems)
        assert 3 in outside
        kinds = [type(err).__name__ if err else None for err in errors]
        assert kinds == [None, "SingularJacobianError", "SingularJacobianError", None,
                         "NewtonConvergenceError", "NewtonConvergenceError"]
        assert "30 halvings" in str(errors[4]) and "50 iterations" in str(errors[5])

    def test_accepted_rounds_match_the_reference_solve(self):
        # every trial is accepted: the affine system is solved by its first
        # step, so the first round takes every system at once, the next
        # ones both sphere systems, and the last ones the slower sphere alone
        def sphere(x):
            return np.array([x[0] ** 2 + x[1] ** 2, x[0] - x[1]]), np.array(
                [[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]]
            )

        def affine(x):
            a = np.array([[2.0, 1.0], [0.0, 3.0]])
            return a @ x, a

        systems = [
            (sphere, [2.0, 0.5], [2.0, 0.0]),
            (affine, [0.0, 0.0], [1.0, 6.0]),
            (sphere, [0.5, 3.0], [8.0, 0.0]),
        ]
        errors, _, calls = self.check_batch(systems)
        assert errors == [None, None, None]
        assert calls[0] == [0, 1, 2] and calls[1] == [0, 2] and calls[-1] == [2]

    def test_late_exits_from_the_common_round_match_the_reference_solve(self):
        # both hole and kink halve their residual each round, so the first
        # rounds are common ones.  Hole's third trial, (1/8, 1/8), is outside
        # its domain, so its step is halved there; kink's second accepted
        # iterate, (1/4, 1/4), has a singular Jacobian, so its next solve fails
        def sphere(x):
            return np.array([x[0] ** 2 + x[1] ** 2, x[0] - x[1]]), np.array(
                [[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]]
            )

        def hole(x):
            if x[0] == 0.125:
                raise DomainError("a hole at x1 = 1/8")
            return x.copy(), 2.0 * np.eye(2)

        def kink(x):
            return x.copy(), (0.0 if x[0] == 0.25 else 2.0) * np.eye(2)

        systems = [
            (sphere, [2.0, 0.5], [2.0, 0.0]),
            (hole, [1.0, 1.0], [0.0, 0.0]),
            (kink, [1.0, 1.0], [0.0, 0.0]),
        ]
        errors, outside, calls = self.check_batch(systems)
        assert outside == [1]
        assert errors[:2] == [None, None] and type(errors[2]).__name__ == "SingularJacobianError"
        # two common rounds; in the third kink's solve fails and hole's trial
        # leaves the domain, and in the fourth hole takes its halved step
        assert calls[:4] == [[0, 1, 2], [0, 1, 2], [0, 1], [0, 1]]

    def check_batch(self, systems):
        """Solve ``systems`` (function, start, target) in one batch and
        check each row against the reference solve of its system alone;
        returns the errors, the systems whose trials left the domain and
        the systems evaluated in each round."""
        starts = [(np.array(x0), *fun_jac(np.array(x0))) for fun_jac, x0, _ in systems]
        outside = []
        calls = []

        def evaluate(rows, X):
            calls.append(rows.tolist())
            F, J, ok = np.zeros_like(X), np.zeros(X.shape + X.shape[1:]), np.ones(len(rows), dtype=bool)
            for i, (s, x) in enumerate(zip(rows, X)):
                try:
                    F[i], J[i] = systems[s][0](x)
                except DomainError:
                    ok[i] = False
                    outside.append(s)
            return F, J, ok

        start = tuple(np.array(part) for part in zip(*starts))
        targets = np.array([target for _, _, target in systems])
        X, F, J, errors = newton_batch(evaluate, start, targets)
        for i, ((fun_jac, _, target), begin) in enumerate(zip(systems, starts)):
            try:
                ref = reference_newton(fun_jac, begin, np.array(target))
            except NewtonError as exc:
                assert type(errors[i]) is type(exc) and str(errors[i]) == str(exc)
                if isinstance(exc, NewtonConvergenceError):
                    assert errors[i].best_x.tobytes() == exc.best_x.tobytes()
                    assert errors[i].best_residual == exc.best_residual
                    assert X[i].tobytes() == exc.best_x.tobytes()
                continue
            assert errors[i] is None
            for got, want in zip((X[i], F[i], J[i]), ref):
                assert got.tobytes() == want.tobytes()
        return errors, outside, calls


def brute_force_lp(c, a_ub, b_ub, a_eq=None, b_eq=None):
    """Enumerate basic feasible points of a bounded polytope.

    Every vertex of {x : A_ub x <= b_ub, A_eq x = b_eq} solves n active
    rows; trying all row subsets of size n is exact for small cases.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    rows = [(a_ub[i], b_ub[i]) for i in range(a_ub.shape[0])]
    eq_count = 0
    if a_eq is not None:
        a_eq = np.asarray(a_eq, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float)
        eq_count = a_eq.shape[0]
        rows = [(a_eq[i], b_eq[i]) for i in range(eq_count)] + rows
    n = c.size
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        if eq_count and not set(range(eq_count)) <= set(subset):
            continue
        a_sub = np.array([rows[i][0] for i in subset])
        b_sub = np.array([rows[i][1] for i in subset])
        if np.linalg.matrix_rank(a_sub) < n:
            continue
        x = np.linalg.solve(a_sub, b_sub)
        if np.all(a_ub @ x <= b_ub + 1e-9):
            if a_eq is not None and np.abs(a_eq @ x - b_eq).max() > 1e-9:
                continue
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best


class TestSimplex:
    def test_textbook_maximization(self):
        # max x + y over x,y >= 0, x + 2y <= 4, 3x + y <= 6 -> (8/5, 6/5)
        res = simplex_lp(
            c=[-1.0, -1.0],
            A_ub=[[1.0, 2.0], [3.0, 1.0]],
            b_ub=[4.0, 6.0],
            bounds=[(0, None), (0, None)],
        )
        assert res.status == "optimal"
        assert_allclose(res.value, -(8.0 / 5.0 + 6.0 / 5.0), atol=1e-9)

    def test_equality_constraint(self):
        res = simplex_lp(
            c=[1.0, 2.0],
            A_eq=[[1.0, 1.0]],
            b_eq=[1.0],
            bounds=[(0, None), (0, None)],
        )
        assert res.status == "optimal"
        assert_allclose(res.x, [1.0, 0.0], atol=1e-9)

    def test_infeasible(self):
        res = simplex_lp(
            c=[1.0],
            A_ub=[[1.0], [-1.0]],
            b_ub=[-1.0, -1.0],
            bounds=[(None, None)],
        )
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = simplex_lp(c=[-1.0], A_ub=[[0.0]], b_ub=[1.0], bounds=[(0, None)])
        assert res.status == "unbounded"

    def test_free_variables_by_default(self):
        # min x s.t. x >= -3 with free x hits the negative bound
        res = simplex_lp(c=[1.0], A_ub=[[-1.0]], b_ub=[3.0])
        assert res.status == "optimal"
        assert_allclose(res.x, [-3.0], atol=1e-9)

    def test_two_sided_bounds(self):
        res = simplex_lp(c=[-1.0, 1.0], bounds=[(-2.0, 5.0), (1.0, 4.0)])
        assert res.status == "optimal"
        assert_allclose(res.x, [5.0, 1.0], atol=1e-9)

    def test_degenerate_vertex_terminates(self):
        # three rows through one point; Bland's rule must not cycle
        res = simplex_lp(
            c=[-1.0, -1.0],
            A_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            b_ub=[1.0, 1.0, 2.0],
            bounds=[(0, None), (0, None)],
        )
        assert res.status == "optimal"
        assert_allclose(res.value, -2.0, atol=1e-9)

    def test_matches_brute_force_on_random_polytopes(self):
        rng = np.random.default_rng(11)
        tested = 0
        while tested < 25:
            n = int(rng.integers(2, 4))
            m = int(rng.integers(n + 1, n + 5))
            a_ub = rng.standard_normal((m, n))
            b_ub = rng.uniform(0.5, 2.0, size=m)  # origin strictly inside
            # box rows guarantee boundedness
            a_ub = np.vstack([a_ub, np.eye(n), -np.eye(n)])
            b_ub = np.concatenate([b_ub, np.full(2 * n, 10.0)])
            c = rng.standard_normal(n)
            oracle = brute_force_lp(c, a_ub, b_ub)
            res = simplex_lp(c=c, A_ub=a_ub, b_ub=b_ub)
            assert res.status == "optimal"
            assert_allclose(res.value, oracle, atol=1e-7)
            assert np.all(a_ub @ res.x <= b_ub + 1e-8)
            tested += 1

    def test_matches_brute_force_with_equalities(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = 3
            a_eq = rng.standard_normal((1, n))
            b_eq = np.zeros(1)
            a_ub = np.vstack([np.eye(n), -np.eye(n)])
            b_ub = np.full(2 * n, 1.0)
            c = rng.standard_normal(n)
            oracle = brute_force_lp(c, a_ub, b_ub, a_eq, b_eq)
            res = simplex_lp(c=c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq)
            assert res.status == "optimal"
            assert_allclose(res.value, oracle, atol=1e-7)


class TestMaskedNnls:
    # the routine minimizes ||A y + b||, so the scipy/lstsq oracles for
    # ||A y - t|| are queried with b = -t

    def test_all_nonnegative_matches_scipy(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.standard_normal((6, 4))
            t = rng.standard_normal(6)
            y, res = nnls(a, -t, np.ones(4, dtype=bool))
            y_ref, res_ref = scipy.optimize.nnls(a, t)
            assert_allclose(res, res_ref, atol=1e-9)
            assert_allclose(a @ y, a @ y_ref, atol=1e-8)

    def test_all_free_matches_lstsq(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((6, 3))
        t = rng.standard_normal(6)
        y, res = nnls(a, -t, np.zeros(3, dtype=bool))
        y_ref = np.linalg.lstsq(a, t, rcond=None)[0]
        assert_allclose(y, y_ref, atol=1e-9)
        assert_allclose(res, np.linalg.norm(a @ y_ref - t), atol=1e-9)

    def test_sign_constraint_binds(self):
        # unconstrained solution would be negative; constrained sits at 0
        a = np.array([[1.0], [1.0]])
        t = np.array([-1.0, -2.0])
        y, res = nnls(a, -t, np.ones(1, dtype=bool))
        assert_allclose(y, [0.0])
        assert_allclose(res, np.linalg.norm(t))

    def test_mixed_mask_kkt_conditions(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = rng.standard_normal((8, 5))
            b = rng.standard_normal(8)
            mask = rng.uniform(size=5) < 0.5
            y, res = nnls(a, b, mask)
            grad = a.T @ (a @ y + b)
            # free coordinates: stationarity; masked: sign + complementarity
            assert np.abs(grad[~mask]).max(initial=0.0) <= 1e-8
            assert y[mask].min(initial=0.0) >= -1e-12
            active = mask & (y <= 1e-12)
            inactive = mask & (y > 1e-12)
            assert np.abs(grad[inactive]).max(initial=0.0) <= 1e-8
            assert grad[active].min(initial=0.0) >= -1e-8
            assert_allclose(res, np.linalg.norm(a @ y + b), atol=1e-12)

    def test_exact_fit_zero_residual(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y_true = np.array([0.5, 0.25])
        y, res = nnls(a, -(a @ y_true), np.ones(2, dtype=bool))
        assert_allclose(y, y_true, atol=1e-12)
        assert res <= 1e-12

    def test_right_hand_side_bound_keeps_the_solve_finite(self):
        # any b within nnls_bound runs without an overflow warning, which
        # the test configuration turns into an error
        rng = np.random.default_rng(24)
        for scale in (1.0, 1e150, 1e300):
            a = scale * rng.standard_normal((4, 3))
            b = nnls_bound(a) * np.sign(rng.standard_normal(4))
            y, res = nnls(a, b, np.array([True, True, False]))
            assert np.isfinite(y).all() and np.isfinite(res)
        assert nnls_bound(np.zeros((2, 0))) == 0.5 * np.sqrt(np.finfo(float).max / 2)

    def test_stationarity_gradient_probe(self):
        # columns = constraint gradients, b = objective gradient: the
        # masked solve is the multiplier existence probe
        cols = np.array([[0.0, 0.0], [-2.0, -2.0]])  # gradients as columns
        grad_f = np.array([0.0, 1.0])
        y, res = nnls(cols, grad_f, np.ones(2, dtype=bool))
        assert res <= 1e-12
        assert_allclose(-2.0 * (y[0] + y[1]), -1.0, atol=1e-12)
        assert y.min() >= 0.0


class TestMinEigSym:
    def test_diagonal(self):
        val, vec = min_eig_sym(np.diag([3.0, -2.0, 5.0]))
        assert_allclose(val, -2.0)
        assert_allclose(np.abs(vec), [0.0, 1.0, 0.0], atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            min_eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unit_norm_eigvector(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((4, 4))
        h = a + a.T
        val, vec = min_eig_sym(h)
        assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-12)
        assert_allclose(h @ vec, val * vec, atol=1e-10)
