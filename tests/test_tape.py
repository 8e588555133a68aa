"""Bit-level tests of the expression tape against the reference interpreters.

``tests/_oracles.py`` keeps the recursive interpreters the tape replaced
(``reference_evaluate``, ``reference_grad_hess``) and the per-tape,
one-point forward sweep the level-scheduled ``TapeSet`` replaced
(``reference_sweep``).  On seeded random expressions that use every
operation, the one-point entry ``TapeSet.at`` must reproduce the recursive
interpreters' values, gradients and Hessians exactly, with the signs of
zeros; the multi-point ``TapeSet.evaluate`` must reproduce
``reference_sweep`` entry by entry at orders 0, 1 and 2, and fail on
exactly the entries where it raises.
"""

import math
import tracemalloc

import numpy as np
import pytest
from _oracles import (
    RefDomainError,
    reference_evaluate,
    reference_grad_hess,
    reference_sweep,
    same_bits,
)

from nlpcheck import linalg
from nlpcheck.expr import (
    Binary,
    Const,
    DomainError,
    ExprError,
    Power,
    Unary,
    TapeSet,
    Var,
    compile_tape,
    compile_tapes,
    evaluate,
    grad_hess,
    parse,
)
from nlpcheck.linalg import newton_solve

N = 3
UNARY = ("neg", "sin", "cos", "exp", "log", "sqrt")
BINARY = ("add", "sub", "mul", "div")
CONSTS = (0.0, 0.5, 1.0, 2.0, 3.0, 1e-3)


def random_expr(rng, depth):
    """A random tree over x1..xN; leaves grow likelier with depth."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.7:
            return Var(int(rng.integers(1, N + 1)))
        return Const(float(rng.choice(CONSTS)))
    kind = rng.random()
    if kind < 0.35:
        return Unary(str(rng.choice(UNARY)), random_expr(rng, depth - 1))
    if kind < 0.85:
        return Binary(
            str(rng.choice(BINARY)), random_expr(rng, depth - 1), random_expr(rng, depth - 1)
        )
    return Power(random_expr(rng, depth - 1), int(rng.integers(0, 5)))


def random_point(rng):
    """Mixed magnitudes, signs and exact zeros, so signed zeros show up."""
    return np.array([float(rng.choice([0.0, -0.0, 1.0, -2.5, rng.normal()])) for _ in range(N)])


def corpus(seed=0, count=300):
    rng = np.random.default_rng(seed)
    exprs = [random_expr(rng, 5) for _ in range(count)]
    # every operation at least once, whatever the draws
    exprs += [parse(f"{f}(x1 + 2)", N) for f in ("sin", "cos", "exp", "log", "sqrt")]
    exprs += [parse("-(x1 * x2) / (x3 - 4) + x2^3 - x1^0", N)]
    points = [random_point(rng) for _ in range(12)]
    return exprs, points


def outcome(fn, *args):
    """The call's result, or the string "domain" when it left the domain."""
    try:
        return fn(*args)
    except (DomainError, RefDomainError):
        return "domain"


class TestAgainstReference:
    def test_value_gradient_and_hessian_match_bit_for_bit(self):
        exprs, points = corpus()
        checked = 0
        for e in exprs:
            sweep = compile_tapes([e])
            for x in points:
                value, grad, jet = (outcome(sweep.at, x, None, order) for order in range(3))
                ref_value = outcome(reference_evaluate, e, x)
                if ref_value == "domain" or value == "domain":
                    assert ref_value == value == "domain"
                else:
                    assert value[1] is None and value[2] is None
                    assert same_bits(value[0][0], ref_value)
                ref = outcome(reference_grad_hess, e, x)
                if isinstance(ref, str) or isinstance(jet, str) or isinstance(grad, str):
                    assert ref == jet == grad == "domain"
                    continue
                assert same_bits(jet[0][0], ref.value)
                assert same_bits(jet[1][0], ref.grad)
                assert same_bits(jet[2][0], ref.hess)
                assert grad[2] is None
                assert same_bits(grad[0][0], ref.value)
                assert same_bits(grad[1][0], ref.grad)
                checked += 1
        # most pairs are inside the domain and compared in full
        assert checked > len(exprs) * len(points) // 2

    def test_public_wrappers_use_the_tape(self):
        exprs, points = corpus(seed=1, count=40)
        for e in exprs:
            for x in points:
                ref = outcome(reference_grad_hess, e, x)
                if isinstance(ref, str):
                    continue
                assert same_bits(evaluate(e, x), ref.value)
                t = grad_hess(e, x)
                assert same_bits(t.grad, ref.grad) and same_bits(t.hess, ref.hess)

    def test_signed_zero_of_power_gradient_is_kept(self):
        # x1^2 at x1 = -0.0 passes through -0.0 * 0.0 terms; the sign
        # reaches the gradient exactly as in the recursive interpreter
        e = parse("x1^2 * x2", 2)
        x = np.array([-0.0, -3.0])
        assert same_bits(grad_hess(e, x).grad, reference_grad_hess(e, x).grad)


def check_sweep(exprs, X, rows=None):
    """Compare a sweep of ``exprs`` at orders 0, 1 and 2 entry by entry
    with the one-point reference sweep; return the ``ok`` table of each
    order."""
    sweep = compile_tapes(exprs)
    picked = list(range(len(exprs))) if rows is None else list(rows)
    P, n = X.shape
    oks = []
    for order in range(3):
        values, grads, hesses, ok = sweep.evaluate(X, rows, order)
        assert values.shape == (P, len(picked))
        assert ok.shape == (P, len(picked)) and ok.dtype == bool
        assert (grads is None) == (order < 1) and (hesses is None) == (order < 2)
        if order:
            assert grads.shape == (P, len(picked), n)
        if order == 2:
            assert hesses.shape == (P, len(picked), n, n)
        tables = (values, grads, hesses)
        for i, x in enumerate(X):
            for j, r in enumerate(picked):
                expect = outcome(reference_sweep, sweep.tapes[r], x, order)
                if expect == "domain":
                    assert not ok[i, j]
                else:
                    assert ok[i, j]
                    for k in range(order + 1):
                        assert same_bits(tables[k][i, j], expect[k])
        oks.append(ok)
    # an entry that fails at one order fails at every higher one
    assert (oks[1] <= oks[0]).all() and (oks[2] <= oks[1]).all()
    return oks


class TestBatched:
    def check_rows(self, e, X):
        """The one-output sweep of ``e`` against the reference at every
        order; returns the gradient mode's ``ok``."""
        return check_sweep([e], X)[1][:, 0]

    def test_rows_match_the_per_point_gradient(self):
        exprs, points = corpus(seed=2, count=150)
        X = np.array(points)
        failed = 0
        for e in exprs:
            failed += int((~self.check_rows(e, X)).sum())
        assert failed > 0  # the random corpus leaves the domain somewhere

    @pytest.mark.parametrize(
        "source, bad_rows",
        [
            ("log(x1) + x2", [0, 2]),
            ("sqrt(x1 + x2)", [0, 2]),  # sqrt(0) has no derivative
            ("x2 / (x1 - 1)", [3]),
            ("1 / (x1 - x1)", [0, 1, 2, 3]),
            ("exp(1000 * x1) - 1", [3]),
            ("x1 * (2 - 2) + log(0 * x2)", [0, 1, 2, 3]),
            ("log(2 - 2) + x1", [0, 1, 2, 3]),  # a constant subtree fails everywhere
        ],
    )
    def test_ok_is_false_exactly_where_the_point_raises(self, source, bad_rows):
        X = np.array([[0.0, 0.0], [0.5, 0.5], [-1.0, -2.0], [1.0, 0.25]])
        ok = self.check_rows(parse(source, 2), X)
        assert np.flatnonzero(~ok).tolist() == bad_rows

    @pytest.mark.parametrize(
        "source, x, fails",
        [
            ("sqrt(x1)", 0.0, [False, True, True]),  # a value, but no derivative
            ("log(x1)", 1e-170, [False, False, True]),  # 1/x1^2 overflows
            ("sqrt(x1)", 1e-320, [False, False, True]),
        ],
    )
    def test_failure_depends_on_the_order(self, source, x, fails):
        oks = check_sweep([parse(source, 1)], np.array([[x], [1.0]]))
        assert [not ok[0, 0] for ok in oks] == fails
        assert all(ok[1, 0] for ok in oks)

    def test_constant_expression_broadcasts(self):
        sweep = compile_tapes([parse("2^3 - 1", 2)])
        values, grads, hesses, ok = sweep.evaluate(np.ones((3, 2)), order=2)
        assert values.tolist() == [[7.0]] * 3
        assert same_bits(grads, np.zeros((3, 1, 2))) and ok.all()
        assert same_bits(hesses, np.zeros((3, 1, 2, 2)))

    def test_no_rows(self):
        sweep = compile_tapes([parse("sin(x1)", 2)])
        values, grads, hesses, ok = sweep.evaluate(np.zeros((0, 2)), order=2)
        assert values.shape == (0, 1) and grads.shape == (0, 1, 2) and ok.shape == (0, 1)
        assert hesses.shape == (0, 1, 2, 2)


class TestSweep:
    def test_every_output_matches_the_per_point_gradient(self):
        exprs, points = corpus(seed=3, count=150)
        X = np.array(points)
        failed = 0
        for k in range(0, len(exprs), 5):  # several expressions per sweep
            failed += int((~check_sweep(exprs[k : k + 5], X)[1]).sum())
        for k in range(0, 40, 2):  # outputs that share whole subtrees
            a, b = exprs[k], exprs[k + 1]
            check_sweep([a, b, Binary("mul", a, b), Binary("div", b, Unary("sin", a))], X)
        assert failed > 0  # the random corpus leaves the domain somewhere

    def test_identical_subtrees_share_a_slot(self):
        exprs = [parse("x1^2 + x2^2 - 1", 2), parse("x1^2 + x2^2 + x1", 2)]
        sweep = compile_tapes(exprs)
        # x1, x2, the constant 1 (the power's start and the literal), the
        # four products of the squares, their sum, and one root each
        assert sum(len(tape.code) for tape in sweep.tapes) == 14
        assert sweep.size == 10
        assert len(sweep.consts) == 1 and len(sweep.variables) == 2
        for op, dst, a, b in sweep.groups:
            # each group is one contiguous slice whose operands come earlier
            assert (a < dst.start).all() and len(a) == dst.stop - dst.start
        X = np.array([[0.5, -2.0], [-0.0, 3.0]])
        check_sweep(exprs, X)

    def test_failure_clears_only_the_outputs_that_read_it(self):
        exprs = [parse(src, 2) for src in ("log(x1)", "x2 + 1", "log(x1) * x2", "x2 / x1")]
        X = np.array([[1.0, 2.0], [-1.0, 2.0], [0.0, -1.0]])
        for ok in check_sweep(exprs, X):
            assert ok.tolist() == [
                [True, True, True, True],
                [False, True, False, True],
                [False, True, False, False],
            ]

    def test_zeroth_power_and_constant_subtrees_still_fail(self):
        # u^0 reads no value of u, but the one-point sweep evaluates u;
        # a constant subtree outside the domain fails at every point
        exprs = [parse(src, 2) for src in ("log(x1)^0 + x2", "x1 + log(2 - 2)", "x1^0", "x2")]
        X = np.array([[1.0, 2.0], [-1.0, 0.5]])
        for ok in check_sweep(exprs, X):
            assert ok.tolist() == [[True, False, True, True], [False, False, True, True]]

    def test_requested_rows(self):
        exprs, points = corpus(seed=4, count=12)
        X = np.array(points)
        check_sweep(exprs, X, [7, 0, 3])
        check_sweep(exprs, X, [5])
        whole = compile_tapes(exprs).evaluate(X, order=2)
        part = compile_tapes(exprs).evaluate(X, [7, 0, 3], order=2)
        for full, sub in zip(whole, part):
            assert same_bits(full[:, [7, 0, 3]], sub)

    def test_one_pass_equals_chunked_passes(self, monkeypatch):
        # a call that one pass over one chunk of rows covers makes one
        # sweep; chunks of two rows and passes of two points must give the
        # same ok and the same bits wherever ok holds (a failed entry is
        # meaningless: its NaNs may differ in sign)
        exprs, points = corpus(seed=5, count=12)
        X = np.array(points)
        one = compile_tapes(exprs)
        runs = []
        run = TapeSet._run

        def counting(self, plan, X, order):
            runs.append(len(X))
            return run(self, plan, X, order)

        monkeypatch.setattr(TapeSet, "_run", counting)
        whole = [one.evaluate(X, order=order) for order in range(3)]
        assert runs == [len(X)] * 3
        monkeypatch.setattr(linalg, "stack_chunk", lambda floats: 2)
        chunked = compile_tapes(exprs)
        failed = 0
        for order, tables in enumerate(whole):
            runs.clear()
            again = chunked.evaluate(X, order=order)
            assert len(runs) == len(X) // 2 * -(-len(exprs) // 2)
            ok = tables[3]
            assert np.array_equal(again[3], ok)
            for got, want in zip(again[:3], tables[:3]):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.shape == want.shape and same_bits(got[ok], want[ok])
            failed += int((~ok).sum())
        assert failed > 0  # the corpus leaves the domain somewhere

    def test_gather_takes_each_line_straight_from_the_sweep(self, monkeypatch):
        # point i evaluates line at[i]: tapes and coordinates (~k is x_{k+1};
        # x4 has no slot, since the corpus uses x1..x3).  Each entry has the
        # bits of evaluate's, or of the coordinate and its unit gradient,
        # in one pass or in passes of two points
        exprs, points = corpus(seed=6, count=12)
        X = np.hstack([np.array(points), np.arange(len(points))[:, None] - 5.0])
        values, grads, _, ok = compile_tapes(exprs).evaluate(X)
        lines = np.array([[0, 5, ~3, ~0], [7, 7, 2, ~1], [~3, ~2, ~1, ~0]])
        at = np.arange(len(X)) % len(lines)
        runs = []
        run = TapeSet._run

        def counting(self, plan, X, order):
            runs.append(len(X))
            return run(self, plan, X, order)

        monkeypatch.setattr(TapeSet, "_run", counting)
        failed = 0
        for step in (len(X), 2):
            monkeypatch.setattr(linalg, "stack_chunk", lambda floats: step)
            runs.clear()
            F, J, fine = compile_tapes(exprs).gather(lines, 4).evaluate(X, at)
            assert runs == [step] * (len(X) // step)
            for i, line in enumerate(lines[at]):
                tapes = [r for r in line if r >= 0]
                assert fine[i] == ok[i, tapes].all()
                failed += not fine[i]
                for j, r in enumerate(line):
                    if r < 0:
                        assert same_bits(F[i, j], X[i, ~r]) and same_bits(J[i, j], np.eye(4)[~r])
                    elif ok[i, r]:
                        assert same_bits(F[i, j], values[i, r]) and same_bits(J[i, j], grads[i, r])
        assert failed > 0  # some line leaves the domain somewhere

    def test_zero_outputs_and_zero_points(self):
        values, grads, _, ok = compile_tapes([]).evaluate(np.ones((3, 2)))
        assert values.shape == (3, 0) and grads.shape == (3, 0, 2) and ok.shape == (3, 0)
        sweep = compile_tapes([parse("sin(x1)", 2), parse("x2", 2)])
        values, grads, _, ok = sweep.evaluate(np.zeros((0, 2)))
        assert values.shape == (0, 2) and grads.shape == (0, 2, 2) and ok.shape == (0, 2)
        values, grads, _, ok = sweep.evaluate(np.ones((2, 2)), [])
        assert values.shape == (2, 0) and grads.shape == (2, 0, 2) and ok.shape == (2, 0)

    def test_missing_coordinate(self):
        sweep = compile_tapes([parse("x1", 3), parse("x3", 3)])
        sweep.evaluate(np.zeros((2, 1)), [0])
        with pytest.raises(ExprError, match="expression uses x3"):
            sweep.evaluate(np.zeros((2, 1)))

    def test_gradient_table_memory_is_bounded(self, monkeypatch):
        # about 320 slots in R^10: the whole (slots, points, n) table at
        # 1000 points would take some 28 MB.  The point chunks keep a
        # chunk's table and a group's temporaries within the stacking
        # budget (256 KiB here), so the peak is that plus the results
        monkeypatch.setattr(linalg, "_STACK_BYTES", 1 << 18)
        n, P = 10, 1000
        terms = [f"sin({j}*x{i})" for i in range(1, n + 1) for j in range(1, 11)]
        while len(terms) > 1:  # a balanced sum: few levels, few groups
            terms = [f"({' + '.join(terms[k : k + 2])})" for k in range(0, len(terms), 2)]
        exprs = [parse(terms[0], n)]
        sweep = compile_tapes(exprs)
        limit = linalg._STACK_BYTES + P * (n + 1) * 8
        assert sweep.size * P * (n + 1) * 8 > 10 * limit
        X = np.random.default_rng(6).standard_normal((P, n))
        tracemalloc.start()
        try:
            values, grads, _, ok = sweep.evaluate(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ok.all() and grads.shape == (P, 1, n)
        assert peak < limit
        check_sweep(exprs, X[:3])

    def test_hessian_table_memory_is_bounded(self, monkeypatch):
        # 60 rows of 8 slots each in R^60: one point's Hessian table over
        # every slot would take some 10 MB.  The rows go in chunks whose
        # tables, with a group's temporaries, fit within the stacking
        # budget (2 MiB here: one row a chunk), so the peak is that plus
        # the results
        monkeypatch.setattr(linalg, "_STACK_BYTES", 1 << 21)
        n = 60
        exprs = [parse(f"sin(x{i}) * x{i % n + 1} + x{i}^2", n) for i in range(1, n + 1)]
        sweep = compile_tapes(exprs)
        results = n * (1 + n + n * n) * 8
        limit = linalg._STACK_BYTES + results
        assert sweep.size * (1 + n + n * n) * 8 > 2 * limit
        x = np.random.default_rng(7).standard_normal(n)
        tracemalloc.start()
        try:
            values, grads, hesses = sweep.at(x, order=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hesses.shape == (n, n, n)
        assert peak < limit
        for j in (0, 1, 2, 3, n - 1):
            expect = reference_sweep(sweep.tapes[j], x, 2)
            for got, ref in zip((values[j], grads[j], hesses[j]), expect):
                assert same_bits(got, ref)


class TestDomain:
    def test_exp_overflow_is_a_domain_error_in_every_mode(self):
        sweep = compile_tapes([parse("exp(1000 * x1)", 1)])
        x = np.array([1.0])
        for order in range(3):
            with pytest.raises(DomainError, match="exp overflows"):
                sweep.at(x, order=order)
            assert not sweep.evaluate(x[None], order=order)[3][0, 0]

    @pytest.mark.parametrize("source, x", [("log(x1)", 1e-170), ("sqrt(x1)", 1e-320)])
    def test_curvature_overflow_is_a_domain_error_of_the_jet(self, source, x):
        sweep = compile_tapes([parse(source, 1)])
        sweep.at(np.array([x]), order=1)
        with pytest.raises(DomainError, match="second derivative overflows"):
            sweep.at(np.array([x]), order=2)

    def test_sin_of_infinity_is_a_domain_error(self):
        x = np.array([1e300])
        with pytest.raises(DomainError, match="sin of non-finite"):
            evaluate(parse("sin(x1 * x1)", 1), x)

    def test_sqrt_at_zero_has_a_value_but_no_derivative(self):
        sweep = compile_tapes([parse("sqrt(x1)", 1)])
        assert sweep.at(np.zeros(1), order=0)[0].tolist() == [0.0]
        with pytest.raises(DomainError, match="derivative undefined"):
            sweep.at(np.zeros(1), order=1)

    def test_first_failing_node_in_post_order_is_reported(self):
        with pytest.raises(DomainError, match="log of non-positive value -1.0"):
            evaluate(parse("log(x1) + 1 / (x1 + 1)", 1), np.array([-1.0]))

    def test_raising_entry_names_its_rows_first_failure_in_post_order(self):
        # row 1 reads log(x1) through the slot row 0 computes.  Its sqrt
        # comes first in post-order, but one level later in the slots
        exprs = [parse("log(x1)", 2), parse("sqrt(x2 - 5) + log(x1)", 2)]
        sweep = compile_tapes(exprs)
        both = np.array([-1.0, 0.0])
        for order in range(3):
            with pytest.raises(DomainError, match=r"^sqrt of negative value -5\.0$") as info:
                sweep.at(both, [1, 0], order)
            assert info.value.row == 1 and info.value.node is exprs[1].left
            with pytest.raises(DomainError, match=r"^log of non-positive value -1\.0$") as info:
                sweep.at(both, order=order)
            assert info.value.row == 0 and info.value.node is exprs[0]
            # only the shared slot fails: the error names row 1's own node
            with pytest.raises(DomainError, match=r"^log of non-positive value -1\.0$") as info:
                sweep.at(np.array([-1.0, 9.0]), [1], order)
            assert info.value.row == 1 and info.value.node is exprs[1].right
        with pytest.raises(DomainError, match="^division by zero$") as info:
            compile_tapes([parse("x1 / (x2 - x2)", 2)]).at(both, order=0)
        assert info.value.row == 0

    def test_missing_coordinate(self):
        with pytest.raises(ExprError, match="point has 1 coordinates but expression uses x3"):
            evaluate(parse("x1 + x3 + x2", 3), np.zeros(1))

    def test_newton_retries_a_step_that_overflows(self):
        # the first full step from -7 lands near 1089, where exp overflows;
        # the halved steps come back inside and converge to log(1) = 0
        sweep = compile_tapes([parse("exp(x1)", 1)])

        def fun_jac(x):
            values, grads, _ = sweep.at(x, order=1)
            return values, grads

        x0 = np.array([-7.0])
        root, _, _ = newton_solve(fun_jac, (x0, *fun_jac(x0)), np.array([1.0]))
        assert abs(root[0]) <= 1e-12


class TestCompile:
    def test_deep_sum_compiles_without_recursion(self):
        depth = 5000
        e = Var(1)
        for _ in range(depth - 1):
            e = Binary("add", e, Var(1))
        tape = compile_tape(e)
        assert len(tape.code) == 2 * depth - 1
        values, grads, _ = compile_tapes([e]).at(np.array([1.0]), order=1)
        assert values.tolist() == [depth] and grads.tolist() == [[float(depth)]]

    def test_post_order_layout(self):
        tape = compile_tape(parse("x1 * (x2 - 1)", 2))
        ops = [op for op, *_ in tape.code]
        assert len(ops) == 5 and tape.max_index == 2
        # var, var, const, sub, mul: operands always precede their node
        assert all(a < k and b < k for k, (op, a, b, _) in enumerate(tape.code) if op >= 3)
        assert math.isclose(reference_sweep(tape, np.array([2.0, 4.0]), 0)[0], 6.0)

    def test_not_an_expression(self):
        with pytest.raises(TypeError):
            compile_tape(Unary("tan", Var(1)))
        with pytest.raises(TypeError):
            compile_tape("x1")
