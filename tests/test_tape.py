"""Bit-level tests of the expression tape against the recursive reference.

``tests/_oracles.py`` keeps the recursive interpreters the tape replaced.
On seeded random expressions that use every operation, each tape mode
must reproduce their values, gradients and Hessians exactly, with the
signs of zeros; the batched mode must reproduce the per-point gradient
mode row by row and fail on exactly the rows where it raises.
"""

import math

import numpy as np
import pytest
from _oracles import RefDomainError, reference_evaluate, reference_grad_hess, same_bits

from nlpcheck.expr import (
    Binary,
    Const,
    DomainError,
    ExprError,
    Power,
    Unary,
    Var,
    compile_tape,
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
            tape = compile_tape(e)
            for x in points:
                ref_value = outcome(reference_evaluate, e, x)
                value = outcome(tape.value, x)
                if ref_value == "domain" or value == "domain":
                    assert ref_value == value == "domain"
                else:
                    assert same_bits(value, ref_value)
                ref = outcome(reference_grad_hess, e, x)
                jet = outcome(tape.jet, x)
                grad = outcome(tape.gradient, x)
                if isinstance(ref, str) or isinstance(jet, str) or isinstance(grad, str):
                    assert ref == jet == grad == "domain"
                    continue
                assert same_bits(jet.value, ref.value)
                assert same_bits(jet.grad, ref.grad)
                assert same_bits(jet.hess, ref.hess)
                assert same_bits(grad[0], ref.value)
                assert same_bits(grad[1], jet.grad)
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


class TestBatched:
    def check_rows(self, tape, X):
        values, grads, ok = tape.gradients(X)
        assert values.shape == (X.shape[0],) and grads.shape == X.shape
        assert ok.shape == (X.shape[0],) and ok.dtype == bool
        for r, x in enumerate(X):
            expect = outcome(tape.gradient, x)
            if expect == "domain":
                assert not ok[r]
            else:
                assert ok[r]
                assert same_bits(values[r], expect[0])
                assert same_bits(grads[r], expect[1])
        return ok

    def test_rows_match_the_per_point_gradient(self):
        exprs, points = corpus(seed=2, count=150)
        X = np.array(points)
        failed = 0
        for e in exprs:
            failed += int((~self.check_rows(compile_tape(e), X)).sum())
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
        ok = self.check_rows(compile_tape(parse(source, 2)), X)
        assert np.flatnonzero(~ok).tolist() == bad_rows

    def test_constant_expression_broadcasts(self):
        values, grads, ok = compile_tape(parse("2^3 - 1", 2)).gradients(np.ones((3, 2)))
        assert values.tolist() == [7.0] * 3
        assert same_bits(grads, np.zeros((3, 2))) and ok.all()

    def test_no_rows(self):
        values, grads, ok = compile_tape(parse("sin(x1)", 2)).gradients(np.zeros((0, 2)))
        assert values.shape == (0,) and grads.shape == (0, 2) and ok.shape == (0,)


class TestDomain:
    def test_exp_overflow_is_a_domain_error_in_every_mode(self):
        e = parse("exp(1000 * x1)", 1)
        tape = compile_tape(e)
        x = np.array([1.0])
        for call in (tape.value, tape.gradient, tape.jet):
            with pytest.raises(DomainError, match="exp overflows"):
                call(x)
        assert not tape.gradients(x[None])[2][0]

    @pytest.mark.parametrize("source, x", [("log(x1)", 1e-170), ("sqrt(x1)", 1e-320)])
    def test_curvature_overflow_is_a_domain_error_of_the_jet(self, source, x):
        tape = compile_tape(parse(source, 1))
        tape.gradient(np.array([x]))
        with pytest.raises(DomainError, match="second derivative overflows"):
            tape.jet(np.array([x]))

    def test_sin_of_infinity_is_a_domain_error(self):
        x = np.array([1e300])
        with pytest.raises(DomainError, match="sin of non-finite"):
            evaluate(parse("sin(x1 * x1)", 1), x)

    def test_sqrt_at_zero_has_a_value_but_no_derivative(self):
        tape = compile_tape(parse("sqrt(x1)", 1))
        assert tape.value(np.zeros(1)) == 0.0
        with pytest.raises(DomainError, match="derivative undefined"):
            tape.gradient(np.zeros(1))

    def test_first_failing_node_in_post_order_is_reported(self):
        with pytest.raises(DomainError, match="log of non-positive value -1.0"):
            evaluate(parse("log(x1) + 1 / (x1 + 1)", 1), np.array([-1.0]))

    def test_missing_coordinate(self):
        with pytest.raises(ExprError, match="point has 1 coordinates but expression uses x3"):
            compile_tape(parse("x1 + x3 + x2", 3)).value(np.zeros(1))

    def test_newton_retries_a_step_that_overflows(self):
        # the first full step from -7 lands near 1089, where exp overflows;
        # the halved steps come back inside and converge to log(1) = 0
        tape = compile_tape(parse("exp(x1)", 1))

        def fun_jac(x):
            value, grad = tape.gradient(x)
            return np.array([value]), grad.reshape(1, 1)

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
        value, grad = tape.gradient(np.array([1.0]))
        assert value == depth and grad.tolist() == [float(depth)]

    def test_post_order_layout(self):
        tape = compile_tape(parse("x1 * (x2 - 1)", 2))
        ops = [op for op, *_ in tape.code]
        assert len(ops) == 5 and tape.max_index == 2
        # var, var, const, sub, mul: operands always precede their node
        assert all(a < k and b < k for k, (op, a, b, _) in enumerate(tape.code) if op >= 3)
        assert math.isclose(tape.value(np.array([2.0, 4.0])), 6.0)

    def test_not_an_expression(self):
        with pytest.raises(TypeError):
            compile_tape(Unary("tan", Var(1)))
        with pytest.raises(TypeError):
            compile_tape("x1")
