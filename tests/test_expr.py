"""Tests for parsing, evaluation, and forward derivative propagation.

The finite-difference routine serves as the independent oracle for the
propagated gradients and Hessians; parser behaviour is pinned against
hand-derived trees and error offsets.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlpcheck import expr
from nlpcheck.expr import (
    Binary,
    Const,
    DomainError,
    ParseError,
    Power,
    Unary,
    Var,
    evaluate,
    fd_grad_hess,
    grad_hess,
    parse,
    to_source,
)

# formulas over x1, x2 exercised repeatedly below; all smooth near the
# sampled boxes
CORPUS = [
    "x1^2 + (x2 - 1)^2 - 1",
    "1 - x1^2 - (x2 + 1)^2",
    "x1^2 - x2",
    "-x2",
    "sin(x1) * cos(x2)",
    "exp(x1 - x2^2)",
    "log(x1 + 2) / (x2 + 3)",
    "sqrt(x1 + 2) * x2",
    "x1 * x2 * (x1 - x2)",
    "(x1 + x2)^3 - x1 / (x2 + 2)",
]


def same_tree(a, b) -> bool:
    """``a == b`` for trees of any depth (the dataclass comparison recurses)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Binary):
            if x.op != y.op:
                return False
            stack += [(x.left, y.left), (x.right, y.right)]
        elif isinstance(x, Unary):
            if x.op != y.op:
                return False
            stack.append((x.arg, y.arg))
        elif isinstance(x, Power):
            if x.exponent != y.exponent:
                return False
            stack.append((x.base, y.base))
        elif x != y:  # a constant or a variable
            return False
    return True


class TestParse:
    def test_simple_variable(self):
        assert parse("x2", 2) == Var(2)

    def test_tangent_disk_tree(self):
        tree = parse("x1^2 + (x2 - 1)^2 - 1", 2)
        expected = Binary(
            "sub",
            Binary(
                "add",
                Power(Var(1), 2),
                Power(Binary("sub", Var(2), Const(1.0)), 2),
            ),
            Const(1.0),
        )
        assert tree == expected

    def test_unary_minus_binds_loosely(self):
        assert parse("-x1^2", 2) == Unary("neg", Power(Var(1), 2))

    def test_whitespace_insensitive(self):
        assert parse("x1   +x2", 2) == parse("x1+x2", 2)

    def test_function_call(self):
        assert parse("sin(x1)", 1) == Unary("sin", Var(1))

    def test_variable_index_zero_rejected(self):
        with pytest.raises(ParseError, match="variable index 0"):
            parse("x0 + 1", 2)

    def test_variable_index_beyond_n_rejected(self):
        with pytest.raises(ParseError, match="exceeds declared dimension"):
            parse("x3", 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError, match="negative integer exponent"):
            parse("x1^-2", 1)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError, match="integer"):
            parse("x1^2.5", 1)

    def test_exponent_at_limit_parses(self):
        assert parse(f"x1^{expr._MAX_EXPONENT}", 1) == Power(Var(1), expr._MAX_EXPONENT)

    def test_exponent_above_limit_rejected(self):
        with pytest.raises(ParseError, match="exceeds the limit") as err:
            parse(f"x1 + x1^{expr._MAX_EXPONENT + 1}", 1)
        assert err.value.offset == 8

    def test_syntax_error_carries_byte_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + * x2", 2)
        assert err.value.offset == 5

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("tan(x1)", 1)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("x1 x2", 2)

    @pytest.mark.parametrize("source", CORPUS)
    def test_roundtrip_through_printer(self, source):
        tree = parse(source, 2)
        assert parse(to_source(tree), 2) == tree

    def test_printer_handles_a_5000_term_sum(self):
        # the parser reads a flat sum without recursing, and so does the
        # printer's output: a left operand of the same precedence prints
        # without parentheses of its own
        terms = [f"x{i % 3 + 1}" for i in range(5000)]
        tree = parse(" + ".join(terms), 3)
        printed = to_source(tree)
        assert printed == "(" + " + ".join(terms) + ")"
        assert same_tree(parse(printed, 3), tree)

    @pytest.mark.parametrize(
        "source",
        [
            " + ".join(f"x{i % 3 + 1}" for i in range(1000)),
            " * ".join(f"x{i % 3 + 1}" if i % 2 else f"x{i % 3 + 1} / 2" for i in range(1000)),
            "x1 - x2 + x3",
            "x1 - (x2 - x3)",
            "x1 / (x2 / x3) * x1",
            "(x1 + x2) * x3 - x1 * (x2 + x3)",
            "-(x1 - x2) - x3",
        ],
        ids=["sum-1000", "mul-div-chain", "sub-add", "sub-of-sub", "div-of-div", "mixed", "neg"],
    )
    def test_roundtrip_of_long_and_mixed_chains(self, source):
        tree = parse(source, 3)
        assert same_tree(parse(to_source(tree), 3), tree)

    def test_right_operands_keep_their_parentheses(self):
        assert to_source(parse("x1 - (x2 - x3)", 3)) == "(x1 - (x2 - x3))"
        assert to_source(parse("x1 - x2 + x3", 3)) == "(x1 - x2 + x3)"
        assert to_source(parse("x1 * x2 + x3", 3)) == "((x1 * x2) + x3)"


class TestEvaluate:
    def test_coordinate(self):
        assert evaluate(parse("x2", 2), np.array([3.0, 7.0])) == 7.0

    def test_disk_at_origin(self):
        e = parse("x1^2 + (x2 - 1)^2 - 1", 2)
        assert evaluate(e, np.zeros(2)) == 0.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(parse("1 / x1", 1), np.zeros(1))

    def test_log_domain(self):
        with pytest.raises(DomainError, match="log"):
            evaluate(parse("log(x1)", 1), np.array([-1.0]))

    def test_sqrt_domain(self):
        with pytest.raises(DomainError, match="sqrt"):
            evaluate(parse("sqrt(x1)", 1), np.array([-1.0]))

    def test_deterministic_bits(self):
        e = parse("sin(x1) * exp(x2) / (x1 + 2)", 2)
        x = np.array([0.3, -0.7])
        assert evaluate(e, x) == evaluate(e, x)


class TestGradHess:
    def test_disk_derivatives_at_origin(self):
        t = grad_hess(parse("x1^2 + (x2 - 1)^2 - 1", 2), np.zeros(2))
        assert t.value == 0.0
        assert_allclose(t.grad, [0.0, -2.0], atol=1e-14)
        assert_allclose(t.hess, 2.0 * np.eye(2), atol=1e-14)

    def test_reflected_disk_derivatives_at_origin(self):
        t = grad_hess(parse("1 - x1^2 - (x2 + 1)^2", 2), np.zeros(2))
        assert t.value == 0.0
        assert_allclose(t.grad, [0.0, -2.0], atol=1e-14)
        assert_allclose(t.hess, -2.0 * np.eye(2), atol=1e-14)

    def test_parabola_derivatives_at_origin(self):
        t = grad_hess(parse("x1^2 - x2", 2), np.zeros(2))
        assert_allclose(t.grad, [0.0, -1.0], atol=1e-14)
        assert_allclose(t.hess, np.diag([2.0, 0.0]), atol=1e-14)

    def test_linear_objective(self):
        t = grad_hess(parse("x2", 2), np.array([5.0, -3.0]))
        assert t.value == -3.0
        assert_allclose(t.grad, [0.0, 1.0])
        assert_allclose(t.hess, np.zeros((2, 2)))

    def test_value_matches_evaluate_bitwise(self):
        x = np.array([0.37, -0.81])
        for source in CORPUS:
            e = parse(source, 2)
            assert grad_hess(e, x).value == evaluate(e, x)

    def test_hessian_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        for source in CORPUS:
            e = parse(source, 2)
            for _ in range(10):
                x = rng.uniform(-0.9, 0.9, size=2)
                H = grad_hess(e, x).hess
                assert np.array_equal(H, H.T)

    def test_sqrt_derivative_rejected_at_zero(self):
        with pytest.raises(DomainError, match="sqrt derivative"):
            grad_hess(parse("sqrt(x1)", 1), np.zeros(1))


class TestFiniteDifferenceOracle:
    def test_square_gradient(self):
        t = fd_grad_hess(parse("x1^2", 1), np.array([1.0]))
        assert abs(t.grad[0] - 2.0) <= 1e-7

    def test_matches_ad_on_disk(self):
        e = parse("x1^2 + (x2 - 1)^2 - 1", 2)
        x = np.array([0.3, 0.2])
        ad = grad_hess(e, x)
        fd = fd_grad_hess(e, x)
        assert_allclose(fd.grad, ad.grad, rtol=1e-6, atol=1e-8)
        assert_allclose(fd.hess, ad.hess, rtol=1e-4, atol=1e-6)

    def test_stencil_domain_error(self):
        with pytest.raises(DomainError):
            fd_grad_hess(parse("log(x1)", 1), np.array([1e-9]), step=1e-4)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            fd_grad_hess(parse("x1", 1), np.zeros(1), step=0.0)

    @pytest.mark.parametrize("source", CORPUS)
    def test_agreement_at_random_points(self, source):
        # step 1e-4 puts the truncation error around 1e-8 for these scales
        e = parse(source, 2)
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.uniform(-0.9, 0.9, size=2)
            ad = grad_hess(e, x)
            fd = fd_grad_hess(e, x)
            scale_g = 1.0 + np.abs(ad.grad).max()
            scale_h = 1.0 + np.abs(ad.hess).max()
            assert np.abs(ad.grad - fd.grad).max() <= 1e-6 * scale_g
            assert np.abs(ad.hess - fd.hess).max() <= 1e-4 * scale_h
