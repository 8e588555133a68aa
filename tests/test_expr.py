"""Tests for parsing, evaluation, and forward derivative propagation.

The finite-difference routine of ``tests/_oracles.py`` serves as the
independent oracle for the propagated gradients and Hessians.  Parser behaviour is pinned against
hand-built trees and error offsets: trees exist only in
``tests/_oracles.py``, so a parse is checked by its slots, against those of
the tree's printed source (``reference_to_source``), and by its sweep,
bit for bit against the tree's ``reference_sweep``.
"""

import random
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlpcheck import expr
from nlpcheck.expr import (
    DomainError,
    ParseError,
    evaluate,
    grad_hess,
    parse,
)

from _oracles import (
    Binary,
    Const,
    Power,
    Unary,
    Var,
    fd_grad_hess,
    reference_parse,
    reference_sweep,
    reference_to_source,
    same_bits,
    slot_tables,
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

# coordinates of the seeded points: zeros of both signs, both signs, and
# values where log, sqrt and division leave their domains
COORDINATES = np.array([0.0, -0.0, 0.5, -1.5, 2.0, 3.25])


def points(n, rng=None):
    """Three seeded points in R^n."""
    rng = np.random.default_rng(26) if rng is None else rng
    return rng.choice(COORDINATES, size=(3, n))


def assert_sweeps_like(sweep, tree, X):
    """Output 0 of ``sweep`` against ``reference_sweep(tree)`` at the rows
    of ``X``, at orders 0, 1 and 2: the same bits, or the same
    ``DomainError`` message wherever the reference raises."""
    for order in range(3):
        *tables, ok = sweep.evaluate(X, [0], order)
        for i, x in enumerate(X):
            try:
                expect = reference_sweep(tree, x, order)
            except DomainError as raised:
                assert not ok[i, 0]
                with pytest.raises(DomainError) as info:
                    sweep.at(x, [0], order)
                assert info.value.message == raised.message
                continue
            assert ok[i, 0]
            for k in range(order + 1):
                assert same_bits(tables[k][i, 0], expect[k])


def assert_parses_to(source, n, tree):
    """``parse(source, n)`` holds the slots of the tree's printed source and
    sweeps like the tree."""
    sweep = parse(source, n)
    assert slot_tables(sweep) == slot_tables(parse(reference_to_source(tree), n))
    assert_sweeps_like(sweep, tree, points(n))


class TestParse:
    def test_simple_variable(self):
        assert_parses_to("x2", 2, Var(2))

    def test_tangent_disk_tree(self):
        expected = Binary(
            "sub",
            Binary(
                "add",
                Power(Var(1), 2),
                Power(Binary("sub", Var(2), Const(1.0)), 2),
            ),
            Const(1.0),
        )
        assert_parses_to("x1^2 + (x2 - 1)^2 - 1", 2, expected)

    def test_unary_minus_binds_loosely(self):
        assert_parses_to("-x1^2", 2, Unary("neg", Power(Var(1), 2)))

    def test_whitespace_insensitive(self):
        assert slot_tables(parse("x1   +x2", 2)) == slot_tables(parse("x1+x2", 2))

    def test_function_call(self):
        assert_parses_to("sin(x1)", 1, Unary("sin", Var(1)))

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
        assert_parses_to(f"x1^{expr._MAX_EXPONENT}", 1, Power(Var(1), expr._MAX_EXPONENT))

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
        assert_parses_to(source, 2, reference_parse(source, 2))

    def test_printer_handles_a_5000_term_sum(self):
        # every binary operation is parenthesized, and the parser reads the
        # 4999 nested parentheses in one loop
        terms = [f"x{i % 3 + 1}" for i in range(5000)]
        source = " + ".join(terms)
        printed = reference_to_source(reference_parse(source, 3))
        assert printed == "(" * 4999 + terms[0] + "".join(f" + {t})" for t in terms[1:])
        assert slot_tables(parse(printed, 3)) == slot_tables(parse(source, 3))

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
        printed = reference_to_source(reference_parse(source, 3))
        assert slot_tables(parse(printed, 3)) == slot_tables(parse(source, 3))

    def test_right_operands_keep_their_parentheses(self):
        # and so do left operands: every binary operation prints its own
        for source, printed in [
            ("x1 - (x2 - x3)", "(x1 - (x2 - x3))"),
            ("x1 - x2 + x3", "((x1 - x2) + x3)"),
            ("x1 * x2 + x3", "((x1 * x2) + x3)"),
            ("x1 / x2 / x3", "((x1 / x2) / x3)"),
        ]:
            tree = reference_parse(source, 3)
            assert reference_to_source(tree) == printed
            assert_parses_to(source, 3, tree)

    def test_non_ascii_letter_is_an_unexpected_character(self):
        # str.isalpha() accepts it, but no identifier is spelled with it
        with pytest.raises(ParseError) as err:
            parse("2*π*x1", 1)
        assert err.value.message == "unexpected character 'π'"
        assert err.value.offset == 2
        assert str(err.value) == "unexpected character 'π' (byte offset 2)"

    def test_byte_offsets_count_utf8_bytes(self):
        # an ideographic space is 3 bytes, an Arabic-Indic digit 2
        with pytest.raises(ParseError) as err:
            parse("x1\u3000+ \u0663 x1", 1)
        assert (err.value.message, err.value.offset) == ("unexpected trailing input", 10)
        assert_parses_to("x1\u3000+ \u0663", 1, Binary("add", Var(1), Const(3.0)))

    @pytest.mark.parametrize(
        "opening, inner, closing, wrap",
        [
            ("(", "x1", ")", lambda t: t),
            ("sin(", "x1", ")", lambda t: Unary("sin", t)),
            ("-(", "x1^2", ")^3", lambda t: Unary("neg", Power(t, 3))),
            ("x1 - (", "x2", ")", lambda t: Binary("sub", Var(1), t)),
        ],
        ids=["parentheses", "functions", "negated-powers", "right-operands"],
    )
    def test_any_depth_parses_from_a_deep_stack(self, opening, inner, closing, wrap):
        # the parser does not recurse: 10,000 levels parse even when it is
        # called from 800 frames deep, into the slots of the tree's printed
        # source
        source = opening * 10000 + inner + closing * 10000
        expected = reference_parse(inner, 2)
        for _ in range(10000):
            expected = wrap(expected)

        def nested_call(frames):
            return parse(source, 2) if frames == 0 else nested_call(frames - 1)

        sweep = nested_call(800)
        assert slot_tables(sweep) == slot_tables(parse(reference_to_source(expected), 2))

    def test_printer_round_trips_1000_levels(self):
        # the recursive reference sweep needs a frame per level
        rng = np.random.default_rng(5)
        tree = Var(1)
        for k in range(1000):
            pick = int(rng.integers(5))
            if pick == 0:
                tree = Unary("sin", tree)
            elif pick == 1:
                tree = Unary("neg", tree)
            elif pick == 2:
                tree = Power(tree, 2)
            else:
                op = ("add", "sub", "mul", "div")[k % 4]
                tree = Binary(op, tree, Var(2)) if pick == 3 else Binary(op, Const(0.5), tree)
        sweep = parse(reference_to_source(tree), 2)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 2000)
        try:
            assert_sweeps_like(sweep, tree, points(2))
        finally:
            sys.setrecursionlimit(limit)


class TestParserAgainstRecursiveDescent:
    """The one-loop parser against the recursive-descent parser it
    replaced (``tests/_oracles.py::reference_parse``), on seeded inputs:
    random strings of tokens and near-tokens, generated expressions, and
    generated expressions with one piece deleted, inserted or replaced."""

    PIECES = [
        "x1", "x2", "x3", "x0", "x12", "x", "x\u0663", "sin", "cos", "exp", "log",
        "sqrt", "tan", "e", "(", ")", "+", "-", "*", "/", "^", "2", "0", "1.5", "1e3",
        ".5", "3.", ".", "1024", "1025", "1e400", "\u0663", "\u00b2", " ", "\t",
        "\u3000", "\u03c0", "\u00e9", "#",
    ]

    def expression(self, rng, depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            return rng.choice(["x1", "x2", "x3", "2", "0.5", "1e-3", "x4"])
        if r < 0.55:
            op = rng.choice([" + ", " - ", "*", "/"])
            return self.expression(rng, depth - 1) + op + self.expression(rng, depth - 1)
        if r < 0.65:
            return "-" + self.expression(rng, depth - 1)
        if r < 0.75:
            exponent = rng.choice(["2", "3", "0", "-1", "2.0", "x1", "1025"])
            return self.expression(rng, depth - 1) + "^" + exponent
        if r < 0.87:
            return "(" + self.expression(rng, depth - 1) + ")"
        func = rng.choice(["sin", "cos", "exp", "log", "sqrt"])
        return func + "(" + self.expression(rng, depth - 1) + ")"

    def source(self, rng, k):
        if k % 3 == 0:
            return "".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 12)))
        text = self.expression(rng, rng.randint(0, 6))
        if k % 3 == 2 and text:
            at = rng.randrange(len(text))
            cut = at + (rng.random() < 0.6)
            text = text[:at] + ("" if rng.random() < 0.3 else rng.choice(self.PIECES)) + text[cut:]
        return text

    @staticmethod
    def outcome(parser, source, n):
        try:
            return parser(source, n)
        except ParseError as err:
            return (err.message, err.offset)

    def test_same_tree_or_same_error(self):
        # both parsers raise the same error, or the one-loop parser's sweep
        # evaluates like the recursive-descent tree at three seeded points
        rng = random.Random(2022)
        coordinates = np.random.default_rng(2022)
        parsed = failed = 0
        for k in range(24000):
            source = self.source(rng, k)
            n = rng.randint(0, 4)
            want = self.outcome(reference_parse, source, n)
            got = self.outcome(parse, source, n)
            if isinstance(want, tuple):
                assert got == want, (source, n)
                failed += 1
            else:
                assert not isinstance(got, tuple), (source, n, got)
                assert_sweeps_like(got, want, points(n, coordinates))
                parsed += 1
        # both kinds of outcome are well represented
        assert parsed > 4000 and failed > 4000

    def test_token_offsets_are_utf8_byte_offsets(self):
        rng = random.Random(23)
        for k in range(3000):
            source = self.source(rng, k)
            try:
                tokens = expr._tokenize(source)
            except ParseError:
                continue
            data = source.encode("utf-8")
            for kind, payload, offset in tokens:
                rest = data[offset:].decode("utf-8")  # fails off a character boundary
                if kind == "end":
                    assert rest == ""
                elif kind == "num":
                    assert rest.startswith(payload[1])
                elif kind == "var":
                    assert rest.startswith("x")
                else:
                    assert rest.startswith(payload)


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
