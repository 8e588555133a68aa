"""Tests for problem loading and point evaluation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from nlpcheck.cones import critical_cone_multiplier_form
from nlpcheck.expr import DomainError
from nlpcheck.kkt import check_kkt
from nlpcheck.model import (
    ProblemError,
    evaluate_point,
    feasibility,
    lagrangian_hessian,
    load_problem,
    row_label,
)
from nlpcheck.problems import builtin_names, builtin_problem, builtin_source

TANGENT_DISKS = """\
# two disks tangent at the origin
vars 2
objective x2
ineq x1^2 + (x2 - 1)^2 - 1
ineq 1 - x1^2 - (x2 + 1)^2
point 0 0
"""


class TestLoadProblem:
    def test_parses_counts_and_point(self):
        prob = load_problem(TANGENT_DISKS)
        assert prob.n == 2
        assert prob.m == 2
        assert prob.p == 0
        assert_allclose(prob.point, [0.0, 0.0])

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# c\nvars 1\n\nobjective x1\npoint 2\n# tail\n"
        prob = load_problem(text)
        assert prob.n == 1

    def test_vars_must_come_first(self):
        with pytest.raises(ProblemError, match="vars"):
            load_problem("objective x1\nvars 1\npoint 0\n")

    def test_missing_objective(self):
        with pytest.raises(ProblemError, match="objective"):
            load_problem("vars 1\npoint 0\n")

    def test_point_is_optional(self):
        prob = load_problem("vars 1\nobjective x1\n")
        assert prob.point is None

    def test_duplicate_objective(self):
        with pytest.raises(ProblemError, match="duplicate"):
            load_problem("vars 1\nobjective x1\nobjective x1\npoint 0\n")

    def test_point_length_mismatch(self):
        with pytest.raises(ProblemError, match="point"):
            load_problem("vars 2\nobjective x1\npoint 0\n")

    def test_unknown_directive_reports_line(self):
        with pytest.raises(ProblemError) as err:
            load_problem("vars 1\nobjective x1\nbound x1\npoint 0\n")
        assert err.value.line == 3

    def test_expression_error_reports_line(self):
        with pytest.raises(ProblemError) as err:
            load_problem("vars 1\nobjective x1 +\npoint 0\n")
        assert err.value.line == 2

    def test_variable_out_of_range_rejected(self):
        with pytest.raises(ProblemError):
            load_problem("vars 1\nobjective x2\npoint 0\n")

    def test_equalities_counted(self):
        prob = load_problem(
            "vars 2\nobjective -x1\neq x1^2 + x2^2 - 1\npoint 1 0\n"
        )
        assert prob.m == 0
        assert prob.p == 1


class TestBuiltins:
    def test_names_stable(self):
        assert "paper-example-1" in builtin_names()
        assert "paper-example-2" in builtin_names()
        assert "circle" in builtin_names()

    def test_sources_load(self):
        for name in builtin_names():
            prob = load_problem(builtin_source(name))
            assert prob.n >= 1

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="circle"):
            builtin_source("nope")

    def test_builtin_problem_shortcut(self):
        prob = builtin_problem("circle")
        assert prob.p == 1


class TestEvaluatePoint:
    def test_tangent_disks_at_origin(self):
        prob = load_problem(TANGENT_DISKS)
        pd = evaluate_point(prob, np.zeros(2))
        assert pd.f_val == 0.0
        assert_allclose(pd.f_grad, [0.0, 1.0])
        assert pd.m == 2 and pd.p == 0
        assert_allclose(pd.c_vals, [0.0, 0.0], atol=1e-15)
        assert_allclose(pd.c_grads, [[0.0, -2.0], [0.0, -2.0]], atol=1e-15)
        assert_allclose(pd.c_hesses[0], 2.0 * np.eye(2), atol=1e-15)
        assert_allclose(pd.c_hesses[1], -2.0 * np.eye(2), atol=1e-15)
        assert pd.active == (1, 2)

    def test_active_set_uses_tolerance(self):
        prob = load_problem(TANGENT_DISKS)
        pd = evaluate_point(prob, np.array([0.0, 1e-10]))
        assert pd.active == (1, 2)
        pd_tight = evaluate_point(prob, np.array([0.0, 1e-10]), tol_active=1e-12)
        assert pd_tight.active == ()

    def test_inactive_constraint_excluded(self):
        prob = load_problem(
            "vars 1\nobjective x1\nineq x1 - 1\nineq -x1 - 1\npoint 0\n"
        )
        pd = evaluate_point(prob, np.zeros(1))
        assert pd.active == ()

    def test_equality_derivatives(self):
        prob = builtin_problem("circle")
        pd = evaluate_point(prob, np.array([1.0, 0.0]))
        assert pd.m == 0 and pd.p == 1
        assert_allclose(pd.c_vals, [0.0], atol=1e-15)
        assert_allclose(pd.c_grads, [[2.0, 0.0]])
        assert_allclose(pd.c_hesses[0], 2.0 * np.eye(2))

    def test_domain_error_labels_constraint(self):
        prob = load_problem("vars 1\nobjective x1\nineq log(x1)\npoint 1\n")
        with pytest.raises(DomainError, match="ineq 1"):
            evaluate_point(prob, np.array([-1.0]))

    def test_rows_are_active_inequalities_then_equalities(self):
        prob = load_problem(
            "vars 2\nobjective x1\nineq x1 - 1\neq x2\nineq -x1\neq x1 + x2\npoint 0 0\n"
        )
        pd = evaluate_point(prob, np.zeros(2))
        assert pd.active == (2,)
        assert pd.rows == [1, 2, 3]
        assert_array_equal(pd.c_vals, [-1.0, 0.0, 0.0, 0.0])
        assert_array_equal(pd.c_grads[pd.rows], [[-1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert [row_label(pd.m, k) for k in range(4)] == [
            ("ineq", 1), ("ineq", 2), ("eq", 1), ("eq", 2)
        ]


@pytest.mark.parametrize("evaluate", [evaluate_point, feasibility], ids=["jet", "value"])
@pytest.mark.parametrize(
    "text, point, message",
    [
        ("vars 2\nobjective x1\nineq x1 - 1\nineq log(x1)\nineq log(x2)\n", [-1, -1], "ineq 2"),
        ("vars 1\nobjective x1\neq x1\neq log(x1)\n", [-1], "eq 2"),
        ("vars 2\nobjective x1\neq log(x1)\nineq log(x2)\n", [-1, -1], "ineq 1"),
    ],
    ids=["first of several rows", "equality label", "inequalities before equalities"],
)
def test_domain_error_names_the_first_failing_row(evaluate, text, point, message):
    with pytest.raises(DomainError, match=f"^{message}: log of non-positive value -1.0$"):
        evaluate(load_problem(text), np.array(point, dtype=float))


class TestLagrangianHessian:
    def test_weighted_sum(self):
        prob = load_problem(TANGENT_DISKS)
        pd = evaluate_point(prob, np.zeros(2))
        H = lagrangian_hessian(pd, np.array([0.5, 0.0]), np.zeros(0))
        # objective is linear; only the first disk contributes
        assert_allclose(H, np.eye(2), atol=1e-15)

    def test_equality_contribution(self):
        prob = builtin_problem("circle")
        pd = evaluate_point(prob, np.array([1.0, 0.0]))
        H = lagrangian_hessian(pd, np.zeros(0), np.array([0.5]))
        assert_allclose(H, np.eye(2), atol=1e-15)

    def test_negative_multiplier_rejected(self):
        prob = load_problem(TANGENT_DISKS)
        pd = evaluate_point(prob, np.zeros(2))
        with pytest.raises(ValueError, match="negative"):
            lagrangian_hessian(pd, np.array([-0.1, 0.0]), np.zeros(0))

    def test_inactive_multiplier_rejected(self):
        prob = load_problem(
            "vars 1\nobjective x1\nineq x1 - 1\npoint 0\n"
        )
        pd = evaluate_point(prob, np.zeros(1))
        with pytest.raises(ValueError, match="inactive"):
            lagrangian_hessian(pd, np.array([0.3]), np.zeros(0))


# ineq 1 is active and ineq 2 inactive at the origin; mu = (1, 0), lam = -1
# is the KKT multiplier
MULTIPLIER_PROBLEM = "vars 2\nobjective x1 + x2\nineq -x1\nineq x1 - 1\neq x2\npoint 0 0\n"


@pytest.mark.parametrize(
    "caller, rejected, accepted",
    [
        (
            lagrangian_hessian,
            [
                ([1.0], [-1.0], "mu must have length 2"),
                ([1.0, 0.0], [], "lam must have length 1"),
                ([-2e-12, 0.0], [-1.0], "negative inequality multiplier"),
                ([1.0, 2e-12], [-1.0], "nonzero multiplier on inactive constraint 2"),
            ],
            [([-5e-13, 5e-13], [-1.0])],
        ),
        (
            lambda pd, mu, lam: critical_cone_multiplier_form(pd, mu),
            [
                ([1.0], None, "mu must have length 2"),
                ([-2e-8, 0.0], None, "negative inequality multiplier"),
                ([1.0, 2e-8], None, "nonzero multiplier on inactive constraint 2"),
            ],
            [([1.0, 2e-12], None), ([1.0, 5e-9], None)],
        ),
        (
            check_kkt,
            [
                ([1.0], [-1.0], "mu must have length 2"),
                ([1.0, 0.0], [], "lam must have length 1"),
            ],
            [([-1.0, 0.0], [-1.0]), ([1.0, 5.0], [-1.0])],
        ),
    ],
    ids=["lagrangian_hessian", "critical_cone_multiplier_form", "check_kkt"],
)
def test_multiplier_checks_keep_each_callers_threshold(caller, rejected, accepted):
    pd = evaluate_point(load_problem(MULTIPLIER_PROBLEM), np.zeros(2))
    for mu, lam, message in rejected:
        with pytest.raises(ValueError, match=f"^{message}$"):
            caller(pd, np.array(mu), lam)
    for mu, lam in accepted:
        caller(pd, np.array(mu), lam)


class TestFeasibility:
    def test_feasible_point(self):
        prob = load_problem(TANGENT_DISKS)
        rep = feasibility(prob, np.zeros(2))
        assert rep.feasible
        assert rep.max_ineq_violation <= 0.0
        assert rep.max_eq_violation == 0.0

    def test_infeasible_inequality(self):
        prob = load_problem(TANGENT_DISKS)
        rep = feasibility(prob, np.array([0.0, -0.5]))
        assert not rep.feasible
        assert rep.max_ineq_violation > 0.1

    def test_infeasible_equality(self):
        prob = builtin_problem("circle")
        rep = feasibility(prob, np.array([2.0, 0.0]))
        assert not rep.feasible
        assert_allclose(rep.max_eq_violation, 3.0)

    def test_tolerance_loosens_verdict(self):
        prob = builtin_problem("circle")
        rep = feasibility(prob, np.array([1.0 + 1e-9, 0.0]), tol=1e-6)
        assert rep.feasible
