"""Tests for problem loading and point evaluation."""

import gc
import inspect
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from nlpcheck import arc, cli, cones, cq, kkt, model
from nlpcheck.expr import DomainError, TapeSet
from nlpcheck.model import (
    POINT_BUDGET,
    ProblemError,
    Tolerances,
    check_point_size,
    evaluate_point,
    feasibility,
    lagrangian_hessian,
    load_problem,
    row_label,
)
from nlpcheck.problems import builtin_names, builtin_problem, builtin_source

from _oracles import check_kkt, critical_cone_multiplier_form

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

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "vars 1\nobjective x1 +\nineq x1\nobjective x1\n",
                "expected a number, variable, function, or '(' (byte offset 4)",
            ),
            ("vars 1\nbound x1\nineq x1 +\nobjective x1\n", "unknown directive 'bound'"),
        ],
        ids=["parse-error-before-duplicate-objective", "unknown-directive-before-parse-error"],
    )
    def test_first_error_in_file_order_is_reported(self, text, message):
        # each line is compiled as it is read, so a later line's error
        # never hides an earlier one
        with pytest.raises(ProblemError) as err:
            load_problem(text)
        assert (err.value.line, err.value.message) == (2, message)

    def test_memory_after_load_is_bounded(self):
        # a 20,000-term objective over 200 variables: each function is kept
        # only as slots of the sweep, about 8 MB here, where the expression
        # trees kept beside them took some 17 MB in all
        terms = " + ".join(f"{t % 7 + 1}*x{t % 200 + 1}^2" for t in range(20000))
        text = f"vars 200\nobjective {terms}\nineq x1 - 1\n"
        gc.collect()
        tracemalloc.start()
        try:
            prob = load_problem(text)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prob.sweep.size == 22007 and prob.m == 1
        assert retained <= 12e6


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
        pd_tight = evaluate_point(prob, np.array([0.0, 1e-10]), Tolerances(active=1e-12))
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

    def test_point_size_counts_the_widest_functions_slots(self):
        # 2048^2 = 2^22 floats per table: 4 rows, the objective and the 11
        # slots of x1*x2 + x3*x4 + x5*x6 (6 variables, 3 products, 2 sums)
        # fill the budget of 2^26 floats exactly; a fifth row is over it
        objective = "objective x1*x2 + x3*x4 + x5*x6\n"
        problem = load_problem("vars 2048\n" + objective + "ineq x1\n" * 4)
        assert problem.slots == 11  # counted once, when the problem is loaded
        check_point_size(problem)
        with pytest.raises(ValueError, match="the 11 sweep slots of the widest function, would "
                           f"hold {17 << 22} floats, above the budget of {POINT_BUDGET} floats"):
            check_point_size(load_problem("vars 2048\n" + objective + "ineq x1\n" * 5))

    def test_point_too_large_for_its_sweep_fails_before_any_sweep(self, monkeypatch):
        # 40 products over 4000 variables: the point's own Hessian table,
        # 16,000,000 floats, fits, but the objective's sweep holds a
        # 4000 x 4000 table for each of its 120 slots (14.3 GiB), which no
        # chunking splits
        terms = " + ".join(f"x{i}*x{i + 1}" for i in range(1, 41))
        prob = load_problem(f"vars 4000\nobjective {terms}\n")

        def no_sweep(*args, **kwargs):
            raise AssertionError("a tape was swept before the size check")

        monkeypatch.setattr(TapeSet, "_run", no_sweep)
        x = np.zeros(4000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="the 120 sweep slots of the widest function, "
                               "would hold 1936000000 floats"):
                evaluate_point(prob, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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


class TestPointGate:
    """evaluate_point admits only point data that every analysis layer can
    work on, so the library path gets the CLI's guarantees."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "text, message",
        [
            # sigma_max of the one nonzero row overflowed: LICQ read fails
            # with the singular value inf
            (
                "vars 2\nobjective x1\nineq 1.5e308*x1 + 1.5e308*x2\npoint 0 0\n",
                "ineq 1: gradient at the point too large to rank",
            ),
            # the multiplier probe overflowed in linalg.nnls
            (
                "vars 2\nobjective 1.7e308*x1 + 1.7e308*x2\nineq -x1\nineq -x2\npoint 0 0\n",
                "objective: gradient at the point too large for the multiplier solve",
            ),
            # SSONC read undetermined from the infinite Hessian
            (
                "vars 2\nobjective 1e308*x1^2 - 1e308*x2^2\nineq -x1\npoint 0 0\n",
                "objective: Hessian at the point has an infinite entry",
            ),
        ],
        ids=["rank-overflow", "multiplier-overflow", "infinite-hessian"],
    )
    def test_library_reproducers_raise(self, text, message):
        problem = load_problem(text)
        with pytest.raises(ValueError) as info:
            evaluate_point(problem, problem.point)
        assert info.type is ValueError and str(info.value) == message


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
        rep = feasibility(prob, np.array([1.0 + 1e-9, 0.0]), Tolerances(active=1e-6))
        assert rep.feasible


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert (tol.rank, tol.active, tol.direction, tol.newton, tol.verify) == (
            1e-8, 1e-8, 1e-8, 1e-12, 1e-7
        )
        assert evaluate_point(builtin_problem("circle"), [1.0, 0.0]).tol == tol

    def test_no_public_callable_takes_a_bare_tolerance(self):
        # every layer that takes the point data (or a cone built from it)
        # reads pd.tol, and the pd-free entries take the record, so no
        # public callable can be handed a tolerance the record would reject
        found = []
        for module in (arc, cli, cones, cq, kkt, model):
            for name in module.__all__:
                obj = getattr(module, name)
                members = [obj]
                if inspect.isclass(obj):
                    members += [f for f in vars(obj).values() if inspect.isfunction(f)]
                for member in filter(callable, members):
                    try:
                        params = inspect.signature(member).parameters.values()
                    except ValueError:  # an exception class without a signature of its own
                        continue
                    for param in params:
                        if "tol" in param.name and isinstance(param.default, float):
                            found.append(f"{module.__name__}.{name}({param.name})")
        assert found == []
