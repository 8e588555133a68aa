"""Tests for pinning, chart construction, arc tracing, and verification.

Closed forms drive the checks: the unit circle gives
zeta(t) = (sqrt(1 - t^2), t), the parabola fixture gives (t, t^2), and
straight-line cases are exact.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlpcheck import arc as arc_mod
from nlpcheck.arc import (
    DegenerateRankError,
    arc_for_direction,
    build_chart,
    identity_chart,
    pinned_constraints,
    trace_arc,
    verify_arc,
)
from nlpcheck.model import evaluate_point, load_problem
from nlpcheck.problems import builtin_problem


def circle_setup():
    prob = builtin_problem("circle")
    pd = evaluate_point(prob, np.array([1.0, 0.0]))
    return prob, pd


def parabola_setup():
    prob = builtin_problem("paper-example-2")
    pd = evaluate_point(prob, np.zeros(2))
    return prob, pd


def tangent_disks_setup():
    prob = builtin_problem("paper-example-1")
    pd = evaluate_point(prob, np.zeros(2))
    return prob, pd


class TestPinnedConstraints:
    def test_circle_pins_equality(self):
        _, pd = circle_setup()
        pinned = pinned_constraints(pd, np.array([0.0, 1.0]))
        assert pinned.ineq == ()
        assert pinned.components == (("eq", 1),)

    def test_parabola_tangential_direction_pins_both(self):
        _, pd = parabola_setup()
        pinned = pinned_constraints(pd, np.array([1.0, 0.0]))
        assert pinned.ineq == (1, 2)

    def test_strict_descent_pins_nothing(self):
        _, pd = tangent_disks_setup()
        pinned = pinned_constraints(pd, np.array([0.0, 1.0]))
        assert pinned.ineq == ()
        assert pinned.components == ()

    def test_direction_outside_cone_rejected(self):
        _, pd = tangent_disks_setup()
        with pytest.raises(ValueError, match="linearized cone"):
            pinned_constraints(pd, np.array([0.0, -1.0]))

    def test_pin_threshold_scales_with_direction(self):
        _, pd = tangent_disks_setup()
        # derivative -2e-9 is below tol * (1 + ||d||), so the row is pinned
        pinned = pinned_constraints(pd, np.array([1.0, 1e-9]), tol_dir=1e-8)
        assert pinned.ineq == (1, 2)


class TestBuildChart:
    def test_circle_chart(self):
        _, pd = circle_setup()
        pinned = pinned_constraints(pd, np.array([0.0, 1.0]))
        chart = build_chart(pd, pinned)
        assert chart.rank == 1
        assert chart.solve_vars == (0,)  # gradient (2, 0) pivots on x1
        assert chart.keep_vars == (1,)
        assert_allclose(chart.z_center, [0.0, 0.0], atol=1e-15)
        assert_allclose(chart.jac_center, [[2.0, 0.0], [0.0, 1.0]])
        assert chart.cond_estimate == 1.0

    def test_parabola_chart_drops_duplicate_row(self):
        _, pd = parabola_setup()
        pinned = pinned_constraints(pd, np.array([1.0, 0.0]))
        chart = build_chart(pd, pinned)
        assert chart.rank == 1
        assert chart.xi == (0,)  # tie between equal rows goes to the first
        assert chart.solve_vars == (1,)
        assert chart.keep_vars == (0,)

    def test_identity_chart_for_empty_pin(self):
        x = np.array([2.0, -1.0])
        chart = identity_chart(x)
        assert chart.components == ()
        assert chart.rank == 0
        assert_allclose(chart.jac_center, np.eye(2))
        assert_allclose(chart.z_center, x)

    def test_zero_gradient_degenerate(self):
        prob = load_problem("vars 1\nobjective x1\nineq x1^2\npoint 0\n")
        pd = evaluate_point(prob, np.zeros(1))
        pinned = pinned_constraints(pd, np.array([1.0]))
        assert pinned.ineq == (1,)
        with pytest.raises(DegenerateRankError):
            build_chart(pd, pinned)


class TestTraceArc:
    def test_circle_matches_closed_form(self):
        prob, pd = circle_setup()
        pinned = pinned_constraints(pd, np.array([0.0, 1.0]))
        chart = build_chart(pd, pinned)
        arc = trace_arc(prob, chart, np.array([0.0, 1.0]), 0.25, 41)
        assert not arc.truncated
        assert arc.t.size == 41
        expected = np.stack(
            [np.sqrt(1.0 - arc.t**2), arc.t], axis=1
        )
        assert np.abs(arc.points - expected).max() <= 1e-9
        assert np.abs(arc.h_values).max() <= 1e-10
        arc1 = verify_arc(arc, pd, pinned).checks["arc1"]
        assert_allclose(arc1.detail["derivative_estimate"], [0.0, 1.0], atol=1e-6)

    def test_center_sample_is_exact(self):
        prob, pd = circle_setup()
        pinned = pinned_constraints(pd, np.array([0.0, 1.0]))
        chart = build_chart(pd, pinned)
        arc = trace_arc(prob, chart, np.array([0.0, 1.0]), 0.25, 41)
        k = arc.zero_index
        assert arc.t[k] == 0.0
        assert np.array_equal(arc.points[k], pd.x)

    def test_parabola_matches_closed_form(self):
        prob, pd = parabola_setup()
        pinned = pinned_constraints(pd, np.array([1.0, 0.0]))
        chart = build_chart(pd, pinned)
        arc = trace_arc(prob, chart, np.array([1.0, 0.0]), 0.2, 41)
        expected = np.stack([arc.t, arc.t**2], axis=1)
        assert np.abs(arc.points - expected).max() <= 1e-8

    def test_identity_chart_straight_line(self):
        prob, pd = tangent_disks_setup()
        d = np.array([0.0, 1.0])
        chart = identity_chart(pd.x)
        arc = trace_arc(prob, chart, d, 0.1, 41)
        expected = np.outer(arc.t, d)
        assert np.abs(arc.points - expected).max() <= 1e-14

    def test_no_point_evaluated_twice(self, monkeypatch):
        # each solve starts from the state its predecessor returned, and the
        # first from the chart's own center values
        seen = []
        make = arc_mod._chart_fun_jac

        def recording(problem, chart):
            fun_jac = make(problem, chart)
            points = []
            seen.append(points)

            def wrapped(x):
                points.append(x.tobytes())
                return fun_jac(x)

            return wrapped

        monkeypatch.setattr(arc_mod, "_chart_fun_jac", recording)
        prob, pd = circle_setup()
        rep = arc_for_direction(prob, pd, np.array([0.0, 1.0]))
        assert rep.realized()
        assert seen and all(points for points in seen)
        assert all(len(set(points)) == len(points) for points in seen)

    def test_truncation_beyond_chart_range(self):
        # the circle chart cannot reach |t| > 1; the grid must stop early
        prob, pd = circle_setup()
        pinned = pinned_constraints(pd, np.array([0.0, 1.0]))
        chart = build_chart(pd, pinned)
        arc = trace_arc(prob, chart, np.array([0.0, 1.0]), 1.5, 41)
        assert arc.truncated
        assert arc.note
        assert arc.t.size < 41
        assert np.abs(arc.t).max() < 1.0 + 1e-9
        assert np.abs(arc.h_values).max() <= 1e-8

    def test_parameter_validation(self):
        prob, pd = circle_setup()
        chart = identity_chart(pd.x)
        with pytest.raises(ValueError, match="delta"):
            trace_arc(prob, chart, np.array([0.0, 1.0]), -0.1, 41)
        with pytest.raises(ValueError, match="odd"):
            trace_arc(prob, chart, np.array([0.0, 1.0]), 0.1, 40)
        with pytest.raises(ValueError, match="odd"):
            trace_arc(prob, chart, np.array([0.0, 1.0]), 0.1, 3)


class TestVerifyArc:
    def test_circle_all_properties_pass(self):
        prob, pd = circle_setup()
        pinned = pinned_constraints(pd, np.array([0.0, 1.0]))
        chart = build_chart(pd, pinned)
        arc = trace_arc(prob, chart, np.array([0.0, 1.0]), 0.25, 41)
        props = verify_arc(arc, pd, pinned)
        assert props.passed_all()
        assert set(props.checks) == {
            "arc1",
            "arc2",
            "arc3",
            "arc4",
            "arc5",
            "forward_feasible",
        }

    def test_parabola_pinned_drift_detected(self):
        # the chart can hold only one of the two coincident constraints at
        # zero; the other drifts like t^2 and the pinned-residual check
        # reports exactly that drift
        prob, pd = parabola_setup()
        d = np.array([1.0, 0.0])
        pinned = pinned_constraints(pd, d)
        chart = build_chart(pd, pinned)
        arc = trace_arc(prob, chart, d, 0.2, 41)
        props = verify_arc(arc, pd, pinned)
        assert not props.checks["arc2"].passed
        assert_allclose(props.checks["arc2"].worst, 0.2**2, atol=1e-8)
        for name in ("arc1", "arc3", "arc4", "arc5", "forward_feasible"):
            assert props.checks[name].passed, name

    def test_inactive_constraint_monitored(self):
        prob = load_problem(
            "vars 2\nobjective x2\nineq -x2\nineq x1 - 0.5\npoint 0 0\n"
        )
        pd = evaluate_point(prob, np.zeros(2))
        d = np.array([1.0, 0.0])
        pinned = pinned_constraints(pd, d)
        chart = build_chart(pd, pinned)
        ok = trace_arc(prob, chart, d, 0.1, 41)
        props = verify_arc(ok, pd, pinned)
        assert props.checks["arc3"].passed
        # on a long interval the inactive constraint crosses zero and the
        # check must catch it
        far = trace_arc(prob, chart, d, 1.0, 41)
        props_far = verify_arc(far, pd, pinned)
        assert not props_far.checks["arc3"].passed
        assert props_far.checks["arc3"].worst >= 0.4

    def test_active_unpinned_checked_forward_only(self):
        # strict-descent direction: the active constraint goes positive for
        # t < 0 but the one-sided check only looks forward
        prob, pd = parabola_setup()
        d = np.array([0.6, 0.8])
        pinned = pinned_constraints(pd, d)
        assert pinned.ineq == ()
        chart = identity_chart(pd.x)
        arc = trace_arc(prob, chart, d, 0.1, 41)
        props = verify_arc(arc, pd, pinned)
        assert props.checks["arc4"].passed
        assert props.checks["forward_feasible"].passed
        backward = arc.t < 0
        assert arc.g_values[backward, 0].max() > 0  # indeed infeasible behind


class TestArcForDirection:
    def test_parabola_full_report(self):
        prob, pd = parabola_setup()
        report = arc_for_direction(prob, pd, np.array([1.0, 0.0]), delta=0.2)
        assert report.error is None
        assert report.chart_summary["pinned_ineq"] == [1, 2]
        assert report.chart_summary["chart_rows"] == ["ineq1"]
        assert report.chart_summary["solve_vars"] == [2]
        assert report.chart_summary["keep_vars"] == [1]
        assert not report.properties.checks["arc2"].passed
        assert report.realized()

    def test_outside_cone_reports_error(self):
        prob, pd = parabola_setup()
        report = arc_for_direction(prob, pd, np.array([0.0, -1.0]))
        assert report.error is not None
        assert report.arc is None
        assert not report.realized()

    def test_degenerate_rank_reports_error(self):
        prob = load_problem("vars 1\nobjective x1\nineq x1^2\npoint 0\n")
        pd = evaluate_point(prob, np.zeros(1))
        report = arc_for_direction(prob, pd, np.array([1.0]))
        assert report.error is not None
        assert "zero" in report.error

    def test_delta_shrinks_until_untruncated(self):
        prob, pd = circle_setup()
        report = arc_for_direction(prob, pd, np.array([0.0, 1.0]), delta=2.0)
        assert report.error is None
        assert not report.arc.truncated
        assert report.arc.delta <= 1.0
        assert report.properties.passed_all()

    def test_tangent_disks_sampled_directions_realized(self):
        # rank collapses on the pinned directions, so the pinned-residual
        # property fails, but every arc still realizes its direction:
        # start, velocity, and forward feasibility all hold
        prob, pd = tangent_disks_setup()
        from nlpcheck.cones import linearized_cone, sample_directions

        cone = linearized_cone(pd)
        for d in sample_directions(cone, 8, seed=0):
            report = arc_for_direction(prob, pd, d)
            assert report.error is None
            assert report.realized()
