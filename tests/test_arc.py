"""Tests for pinning, chart construction, arc tracing, and verification.

Closed forms drive the checks: the unit circle gives
zeta(t) = (sqrt(1 - t^2), t), the parabola fixture gives (t, t^2), and
straight-line cases are exact.
"""

import math
import os
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlpcheck import arc as arc_mod
from nlpcheck import expr
from nlpcheck.arc import (
    ARC_BUDGET,
    DegenerateRankError,
    arc_for_direction,
    arcs_for_directions,
    build_chart,
    check_arc_size,
    identity_chart,
    pinned_constraints,
    trace_arc,
    trace_arcs,
    verify_arc,
)
from nlpcheck.cones import linearized_cone, sample_directions
from nlpcheck.expr import Gather, TapeSet
from nlpcheck.model import evaluate_point, load_problem
from nlpcheck.problems import builtin_names, builtin_problem, builtin_source

from _oracles import sequential_arc, sequential_trace_arc
from test_acceptance import BATTERY

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(BENCH)
import workloads  # noqa: E402


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
        assert pinned.components == (0,)  # circle has no inequality: eq 1 is row 0

    def test_parabola_tangential_direction_pins_both(self):
        _, pd = parabola_setup()
        pinned = pinned_constraints(pd, np.array([1.0, 0.0]))
        assert pinned.ineq == (1, 2)
        assert pinned.components == (0, 1)

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
        pinned = pinned_constraints(pd, np.array([1.0, 1e-9]))
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
        prob = load_problem("vars 2\nobjective x1\nineq x1 - 3\neq x2 + 1\npoint 2 -1\n")
        pd = evaluate_point(prob, x)
        chart = identity_chart(pd)
        assert chart.components == ()
        assert chart.rank == 0
        assert_allclose(chart.jac_center, np.eye(2))
        assert_allclose(chart.z_center, x)
        # the traced arc's center row is the point's constraint values
        arc = trace_arc(prob, chart, np.array([-1.0, 0.0]), 0.1)
        center = np.concatenate([arc.g_values[arc.zero_index], arc.h_values[arc.zero_index]])
        assert center.tobytes() == pd.c_vals.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", ["1e-200*", "1e-300*"])
    def test_tiny_gradient_picks_as_unit_gradient(self, scale):
        # the pivot norms of the gradient (1e-200, 0) squared to 0 and
        # divided by zero
        charts = []
        for text in (scale, ""):
            prob = load_problem(f"vars 2\nobjective x1\nineq {text}x1\npoint 0 0\n")
            pd = evaluate_point(prob, np.zeros(2))
            charts.append(build_chart(pd, pinned_constraints(pd, np.array([0.0, 1.0]))))
        tiny, unit = charts
        assert (tiny.components, tiny.xi, tiny.solve_vars, tiny.keep_vars, tiny.rank) == (
            unit.components, unit.xi, unit.solve_vars, unit.keep_vars, unit.rank
        ) == ((0,), (0,), (0,), (1,), 1)

    def test_zero_gradient_degenerate(self):
        prob = load_problem("vars 1\nobjective x1\nineq x1^2\npoint 0\n")
        pd = evaluate_point(prob, np.zeros(1))
        pinned = pinned_constraints(pd, np.array([1.0]))
        assert pinned.ineq == (1,)
        with pytest.raises(DegenerateRankError):
            build_chart(pd, pinned)


class TestChartPerPinnedSet:
    def record_charts(self, monkeypatch):
        """The pinned set of every ``build_chart`` call, in order."""
        built = []
        build = arc_mod.build_chart

        def recording(pd, pinned):
            built.append(pinned.components)
            return build(pd, pinned)

        monkeypatch.setattr(arc_mod, "build_chart", recording)
        return built

    @pytest.mark.parametrize("name, distinct", [("cylinder", 2), ("linear wedge", 3)])
    def test_one_chart_per_pinned_set(self, name, distinct, monkeypatch):
        # of the 8 sampled cylinder directions, some stay on the floor x3 = 0
        # (pinning -x3 and the equality) and the others rise off it (the
        # equality alone); the wedge's run along either edge (pinning that
        # inequality) or inside it (nothing)
        built = self.record_charts(monkeypatch)
        prob = load_problem(dict(BATTERY)[name])
        pd = evaluate_point(prob, prob.point)
        dirs = sample_directions(linearized_cone(pd), 8, seed=0)
        reports = arcs_for_directions(prob, pd, dirs)
        assert len(built) == len(set(built)) == distinct
        assert {rep.pinned.components for rep in reports} == set(built)
        assert all(rep.error is None for rep in reports)

    def test_degenerate_rank_error_is_shared(self, monkeypatch):
        built = self.record_charts(monkeypatch)
        prob = load_problem("vars 1\nobjective x1\nineq x1^2\npoint 0\n")
        pd = evaluate_point(prob, np.zeros(1))
        reports = arcs_for_directions(prob, pd, [np.array([v]) for v in (1.0, -1.0, 2.0)])
        assert built == [(0,)]
        assert len({rep.error for rep in reports}) == 1
        assert "numerically zero" in reports[0].error


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
        chart = identity_chart(pd)
        arc = trace_arc(prob, chart, d, 0.1, 41)
        expected = np.outer(arc.t, d)
        assert np.abs(arc.points - expected).max() <= 1e-14

    def test_no_point_evaluated_twice(self, monkeypatch):
        # each solve starts from the state its predecessor returned (the
        # first from the chart's own center values), so no trajectory
        # evaluates a point twice; and each Newton round is one sweep over
        # the chart rows of all the pending trial points
        trials = []
        batch = arc_mod.newton_batch

        def recording_batch(evaluate, start, targets, tol):
            def recording(rows, X):
                trials.extend(x.tobytes() for x in X)
                return evaluate(rows, X)

            return batch(recording, start, targets, tol)

        sweeps = []  # the plan of every sweep
        run = TapeSet._run

        def counting(self, plan, X, order, tables=None):
            sweeps.append(plan)
            return run(self, plan, X, order, tables)

        named = {}  # the table of each gather
        gather = TapeSet.gather

        def recording_gather(self, outputs, n):
            table = gather(self, outputs, n)
            named[id(table)] = np.asarray(outputs)
            return table

        rounds = []  # (plans swept, gather, points evaluated) per round
        chart_round = Gather.evaluate

        def one_round(self, X, lines):
            before = len(sweeps)
            out = chart_round(self, X, lines)
            rounds.append((sweeps[before:], self, [row.tobytes() for row in X]))
            return out

        monkeypatch.setattr(arc_mod, "newton_batch", recording_batch)
        monkeypatch.setattr(TapeSet, "_run", counting)
        monkeypatch.setattr(TapeSet, "gather", recording_gather)
        monkeypatch.setattr(Gather, "evaluate", one_round)
        # the cylinder's tangent directions pin x3 >= 0 too: the charts mix
        # one and two tape rows, and an upward direction has none pinned
        prob = load_problem(dict(BATTERY)["cylinder"])
        pd = evaluate_point(prob, prob.point)
        dirs = [(0.0, 1.0, 0.0), (0.0, -0.6, 0.8), (0.0, 0.0, 1.0), (0.0, 1.0, 1.0)]
        reports = arcs_for_directions(prob, pd, [np.array(d) for d in dirs])
        assert all(rep.realized() and not rep.arc.truncated for rep in reports)
        assert {rep.chart_summary["rank"] for rep in reports} == {1, 2}
        assert trials and len(set(trials)) == len(trials)
        assert pd.x.tobytes() not in trials
        assert sorted(row for _, _, rows in rounds for row in rows) == sorted(trials)
        # one sweep per round, of the gather's plan, over each pinned
        # constraint once
        assert all(len(plans) == 1 for plans, _, _ in rounds)
        assert all(plan is table.plan for (plan,), table, _ in rounds)
        pinned = []
        for _, table, _ in rounds:
            rows = named[id(table)] >= 0
            pairs = set(zip(named[id(table)][rows].tolist(), table.slots[rows].tolist()))
            assert len(pairs) == len({row for row, _ in pairs}) == len({s for _, s in pairs})
            pinned.append(len(pairs))
        assert max(pinned) == 2

    @pytest.mark.parametrize("source", [builtin_source("circle"), workloads.chain_text(7)],
                             ids=["circle", "chain-7"])
    def test_one_sweep_per_newton_round(self, source, monkeypatch):
        # every round of the march is one sweep at order 1, and every
        # constraint value along the arcs, the centers' included, comes
        # from one order-0 sweep after the march, whether some inequality
        # is left unpinned (chain-7) or every row is a chart row (circle)
        runs, rounds = [], []
        run = TapeSet._run

        def counting(self, plan, X, order, tables=None):
            runs.append(order)
            return run(self, plan, X, order, tables)

        batch = arc_mod.newton_batch

        def counting_batch(evaluate, start, targets, tol):
            def one_round(rows, X):
                rounds.append(len(X))
                return evaluate(rows, X)

            return batch(one_round, start, targets, tol)

        prob = load_problem(source)
        pd = evaluate_point(prob, prob.point)
        dirs = sample_directions(linearized_cone(pd), 8, seed=0)
        charts = [build_chart(pd, pinned_constraints(pd, d)) for d in dirs]
        monkeypatch.setattr(TapeSet, "_run", counting)
        monkeypatch.setattr(arc_mod, "newton_batch", counting_batch)
        trace_arcs(prob, charts, dirs, [0.1] * len(dirs))
        assert len(rounds) > 20
        assert runs == [1] * len(rounds) + [0]

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
        chart = identity_chart(pd)
        with pytest.raises(ValueError, match="delta"):
            trace_arc(prob, chart, np.array([0.0, 1.0]), -0.1, 41)
        # delta * k / half overflowed at 1e308
        with pytest.raises(ValueError, match="delta must be at most"):
            trace_arc(prob, chart, np.array([0.0, 1.0]), 1e308, 41)
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
        chart = identity_chart(pd)
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

    @pytest.mark.parametrize(
        "d, delta, message",
        [
            # traced an arc whose one sample was t = nan
            ([0.0, 1.0], math.nan, "delta must be positive and finite, got nan"),
            # traced an arc with no error
            ([math.nan, 1.0], 0.1, "arc direction must have 2 finite coordinates, got [nan, 1.0]"),
            # raised a RuntimeWarning in a matrix product
            ([0.0, math.inf], 0.1, "arc direction must have 2 finite coordinates, got [0.0, inf]"),
            # gave an error entry, "direction must have length 2"
            (
                [0.0, 1.0, 0.0],
                0.1,
                "arc direction must have 2 finite coordinates, got [0.0, 1.0, 0.0]",
            ),
        ],
        ids=["nan-delta", "nan-direction", "infinite-direction", "three-coordinates"],
    )
    def test_request_the_cli_rejects_raises_its_text(self, d, delta, message):
        prob, pd = circle_setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as info:
                arcs_for_directions(prob, pd, [np.array(d)], delta)
        assert str(info.value) == message

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

    def test_each_distinct_direction_traced_once(self, monkeypatch):
        # equal bits pin the same constraints and get the same chart and
        # delta, so a repeated direction shares the report of its first
        # occurrence; 0.0 and -0.0 are told apart, so both are traced
        prob = load_problem(dict(BATTERY)["cylinder"])
        pd = evaluate_point(prob, prob.point)
        up, side, flip, down = (0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (-0.0, 1.0, 0.0), (0.0, 0.0, -1.0)
        dirs = [np.array(d) for d in (up, side, up, flip, down, side, up, down)]
        alone = [arc_for_direction(prob, pd, d) for d in dirs]
        verified, systems = [], []
        verify, batch = arc_mod.verify_arc, arc_mod.newton_batch

        def counting_verify(arc, pd, pinned):
            verified.append(arc.direction.tobytes())
            return verify(arc, pd, pinned)

        def counting_batch(evaluate, start, targets, tol):
            def one_round(rows, X):
                systems.append(len(X))
                return evaluate(rows, X)

            return batch(one_round, start, targets, tol)

        monkeypatch.setattr(arc_mod, "verify_arc", counting_verify)
        monkeypatch.setattr(arc_mod, "newton_batch", counting_batch)
        reports = arcs_for_directions(prob, pd, dirs)
        # down leaves the cone (x3 >= 0): an error, traced by no one
        assert sorted(verified) == sorted(np.array(d).tobytes() for d in (up, side, flip))
        assert max(systems) == 2 * 3  # both sides of the three distinct arcs
        assert reports[0] is reports[2] is reports[6] and reports[1] is reports[5]
        assert reports[4] is reports[7] and reports[1] is not reports[3]
        for rep, ref in zip(reports, alone):
            assert rep.direction.tobytes() == ref.direction.tobytes()
            assert (rep.error, rep.chart_summary) == (ref.error, ref.chart_summary)
            if ref.arc is None:
                assert rep.arc is rep.properties is None
                continue
            assert_same_arc(rep.arc, ref.arc)
            assert rep.properties.checks == ref.properties.checks

    def test_arc_budget(self, monkeypatch):
        # a sample keeps t, the point and the constraint values: 4 floats
        # on the circle.  A run of up to 8 arcs of 41 samples always runs
        check_arc_size(10**6, 10**6, 8, 41)
        check_arc_size(2, 1, 2, ARC_BUDGET // 8)
        with pytest.raises(ValueError, match=f"above the budget of {ARC_BUDGET} floats"):
            check_arc_size(2, 1, 2, ARC_BUDGET // 8 + 1)

        def no_trace(*args, **kwargs):
            raise AssertionError("an arc was traced before the budget check")

        monkeypatch.setattr(arc_mod, "trace_arcs", no_trace)
        prob, pd = circle_setup()
        with pytest.raises(ValueError, match="^3 arcs of 50000001 samples would keep 600000012"):
            arcs_for_directions(prob, pd, [np.array([0.0, 1.0])] * 3, samples=50000001)


ORACLE_PROBLEMS = (
    [(name, builtin_source(name)) for name in builtin_names()]
    + BATTERY
    + [("chain-7", workloads.chain_text(7)), ("fan-3", workloads.fan_text(3))]
)


def assert_same_arc(arc, ref):
    for name in ("t", "points", "g_values", "h_values"):
        got, want = getattr(arc, name), getattr(ref, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name  # signed zeros included
    assert (arc.delta, arc.truncated, arc.note) == (ref.delta, ref.truncated, ref.note)


# a circle inequality, active at (1, 0), and a log that leaves its domain
# below x2 = -1.2: at delta 1.5 the pinned circle chart fails past |t| = 1,
# and a straight arc reaching down to x2 = -1.2 truncates at the log
MIXED = "vars 2\nobjective x2\nineq x1^2 + x2^2 - 1\nineq -log(x2 + 1.2)\npoint 1 0\n"


class TestLockstepMarch:
    """The batched march against the sequential one-arc march it replaced."""

    @pytest.mark.parametrize("source", [text for _, text in ORACLE_PROBLEMS],
                             ids=[name for name, _ in ORACLE_PROBLEMS])
    def test_sampled_directions_match_sequential_march(self, source):
        prob = load_problem(source)
        pd = evaluate_point(prob, prob.point)
        dirs = sample_directions(linearized_cone(pd), 8, seed=0)
        reports = arcs_for_directions(prob, pd, dirs)
        assert len(reports) == len(dirs)
        for d, rep in zip(dirs, reports):
            ref = sequential_arc(prob, pd, d)
            assert (rep.arc is None) == (ref is None)
            if ref is not None:
                assert_same_arc(rep.arc, ref)

    def test_point_chunked_rounds_match_one_pass(self, monkeypatch):
        # a round whose trial points take several passes of the sweep (here
        # three points each) gathers the same bits as one pass
        prob = load_problem(workloads.chain_text(7))
        pd = evaluate_point(prob, prob.point)
        dirs = sample_directions(linearized_cone(pd), 8, seed=0)
        whole = arcs_for_directions(prob, pd, dirs)
        passes = []
        run = TapeSet._run

        def counting(self, plan, X, order, tables=None):
            passes.append(len(X))
            return run(self, plan, X, order, tables)

        monkeypatch.setattr(expr, "stack_chunk", lambda floats: 3)
        monkeypatch.setattr(TapeSet, "_run", counting)
        chunked = arcs_for_directions(load_problem(workloads.chain_text(7)), pd, dirs)
        assert max(passes) == 3 and len(passes) > 3 * len(whole)
        for rep, ref in zip(chunked, whole):
            assert_same_arc(rep.arc, ref.arc)

    def test_mixed_batch_matches_sequential_march(self):
        prob = load_problem(MIXED)
        pd = evaluate_point(prob, prob.point)
        dirs = [np.array(d) for d in ((0.0, 1.0), (-1.0, 0.0), (-1.0, -1.0), (1.0, 0.0))]
        reports = arcs_for_directions(prob, pd, dirs, delta=1.5)
        assert reports[3].error == "direction is not in the linearized cone"
        assert [rep.chart_summary["rank"] for rep in reports[:3]] == [1, 0, 0]
        assert [rep.arc.delta for rep in reports[:3]] == [0.75, 1.5, 0.75]
        for d, rep in zip(dirs, reports):
            ref = sequential_arc(prob, pd, d, delta=1.5)
            assert (rep.arc is None) == (ref is None)
            if ref is not None:
                assert_same_arc(rep.arc, ref)
        # the first attempts, failing rows and all, traced in one batch,
        # with each chart shared by two arcs.  The last arc's first positive
        # trial lands on x1 = 0 exactly, where the circle chart's Jacobian
        # is singular
        circle, free = (build_chart(pd, pinned_constraints(pd, d)) for d in dirs[:2])
        charts = [circle, free, free, circle]
        dirs = dirs[:3] + [np.array([-1.0, 0.0])]
        deltas = [1.5, 0.1, 1.5, 20.0]
        arcs = trace_arcs(prob, charts, dirs, deltas)
        assert "no descent" in arcs[0].note
        assert not arcs[1].truncated
        assert arcs[2].note.startswith("side +1 truncated at sample 16 (t = 1.2): log of")
        assert arcs[3].note == (
            "side +1 truncated at sample 1 (t = 1): singular Jacobian at iterate (residual 1.000e+00)"
        )
        for chart, d, delta, arc in zip(charts, dirs, deltas, arcs):
            assert_same_arc(arc, sequential_trace_arc(prob, chart, d, delta))
            assert_same_arc(arc, trace_arc(prob, chart, d, delta))

    @pytest.mark.parametrize("delta, samples", [(6.0, 11), (30.0, 5)])
    def test_chart_row_leaving_domain_matches_sequential_march(self, delta, samples, monkeypatch):
        # Newton trial points with x1 <= -1 leave the chart row's domain:
        # the evaluation marks them not ok and they are halved, as a
        # raising one-point evaluation was
        outside = []
        batch = arc_mod.newton_batch

        def recording_batch(evaluate, start, targets, tol):
            def recording(rows, X):
                F, J, ok = evaluate(rows, X)
                outside.extend(~ok)
                return F, J, ok

            return batch(recording, start, targets, tol)

        monkeypatch.setattr(arc_mod, "newton_batch", recording_batch)
        prob = load_problem(dict(BATTERY)["log sheet"])
        pd = evaluate_point(prob, prob.point)
        d = np.array([1.0, 1.0])
        chart = build_chart(pd, pinned_constraints(pd, d))
        arc = trace_arcs(prob, [chart, chart], [d, -d], [delta, delta], samples)[0]
        assert any(outside)
        assert_same_arc(arc, sequential_trace_arc(prob, chart, d, delta, samples))
