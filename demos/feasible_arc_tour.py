"""Trace feasible arcs numerically and compare them with closed forms.

Two stops:

1. The unit circle, leaving (1, 0) upward.  The arc solver must bend the
   straight ray (1, t) back onto the circle; the exact answer is
   zeta(t) = (sqrt(1 - t^2), t), so every sample can be checked.

2. The tangent parabolas x2 >= x1^2 and x2 >= 0, leaving the origin
   sideways.  Both constraints pin the direction, but their gradients
   coincide, so the chart can hold only one of them at zero.  The traced
   arc is exactly (t, t^2): it rides the parabola and drifts off the
   line x2 = 0 quadratically.  The property report shows which
   guarantees survive and which fail, with the drift residual equal to
   delta^2.

Run:  python3 demos/feasible_arc_tour.py
"""

import numpy as np

from nlpcheck.arc import arcs_for_directions
from nlpcheck.model import evaluate_point
from nlpcheck.problems import builtin_problem


def show_properties(report):
    for name, check in report.properties.checks.items():
        flag = "pass" if check.passed else "FAIL"
        print(f"  {name:<16} {flag}   worst residual {check.worst:.3e}")


def circle_stop():
    print("stop 1: unit circle at (1, 0), direction (0, 1), delta 0.25")
    print("-----------------------------------------------------------")
    prob = builtin_problem("circle")
    pd = evaluate_point(prob, np.array([1.0, 0.0]))
    (report,) = arcs_for_directions(prob, pd, [np.array([0.0, 1.0])], delta=0.25)
    arc = report.arc

    exact = np.stack([np.sqrt(1.0 - arc.t**2), arc.t], axis=1)
    err = np.abs(arc.points - exact).max()
    print(f"chart solves {report.chart_summary['chart_rows']} for variable "
          f"x{report.chart_summary['solve_vars'][0]}, "
          f"carrying x{report.chart_summary['keep_vars'][0]} as the parameter")
    print(f"max deviation from (sqrt(1-t^2), t): {err:.3e}")
    print(f"max |h| along the arc:               {np.abs(arc.h_values).max():.3e}")
    velocity = report.properties.checks["arc1"].detail["derivative_estimate"]
    print(f"velocity estimate at t=0:            {np.round(velocity, 9)}")
    show_properties(report)
    print()

    k = arc.zero_index
    print("   t        zeta_1        zeta_2")
    for i in range(k, arc.t.size, 5):
        print(f"  {arc.t[i]:+.3f}   {arc.points[i, 0]:.9f}   {arc.points[i, 1]:+.9f}")
    print()


def parabola_stop():
    print("stop 2: tangent parabolas at (0, 0), direction (1, 0), delta 0.2")
    print("----------------------------------------------------------------")
    prob = builtin_problem("paper-example-2")
    pd = evaluate_point(prob, np.zeros(2))
    (report,) = arcs_for_directions(prob, pd, [np.array([1.0, 0.0])], delta=0.2)
    arc = report.arc

    exact = np.stack([arc.t, arc.t**2], axis=1)
    print(f"both constraints pinned: {report.chart_summary['pinned_ineq']}")
    print(f"chart rows actually usable: {report.chart_summary['chart_rows']} "
          f"(rank {report.chart_summary['rank']} of 2 pinned)")
    print(f"max deviation from (t, t^2): {np.abs(arc.points - exact).max():.3e}")
    show_properties(report)
    print()
    drift = report.properties.checks["arc2"]
    print(f"the pinned-residual failure is the point of this stop: the")
    print(f"second constraint drifts like t^2, peaking at delta^2 = "
          f"{drift.worst:.6f}")
    print(f"yet the arc is still feasible forward in time "
          f"(forward residual {report.properties.checks['forward_feasible'].worst:.1e}),")
    print("so the direction is genuinely tangent despite the rank collapse.")
    print()


def main():
    circle_stop()
    parabola_stop()


if __name__ == "__main__":
    main()
