"""Walk through the tangent-disk problem, where every classical
regularity assumption breaks at once.

The problem minimizes x2 over the intersection of two unit disks that
touch only at the origin: one centered at (0, 1), one at (0, -1).  The
feasible set is the single point {0}, yet the constraint linearization
suggests a whole halfplane of feasible directions.  This script shows
what each diagnostic says about that situation and why the second-order
check rejects the point even though multipliers exist.

Run:  python3 demos/tangency_breakdown.py
"""

import numpy as np

from nlpcheck.cones import sample_directions, strong_critical_cone
from nlpcheck.cq import NeighborhoodSampler, check_licq, check_mfcq, check_rank_constancy
from nlpcheck.kkt import check_ssonc, solve_multipliers
from nlpcheck.model import evaluate_point
from nlpcheck.problems import builtin_problem, builtin_source


def main():
    prob = builtin_problem("paper-example-1")
    x = np.zeros(2)
    pd = evaluate_point(prob, x)

    print("problem source")
    print("--------------")
    print(builtin_source("paper-example-1"))

    print("first-order picture at (0, 0)")
    print("-----------------------------")
    print(f"active inequalities: {list(pd.active)}")
    print(f"grad g1 = {pd.c_grads[0]},  grad g2 = {pd.c_grads[1]}")
    print("the two disks share the tangent line x2 = 0, so the active")
    print("gradients are parallel and the linearization cannot see that")
    print("the feasible set is a single point.")
    print()

    licq = check_licq(pd)
    mfcq = check_mfcq(pd)
    print(f"licq: {licq.status}  (rank {licq.certificate['rank']} of 2 required)")
    print(f"mfcq: {mfcq.status}  (direction {mfcq.certificate['direction']}")
    print("       decreases both constraints to first order)")
    print()

    scans = check_rank_constancy(prob, pd, NeighborhoodSampler(seed=0))
    for name, verdict in scans.items():
        cert = verdict.certificate
        print(f"{name}: {verdict.status}")
        if cert is not None:
            print(
                f"       subset {tuple(cert['ineq_subset'])} has rank "
                f"{cert['center_rank']} here but rank {cert['witness_rank']} at "
                f"{np.round(cert['witness'], 6)}"
            )
    print()

    print("multipliers and the second-order check")
    print("--------------------------------------")
    ms = solve_multipliers(pd)
    for mu, _ in ms.vertices:
        print(f"multiplier vertex: mu = {mu}")
    print("every convex combination of the vertices is also a multiplier;")
    print("the second-order condition quantifies over all of them.")
    print()

    report = check_ssonc(pd, ms)
    print(f"ssonc: {report.status}")
    worst = report.worst
    print(
        f"witness: mu = {worst['mu']}, direction d = "
        f"{np.round(worst['witness_direction'], 9)}, "
        f"d'Hd = {worst['min_value']:.9f}"
    )
    print()
    print("interpretation: along d the Lagrangian curves downward for the")
    print("multiplier (0, 1/2), so no single multiplier certifies the")
    print("point; the tool flags the failure with a reproducible witness.")
    print()

    cone = strong_critical_cone(pd)
    dirs = sample_directions(cone, 6, seed=0)
    print("strong critical cone members (all along the shared tangent):")
    for d in dirs:
        print(f"  {np.round(d, 9)}")


if __name__ == "__main__":
    main()
