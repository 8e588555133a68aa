"""Acceptance gate: one test per release criterion, at the stated
tolerances, each reporting a single pass/fail line in the terminal
summary.

Criteria 1-2 reproduce the two tangency fixtures end to end, 3-4 pin the
arc construction against closed forms, and 5-9 are property suites with
independent oracles (finite differences, angular-grid cone minimization,
cross-form membership, byte-level determinism).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from nlpcheck.arc import arc_for_direction
from nlpcheck.cli import RunConfig, report_to_json, run
from nlpcheck.cones import (
    ConeRep,
    critical_cone_multiplier_form,
    membership,
    min_quadratic_on_cone,
    sample_directions,
    strong_critical_cone,
)
from nlpcheck.cq import NeighborhoodSampler, check_rcrcq, recheck_rank_certificate
from nlpcheck.expr import fd_grad_hess, grad_hess, parse
from nlpcheck.kkt import check_ssonc, solve_multipliers
from nlpcheck.model import evaluate_point, load_problem
from nlpcheck.problems import builtin_problem

from _oracles import quad_cone_min_oracle
from conftest import record_acceptance


class _Criterion:
    def __init__(self, num: int, title: str):
        self.num = num
        self.title = title
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        if not ok:
            self.failures.append(label)


@contextmanager
def criterion(num: int, title: str):
    c = _Criterion(num, title)
    try:
        yield c
    except Exception as exc:
        record_acceptance(
            f"criterion {num} ({title}): FAIL [{type(exc).__name__}: {exc}]"
        )
        raise
    if c.failures:
        record_acceptance(
            f"criterion {num} ({title}): FAIL [{'; '.join(c.failures)}]"
        )
        pytest.fail(f"criterion {num} failed: {c.failures}")
    record_acceptance(f"criterion {num} ({title}): PASS")


def test_criterion_1_tangent_disks_reproduction():
    with criterion(1, "tangent-disk fixture reproduction") as c:
        start = time.perf_counter()
        prob = builtin_problem("paper-example-1")
        pd = evaluate_point(prob, np.zeros(2))
        report = run(RunConfig(problem="builtin:paper-example-1"))
        elapsed = time.perf_counter() - start

        c.check("active set {1,2}", report["active_set"] == [1, 2])
        c.check(
            "gradients exactly (0,-2)",
            np.array_equal(pd.c_grads, [[0.0, -2.0], [0.0, -2.0]]),
        )
        cq = report["constraint_qualifications"]
        c.check("mfcq holds", cq["mfcq"]["status"] == "holds")
        mfcq_dir = np.array(cq["mfcq"]["certificate"]["direction"])
        c.check(
            "mfcq certificate strictly decreases the actives",
            (pd.c_grads[pd.rows] @ mfcq_dir).max() < -1e-9,
        )
        c.check("licq fails", cq["licq"]["status"] == "fails")
        c.check("licq rank 1", cq["licq"]["certificate"]["rank"] == 1)

        ms = solve_multipliers(pd)
        mus = sorted(tuple(mu) for mu, _ in ms.vertices)
        c.check("two multiplier vertices", len(mus) == 2)
        c.check(
            "vertices are (0,1/2) and (1/2,0) within 1e-9",
            max(
                abs(mus[0][0] - 0.0),
                abs(mus[0][1] - 0.5),
                abs(mus[1][0] - 0.5),
                abs(mus[1][1] - 0.0),
            )
            <= 1e-9,
        )
        c.check(
            "2(mu1+mu2)=1 on every vertex",
            all(abs(2.0 * (mu[0] + mu[1]) - 1.0) <= 1e-9 for mu, _ in ms.vertices),
        )

        cone = strong_critical_cone(pd)
        dirs = sample_directions(cone, 200, seed=0)
        c.check("cone sampling nonempty", len(dirs) == 200)
        c.check(
            "sampled members all have d2=0",
            all(abs(d[1]) <= 2e-8 for d in dirs),
        )
        c.check(
            "axis directions belong to the cone",
            membership(cone, np.array([1.0, 0.0]), 1e-8)
            and membership(cone, np.array([-1.0, 0.0]), 1e-8),
        )

        ssonc = check_ssonc(pd, ms)
        c.check("ssonc fails", ssonc.status == "fails")
        c.check(
            "worst value -1 within 1e-8",
            abs(ssonc.worst["min_value"] + 1.0) <= 1e-8,
        )
        c.check(
            "worst multiplier (0,1/2)",
            np.abs(np.array(ssonc.worst["mu"]) - [0.0, 0.5]).max() <= 1e-9,
        )
        witness = np.array(ssonc.worst["witness_direction"])
        c.check(
            "worst direction (+-1,0)",
            np.abs(np.abs(witness) - [1.0, 0.0]).max() <= 1e-8,
        )

        rcrcq = cq["rcrcq"]
        c.check("rcrcq fails", rcrcq["status"] == "fails")
        cert = rcrcq["certificate"]
        c.check(
            "certificate ranks 1 -> 2",
            cert["center_rank"] == 1 and cert["witness_rank"] == 2,
        )
        c.check(
            "certificate recheck reproduces the ranks",
            recheck_rank_certificate(prob, cert) == (1, 2),
        )
        c.check("runtime < 1 s", elapsed < 1.0)


def test_criterion_2_tangent_parabolas_reproduction():
    with criterion(2, "tangent-parabola fixture reproduction") as c:
        start = time.perf_counter()
        prob = builtin_problem("paper-example-2")
        pd = evaluate_point(prob, np.zeros(2))
        report = run(RunConfig(problem="builtin:paper-example-2"))
        elapsed = time.perf_counter() - start

        cq = report["constraint_qualifications"]
        c.check("mfcq holds", cq["mfcq"]["status"] == "holds")

        ms = solve_multipliers(pd)
        mus = sorted(tuple(mu) for mu, _ in ms.vertices)
        c.check("two multiplier vertices", len(mus) == 2)
        c.check(
            "vertices are (0,1) and (1,0) within 1e-9",
            max(
                abs(mus[0][0] - 0.0),
                abs(mus[0][1] - 1.0),
                abs(mus[1][0] - 1.0),
                abs(mus[1][1] - 0.0),
            )
            <= 1e-9,
        )
        c.check(
            "mu1+mu2=1 on every vertex",
            all(abs(mu[0] + mu[1] - 1.0) <= 1e-9 for mu, _ in ms.vertices),
        )

        ssonc = check_ssonc(pd, ms)
        c.check("ssonc holds-certified", ssonc.status == "holds-certified")
        minima = sorted(r["min_value"] for r in ssonc.results)
        c.check(
            "cone minima {0, 2} within 1e-9",
            abs(minima[0] - 0.0) <= 1e-9 and abs(minima[1] - 2.0) <= 1e-9,
        )

        rcrcq = cq["rcrcq"]
        c.check("rcrcq fails", rcrcq["status"] == "fails")
        c.check(
            "certificate subset I={1,2}",
            list(rcrcq["certificate"]["ineq_subset"]) == [1, 2],
        )
        c.check("runtime < 1 s", elapsed < 1.0)


def test_criterion_3_circle_arc_construction():
    with criterion(3, "circle arc against the closed form") as c:
        start = time.perf_counter()
        prob = builtin_problem("circle")
        pd = evaluate_point(prob, np.array([1.0, 0.0]))
        d = np.array([0.0, 1.0])
        report = arc_for_direction(prob, pd, d, delta=0.25, samples=41)
        elapsed = time.perf_counter() - start

        c.check("construction succeeded", report.error is None)
        arc = report.arc
        c.check("grid kept all 41 samples", arc is not None and arc.t.size == 41)
        expected = np.stack([np.sqrt(1.0 - arc.t**2), arc.t], axis=1)
        c.check(
            "trace matches (sqrt(1-t^2), t) within 1e-9",
            np.abs(arc.points - expected).max() <= 1e-9,
        )
        c.check(
            "max |h| along the arc <= 1e-8",
            np.abs(arc.h_values).max() <= 1e-8,
        )
        k = arc.zero_index
        c.check(
            "arc starts at the point within 1e-10",
            np.linalg.norm(arc.points[k] - pd.x) <= 1e-10,
        )
        c.check(
            "initial velocity within 1e-6 of the direction",
            report.properties is not None
            and np.linalg.norm(
                np.array(report.properties.checks["arc1"].detail["derivative_estimate"]) - d
            )
            <= 1e-6,
        )
        c.check(
            "all five arc properties pass",
            report.properties is not None
            and all(
                report.properties.checks[name].passed
                for name in ("arc1", "arc2", "arc3", "arc4", "arc5")
            ),
        )
        c.check("runtime < 1 s", elapsed < 1.0)


def test_criterion_4_parabola_arc_negative_diagnostic():
    with criterion(4, "tangent-parabola arc drift diagnostic") as c:
        start = time.perf_counter()
        prob = builtin_problem("paper-example-2")
        pd = evaluate_point(prob, np.zeros(2))
        delta = 0.2
        report = arc_for_direction(prob, pd, np.array([1.0, 0.0]), delta=delta)
        elapsed = time.perf_counter() - start

        c.check("construction succeeded", report.error is None)
        arc = report.arc
        expected = np.stack([arc.t, arc.t**2], axis=1)
        c.check(
            "trace matches (t, t^2) within 1e-8 per sample",
            np.abs(arc.points - expected).max() <= 1e-8,
        )
        checks = report.properties.checks
        c.check("pinned-residual property fails", not checks["arc2"].passed)
        per = checks["arc2"].detail["per_constraint"]
        c.check(
            "drift isolated to the second constraint",
            per["g2"] > 1e-3 and per["g1"] <= 1e-10,
        )
        c.check(
            "worst residual equals delta^2 within 1e-8",
            abs(checks["arc2"].worst - delta**2) <= 1e-8,
        )
        c.check(
            "all other properties pass",
            all(
                checks[name].passed
                for name in ("arc1", "arc3", "arc4", "arc5", "forward_feasible")
            ),
        )
        c.check("runtime < 1 s", elapsed < 1.0)


# fixtures for criterion 5: constraints whose rank scan is clean near the
# point (linear rows, monotone exponential/logarithmic rows, or smooth
# full-rank equalities), so the guaranteed-arc property suite must pass
BATTERY = [
    ("unit circle", "vars 2\nobjective -x1\neq x1^2 + x2^2 - 1\npoint 1 0\n"),
    ("shifted circle", "vars 2\nobjective x2\neq (x1 - 1)^2 + x2^2 - 4\npoint 3 0\n"),
    ("unit sphere", "vars 3\nobjective x3\neq x1^2 + x2^2 + x3^2 - 1\npoint 1 0 0\n"),
    ("paraboloid", "vars 3\nobjective x3\neq x3 - x1^2 - x2^2\npoint 0 0 0\n"),
    ("log sheet", "vars 2\nobjective x1\neq log(x1 + 1) - x2\npoint 0 0\n"),
    (
        "curved pair",
        "vars 3\nobjective x1\neq x1 + x2^2 + x3^2\neq x2 - x3\npoint 0 0 0\n",
    ),
    ("linear wedge", "vars 2\nobjective x1\nineq x1 + x2\nineq x1 - x2\npoint 0 0\n"),
    ("exponential wall", "vars 2\nobjective x2\nineq exp(x1) - 1\npoint 0 0\n"),
    ("log wall", "vars 2\nobjective x1\nineq -log(x1 + 1)\npoint 0 0\n"),
    (
        "halfplane with slack disk",
        "vars 2\nobjective x2 + x1^2\nineq -x2\nineq x1^2 + x2^2 - 4\npoint 0 0\n",
    ),
    (
        "cylinder",
        "vars 3\nobjective x3\neq x1^2 + x2^2 - 1\nineq -x3\npoint 1 0 0\n",
    ),
    (
        "plane and halfspace",
        "vars 3\nobjective x2\neq x1 + x2 + x3\nineq -x1\npoint 0 0 0\n",
    ),
]


def test_criterion_5_guaranteed_arc_battery():
    with criterion(5, "guaranteed-arc property battery") as c:
        start = time.perf_counter()
        c.check("battery has at least 10 fixtures", len(BATTERY) >= 10)
        for name, text in BATTERY:
            prob = load_problem(text)
            pd = evaluate_point(prob, prob.point)
            scan = check_rcrcq(prob, prob.point, NeighborhoodSampler(seed=0))
            c.check(f"{name}: rank scan clean", scan.status == "undetermined")
            from nlpcheck.cones import linearized_cone

            dirs = sample_directions(linearized_cone(pd), 8, seed=0)
            c.check(f"{name}: 8 directions sampled", len(dirs) == 8)
            for k, d in enumerate(dirs):
                rep = arc_for_direction(
                    prob, pd, d, delta=1e-2, verify_tol=1e-7
                )
                ok = (
                    rep.error is None
                    and rep.properties is not None
                    and all(
                        rep.properties.checks[nm].passed
                        for nm in ("arc1", "arc2", "arc3", "arc4", "arc5")
                    )
                )
                c.check(f"{name}: arc {k + 1} passes all properties", ok)
        elapsed = time.perf_counter() - start
        c.check("battery runtime < 30 s", elapsed < 30.0)


AD_CORPUS = [
    "x1^2 + (x2 - 1)^2 - 1",
    "1 - x1^2 - (x2 + 1)^2",
    "x1^2 - x2",
    "-x2",
    "-x1",
    "x1^2 + x2^2 - 1",
    "exp(x1) - 1",
    "-log(x1 + 1)",
    "log(x1 + 2) / (x2 + 3)",
    "sin(x1) * cos(x2)",
    "sqrt(x1 + 2) * x2",
    "(x1 + x2)^3 - x1 / (x2 + 2)",
]


def test_criterion_6_derivative_oracle_agreement():
    with criterion(6, "propagated derivatives vs finite differences") as c:
        rng = np.random.default_rng(2024)
        worst_grad = 0.0
        worst_hess = 0.0
        for source in AD_CORPUS:
            e = parse(source, 2)
            for _ in range(100):
                x = rng.uniform(-0.9, 0.9, size=2)
                ad = grad_hess(e, x)
                fd = fd_grad_hess(e, x)
                scale_g = 1.0 + np.abs(ad.grad).max()
                scale_h = 1.0 + np.abs(ad.hess).max()
                worst_grad = max(
                    worst_grad, np.abs(ad.grad - fd.grad).max() / scale_g
                )
                worst_hess = max(
                    worst_hess, np.abs(ad.hess - fd.hess).max() / scale_h
                )
        c.check(f"gradient deviation {worst_grad:.2e} <= 1e-6", worst_grad <= 1e-6)
        c.check(f"hessian deviation {worst_hess:.2e} <= 1e-4", worst_hess <= 1e-4)


def test_criterion_7_cone_form_equivalence():
    with criterion(7, "critical-cone form equivalence") as c:
        for name in ("paper-example-1", "paper-example-2"):
            prob = builtin_problem(name)
            pd = evaluate_point(prob, np.zeros(2))
            ms = solve_multipliers(pd)
            strong = strong_critical_cone(pd)
            for k, (mu, _) in enumerate(ms.vertices):
                mult = critical_cone_multiplier_form(pd, mu)
                disagreements = 0
                for d in sample_directions(strong, 1000, seed=k):
                    if not membership(mult, d, 1e-7):
                        disagreements += 1
                for d in sample_directions(mult, 1000, seed=k + 100):
                    if not membership(strong, d, 1e-7):
                        disagreements += 1
                c.check(
                    f"{name} vertex {k + 1}: zero disagreements in 2000 samples",
                    disagreements == 0,
                )


def test_criterion_8_quadratic_cone_oracle_equivalence():
    with criterion(8, "quadratic-on-cone oracle equivalence") as c:
        checked = 0
        worst = 0.0
        for n in (2, 3):
            rng = np.random.default_rng(800 + n)
            done = 0
            while done < 25:
                a = rng.standard_normal((n, n))
                h = a + a.T
                k_in = int(rng.integers(0, 5))
                a_in = rng.standard_normal((k_in, n))
                if rng.uniform() < 0.3 and n == 3:
                    a_eq = rng.standard_normal((1, n))
                else:
                    a_eq = np.zeros((0, n))
                cone = ConeRep(n=n, a_eq=a_eq, a_in=a_in)
                oracle = quad_cone_min_oracle(h, cone.a_eq, cone.a_in)
                if oracle is None:
                    continue
                res = min_quadratic_on_cone(h, cone)
                c.check(
                    f"pair n={n} #{done + 1}: certified",
                    res.certified,
                )
                dev = abs(res.min_value - oracle)
                worst = max(worst, dev)
                c.check(
                    f"pair n={n} #{done + 1}: |facial - grid| = {dev:.2e} <= 1e-5",
                    dev <= 1e-5,
                )
                done += 1
                checked += 1
        c.check(f"50 pairs checked (got {checked})", checked == 50)


DETERMINISM_CONFIGS = [
    RunConfig(problem="builtin:paper-example-1", seed=0),
    RunConfig(problem="builtin:paper-example-2", seed=0),
    RunConfig(
        problem="builtin:circle",
        seed=0,
        arc_dirs=(np.array([0.0, 1.0]),),
        delta=0.25,
    ),
    RunConfig(
        problem="builtin:paper-example-2",
        seed=0,
        arc_dirs=(np.array([1.0, 0.0]),),
        delta=0.2,
    ),
]


def test_criterion_9_byte_identical_reports():
    with criterion(9, "byte-identical reports across reruns") as c:
        for idx, config in enumerate(DETERMINISM_CONFIGS):
            first = report_to_json(run(config)).encode()
            second = report_to_json(run(config)).encode()
            c.check(f"config {idx + 1}: identical bytes", first == second)
