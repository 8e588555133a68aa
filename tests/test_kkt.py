"""Tests for multiplier enumeration and the second-order check.

Multiplier vertices are verified against hand-solved stationarity
systems; the second-order verdicts against the closed-form cone minima
of the two tangent fixtures.
"""

import json
import math
import os
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlpcheck import cli, cones, cq, kkt, linalg
from nlpcheck.cli import main
from nlpcheck.cones import strong_critical_cone
from nlpcheck.kkt import check_ssonc, recheck_ssonc_witness, solve_multipliers
from nlpcheck.model import (
    PointData,
    Tolerances,
    evaluate_point,
    lagrangian_hessian,
    load_problem,
)
from nlpcheck.problems import builtin_names, builtin_problem, builtin_source

from _oracles import (
    check_kkt,
    facial_minimum_oracle,
    multiplier_enumeration_oracle,
    same_bits,
)
from test_acceptance import BATTERY

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(BENCH)
import workloads  # noqa: E402


def tangent_disks_pd():
    return evaluate_point(builtin_problem("paper-example-1"), np.zeros(2))


def parabola_pd():
    return evaluate_point(builtin_problem("paper-example-2"), np.zeros(2))


def circle_pd():
    return evaluate_point(builtin_problem("circle"), np.array([1.0, 0.0]))


# both vertices are fine; the recession direction weights the concave
# constraint Hessians and dips negative
RAY_PROBLEM = (
    "vars 2\n"
    "objective x2 + 2*x1^2 + 2*x2^2\n"
    "ineq x2 - x1^2\n"
    "ineq -x2 - x1^2\n"
    "point 0 0\n"
)


def fan_problem(K, curvature=False):
    """K tilted planes ``cos(tk) x1 + sin(tk) x2 - x3 + x1^4 + x2^4 <= 0``
    through the origin, tk = 2 pi k / K, with objective x3.

    Without curvature the strong critical cone is {0}.  With it, each
    plane gains ``-c_k (x4^2 + x5^2)`` (c_k = (k mod 3) + 1) in R^5 and the
    objective ``x4^2 + x5^2``, so the cone is the (x4, x5) plane and every
    multiplier vertex has negative curvature there.
    """
    n = 5 if curvature else 3
    objective = "x3 + x4^2 + x5^2" if curvature else "x3"
    lines = [f"vars {n}", f"objective {objective}"]
    for k in range(1, K + 1):
        t = 2.0 * math.pi * k / K
        row = f"{math.cos(t)!r}*x1 + ({math.sin(t)!r})*x2 - x3 + x1^4 + x2^4"
        if curvature:
            row += f" - {(k % 3) + 1}*(x4^2 + x5^2)"
        lines.append(f"ineq {row}")
    lines.append("point " + " ".join(["0"] * n))
    return "\n".join(lines) + "\n"


def planes_problem(K):
    """K planes ``cos(tk) x1 + sin(tk) x2 - x3 + x1^2 <= 0``, tk = 2 pi k / K,
    with objective ``-x1^2 - x2^2 - x3^2``.

    The objective gradient vanishes, so the only multiplier is 0 and the
    strong critical cone is the nonzero cone ``cos(tk) d1 + sin(tk) d2 <=
    d3``, cut out by K + 1 inequality rows.
    """
    lines = ["vars 3", "objective -x1^2 - x2^2 - x3^2"]
    for k in range(K):
        t = 2.0 * math.pi * k / K
        lines.append(f"ineq {math.cos(t)!r}*x1 + ({math.sin(t)!r})*x2 - x3 + x1^2")
    lines.append("point 0 0 0")
    return "\n".join(lines) + "\n"


def problem_pd(text):
    prob = load_problem(text)
    return evaluate_point(prob, prob.point)


def sorted_mu_vertices(ms):
    return sorted(tuple(round(float(v), 12) for v in mu) for mu, _ in ms.vertices)


class TestSolveMultipliers:
    def test_tangent_disks_two_vertices(self):
        ms = solve_multipliers(tangent_disks_pd())
        assert ms.residual <= 1e-10
        assert ms.bounded
        assert not ms.partial
        assert ms.rays == []
        assert sorted_mu_vertices(ms) == [(0.0, 0.5), (0.5, 0.0)]
        # both disks share the normal (0, -2), so stationarity pins every
        # multiplier to 2(mu1 + mu2) = 1
        for mu, _ in ms.vertices:
            assert_allclose(2.0 * (mu[0] + mu[1]), 1.0, atol=1e-9)

    def test_parabola_two_vertices(self):
        ms = solve_multipliers(parabola_pd())
        assert sorted_mu_vertices(ms) == [(0.0, 1.0), (1.0, 0.0)]
        for mu, _ in ms.vertices:
            assert_allclose(mu[0] + mu[1], 1.0, atol=1e-9)

    def test_circle_unique_lambda(self):
        ms = solve_multipliers(circle_pd())
        assert len(ms.vertices) == 1
        mu, lam = ms.vertices[0]
        assert mu.size == 0
        assert_allclose(lam, [0.5], atol=1e-12)
        assert ms.bounded

    def test_non_kkt_point_empty(self):
        prob = load_problem("vars 2\nobjective x1\nineq -x2\npoint 0 0\n")
        ms = solve_multipliers(evaluate_point(prob, np.zeros(2)))
        assert ms.vertices == []
        assert ms.residual > 0.5
        assert ms.note

    def test_enumeration_decides_the_kkt_point(self):
        # the probe stops at y = (1, 0) with residual 1e-7, but the
        # enumeration finds the vertex mu = (2, 1); the residual reported
        # is that vertex's, so it is within the tolerance
        pd = problem_pd(PROBE_MISS)
        probe, _ = linalg.nnls(pd.c_grads.T, pd.f_grad, np.ones(2, dtype=bool))
        assert float(np.abs(pd.c_grads.T @ probe + pd.f_grad).max()) > pd.tol.rank
        ms = solve_multipliers(pd)
        assert ms.residual <= 1e-15
        assert len(ms.vertices) == 1 and not ms.partial and ms.rays == []
        assert_allclose(ms.vertices[0][0], [2.0, 1.0], rtol=1e-15)
        assert check_kkt(pd, *ms.vertices[0])[1]
        assert check_ssonc(pd, ms).status == "holds-certified"

    def test_small_gradient_multiplier_found(self):
        # LICQ holds and mu = 1e10 solves stationarity; the multiplier
        # probe once counted gradients below 1e-10 as zero, so it read
        # residual 1.0 and no vertex
        pd = problem_pd("vars 2\nobjective -x1\nineq 1e-10*x1\npoint 0 0\n")
        ms = solve_multipliers(pd)
        assert ms.residual == 0.0
        assert len(ms.vertices) == 1
        mu, lam = ms.vertices[0]
        assert_allclose(mu, [1e10], rtol=1e-12)
        assert check_kkt(pd, mu, lam)[1]
        assert check_ssonc(pd, ms).status == "holds-certified"

    def test_large_vertex_does_not_merge_small_ones(self):
        # the vertices are (0, 0, 1e10), (0, 0.5, 0) and (1, 0, 0); one
        # cut of 1e-9 times the largest multiplier (10) would merge the
        # last two.  The strong critical cone is {d1 = 0}, and only
        # (1, 0, 0) gives a form, diag(0, -2), negative on it
        pd = problem_pd("vars 2\nobjective x1\nineq -x1 - x2^2\nineq -2*x1\nineq -1e-10*x1\npoint 0 0\n")
        ms = solve_multipliers(pd)
        assert [mu.tolist() for mu, _ in ms.vertices] == [[0.0, 0.0, 1e10], [0.0, 0.5, 0.0], [1.0, 0.0, 0.0]]
        report = check_ssonc(pd, ms)
        assert report.status == "fails"
        assert report.worst["min_value"] < -1.0

    def test_unbounded_multiplier_ray(self):
        # opposing vertical gradients: mu2 = 1 + mu1 for every mu1 >= 0
        prob = load_problem(
            "vars 2\nobjective x2\nineq x2\nineq -x2\npoint 0 0\n"
        )
        ms = solve_multipliers(evaluate_point(prob, np.zeros(2)))
        assert not ms.bounded
        assert len(ms.rays) == 1
        assert sorted_mu_vertices(ms) == [(0.0, 1.0)]
        mu_dot, lam_dot = ms.rays[0]
        assert_allclose(mu_dot / mu_dot.max(), [1.0, 1.0], atol=1e-9)
        assert mu_dot.min() >= -1e-12

    def test_ray_labels_with_equality(self, tmp_path):
        # active set {1, 2, 4}; the only recession direction pairs g1 with h
        text = (
            "vars 3\nobjective x3\nineq x1^2 + x2^2 - x3\nineq -x1\n"
            "ineq x2 - 1\nineq x1 + x2 - x3\neq x3 - x1^2\npoint 0 0 0\n"
        )
        pd = problem_pd(text)
        ms = solve_multipliers(pd)
        assert len(ms.rays) == 1
        mu, lam = ms.rays[0]
        assert_allclose(mu, [math.sqrt(0.5), 0.0, 0.0, 0.0], atol=1e-12)
        assert_allclose(lam, [math.sqrt(0.5)], atol=1e-12)
        # a ray is a null combination of the constraint gradients
        assert_allclose(pd.c_grads.T @ np.concatenate([mu, lam]), 0.0, atol=1e-12)
        path = tmp_path / "ray.prob"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 0

    def test_ray_labels_skip_leading_inactive(self):
        # g1 is inactive at the origin; the ray lives on g2 and g3
        pd = problem_pd(
            "vars 2\nobjective x2\nineq x1 - 1\nineq x2\nineq -x2\npoint 0 0\n"
        )
        ms = solve_multipliers(pd)
        assert len(ms.rays) == 1
        mu, lam = ms.rays[0]
        assert_allclose(mu, [0.0, math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)
        assert lam.size == 0
        assert_allclose(sorted_mu_vertices(ms), [(0.0, 0.0, 1.0)])

    def test_unconstrained_stationary_point(self):
        prob = load_problem("vars 2\nobjective x1^2 + x2^2\npoint 0 0\n")
        ms = solve_multipliers(evaluate_point(prob, np.zeros(2)))
        assert ms.residual <= 1e-12
        assert len(ms.vertices) == 1
        mu, lam = ms.vertices[0]
        assert mu.size == 0 and lam.size == 0

    def test_inactive_multiplier_fixed_to_zero(self):
        prob = load_problem(
            "vars 2\nobjective x2\nineq -x2\nineq x1 - 1\npoint 0 0\n"
        )
        ms = solve_multipliers(evaluate_point(prob, np.zeros(2)))
        assert len(ms.vertices) == 1
        mu, _ = ms.vertices[0]
        assert_allclose(mu, [1.0, 0.0], atol=1e-12)

    def test_enumeration_cap_flags_partial(self, monkeypatch):
        monkeypatch.setattr(kkt, "_ENUM_LIMIT", 1)
        ms = solve_multipliers(tangent_disks_pd())
        assert ms.partial
        assert len(ms.vertices) == 1
        assert not ms.bounded  # boundedness is not certified when partial

    def test_vertices_checked_at_the_gate_tolerance(self):
        # the probe's residual 1e-7 passes the KKT gate at --tol-rank 1e-6,
        # and each vertex's stationarity is checked at the same tolerance,
        # so mu = 1 is a vertex and SSONC is certified; at the default
        # 1e-8 the point is not a KKT point
        prob = load_problem("vars 2\nobjective x1 + 1e-7*x2\nineq -x1\npoint 0 0\n")
        pd = evaluate_point(prob, prob.point, Tolerances(rank=1e-6))
        ms = solve_multipliers(pd)
        assert ms.residual == 1e-7
        assert [mu.tolist() for mu, _ in ms.vertices] == [[1.0]]
        assert (ms.rays, ms.bounded, ms.partial, ms.note) == ([], True, False, "")
        assert check_ssonc(pd, ms).status == "holds-certified"
        assert solve_multipliers(evaluate_point(prob, prob.point)).vertices == []

    def test_rank_tolerance_decides_which_subsets_are_independent(self):
        # gradients (-1, 0), (-1, 1e-7) and (1, 1e-7): each pair's
        # sigma_min / sigma_max is about 5e-8, between the two cutoffs.  At
        # 1e-8 every pair is independent, so mu = (1, 0, 0) is the one
        # vertex.  At 1e-6 the pairs are dependent: the nearly opposite ones
        # give two rays, and the second row alone solves stationarity
        # within 1e-6, which gives a second vertex
        prob = load_problem(STRADDLE)
        h = 0.5**0.5
        expected = {
            1e-8: ([[1.0, 0.0, 0.0]], np.empty((0, 3))),
            1e-6: ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, h, h], [h, 0.0, h]]),
        }
        for rank, (vertices, rays) in expected.items():
            pd = evaluate_point(prob, prob.point, Tolerances(rank=rank))
            ms = solve_multipliers(pd)
            TestStackedSubsets.assert_same(ms, multiplier_enumeration_oracle(pd))
            assert_allclose([mu for mu, _ in ms.vertices], vertices, atol=1e-12)
            assert_allclose(np.reshape([mu for mu, _ in ms.rays], (-1, 3)), rays, atol=1e-12)
            assert ms.bounded == (not len(rays)) and not ms.partial
            assert check_ssonc(pd, ms).status == "holds-certified"

    def test_vertices_deterministic(self):
        a = solve_multipliers(tangent_disks_pd())
        b = solve_multipliers(tangent_disks_pd())
        for (mu1, lam1), (mu2, lam2) in zip(a.vertices, b.vertices):
            assert np.array_equal(mu1, mu2)
            assert np.array_equal(lam1, lam2)


class TestCheckKkt:
    def test_vertices_satisfy_kkt(self):
        pd = tangent_disks_pd()
        ms = solve_multipliers(pd)
        for mu, lam in ms.vertices:
            residual, ok = check_kkt(pd, mu, lam)
            assert ok
            assert residual <= 1e-10

    def test_wrong_multiplier_rejected(self):
        pd = tangent_disks_pd()
        residual, ok = check_kkt(pd, np.array([0.5, 0.5]), np.zeros(0))
        assert not ok
        assert residual >= 0.9  # stationarity misses by (0, -1)

    def test_negative_multiplier_rejected(self):
        pd = parabola_pd()
        residual, ok = check_kkt(pd, np.array([2.0, -1.0]), np.zeros(0))
        assert not ok

    def test_complementarity_violation_rejected(self):
        prob = load_problem(
            "vars 2\nobjective x2\nineq -x2\nineq x1 - 1\npoint 0 0\n"
        )
        pd = evaluate_point(prob, np.zeros(2))
        # feasible multiplier for stationarity but positive on an
        # inactive constraint would break mu_i g_i = 0
        residual, ok = check_kkt(pd, np.array([1.0, 0.5]), np.zeros(0))
        assert not ok

    def test_zero_multiplier_at_unconstrained_stationary_point(self):
        prob = load_problem("vars 2\nobjective x1^2 + x2^2\npoint 0 0\n")
        pd = evaluate_point(prob, np.zeros(2))
        residual, ok = check_kkt(pd, np.zeros(0), np.zeros(0))
        assert ok


class TestSsonc:
    def test_tangent_disks_fails_with_unit_witness(self):
        pd = tangent_disks_pd()
        report = check_ssonc(pd, solve_multipliers(pd))
        assert report.status == "fails"
        assert_allclose(report.worst["min_value"], -1.0, atol=1e-8)
        assert_allclose(report.worst["mu"], [0.0, 0.5], atol=1e-9)
        d = np.array(report.worst["witness_direction"])
        assert_allclose(np.abs(d), [1.0, 0.0], atol=1e-8)
        assert report.worst["certified"]

    def test_parabola_holds_certified(self):
        pd = parabola_pd()
        report = check_ssonc(pd, solve_multipliers(pd))
        assert report.status == "holds-certified"
        minima = sorted(round(r["min_value"], 9) for r in report.results)
        assert minima == [0.0, 2.0]

    def test_circle_holds(self):
        pd = circle_pd()
        report = check_ssonc(pd, solve_multipliers(pd))
        assert report.status == "holds-certified"
        assert_allclose(report.results[0]["min_value"], 1.0, atol=1e-9)

    def test_ray_carries_negative_curvature(self):
        pd = problem_pd(RAY_PROBLEM)
        ms = solve_multipliers(pd)
        assert not ms.bounded
        report = check_ssonc(pd, ms)
        assert report.status == "fails"
        assert report.worst["kind"] == "ray"
        assert report.worst["min_value"] < -1e-8

    def test_no_multipliers_raises(self):
        prob = load_problem("vars 2\nobjective x1\nineq -x2\npoint 0 0\n")
        pd = evaluate_point(prob, np.zeros(2))
        with pytest.raises(ValueError, match="no KKT"):
            check_ssonc(pd, solve_multipliers(pd))

    def test_partial_enumeration_cannot_certify_holds(self, monkeypatch):
        monkeypatch.setattr(kkt, "_ENUM_LIMIT", 1)
        pd = tangent_disks_pd()
        ms = solve_multipliers(pd)
        report = check_ssonc(pd, ms)
        # with one representative multiplier the check either records the
        # failure or must stay undetermined; it may not certify success
        assert report.status in ("fails", "undetermined")

    def test_recheck_witness_matches(self):
        pd = tangent_disks_pd()
        report = check_ssonc(pd, solve_multipliers(pd))
        value = recheck_ssonc_witness(pd, report.worst)
        assert_allclose(value, report.worst["min_value"], atol=1e-10)

    def test_rationale_present(self):
        pd = tangent_disks_pd()
        report = check_ssonc(pd, solve_multipliers(pd))
        assert "negative" in report.rationale or "fails" in report.rationale

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "text, status, value",
        [
            # mu = 1e10 times the Hessian entry -2e300 is -inf
            ("vars 2\nobjective -x1\nineq 1e-10*x1 - 1e300*x2^2\npoint 0 0\n", "fails", -math.inf),
            # the Lagrangian's sum 1e308 + 1e308 overflows
            (
                "vars 2\nobjective -x1 + 0.5e308*x2^2\nineq x1 + 0.5e308*x2^2\npoint 0 0\n",
                "holds-certified",
                math.inf,
            ),
            (
                "vars 2\nobjective x1 + 0.75e308*x2^2\nineq -x1 + 0.75e308*x2^2\npoint 0 0\n",
                "holds-certified",
                math.inf,
            ),
            (
                "vars 2\nobjective x1 - 0.75e308*x2^2\nineq -x1 - 0.75e308*x2^2\npoint 0 0\n",
                "fails",
                -math.inf,
            ),
        ],
        ids=["inf-multiplier-product", "sum-overflow", "sum-overflow-up", "sum-overflow-down"],
    )
    def test_overflowing_form_is_certified(self, text, status, value):
        # every Hessian is finite, but a multiplier product or the sum is
        # not: each term is scaled by one power of two before the sum, and
        # the minimum on the critical cone {d1 = 0} is scaled back, to
        # +-inf past the float range
        pd = problem_pd(text)
        assert np.isfinite(pd.f_hess).all() and np.isfinite(pd.c_hesses).all()
        report = check_ssonc(pd, solve_multipliers(pd))
        assert report.status == status
        (entry,) = report.results
        assert (entry["method"], entry["certified"]) == ("facial-enumeration", True)
        assert [abs(v) for v in entry["witness_direction"]] == [0.0, 1.0]
        assert entry["min_value"] == value
        assert recheck_ssonc_witness(pd, entry) == value

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "coef, value",
        [("0.3e308", -1.2e308), ("0.5e308", -math.inf)],
        ids=["finite-minimum", "restricted-overflow"],
    )
    def test_finite_form_above_the_walk_limit_is_certified(self, coef, value):
        # entries of 2 * coef, above finfo.max / 12: on the face x1 = 0 the
        # restricted form could overflow, so the walk runs on the form
        # scaled by 2^-3, and the minimum -4 * coef is scaled back, to -inf
        # where that overflows
        pd = problem_pd(f"vars 3\nobjective -x1 - {coef}*(x2 + x3)^2\nineq x1\npoint 0 0 0\n")
        assert np.abs(pd.f_hess).max() > np.finfo(float).max / 12
        report = check_ssonc(pd, solve_multipliers(pd))
        assert report.status == "fails"
        (entry,) = report.results
        assert (entry["method"], entry["certified"]) == ("facial-enumeration", True)
        assert_allclose(entry["witness_direction"], [0.0, 0.5**0.5, 0.5**0.5])
        assert_allclose(entry["min_value"], value, rtol=1e-12)
        if math.isfinite(value):
            assert_allclose(recheck_ssonc_witness(pd, entry), entry["min_value"], rtol=1e-12)


class TestSharedFaces:
    """check_ssonc enumerates the faces of the strong critical cone once
    and minimizes every vertex and ray form on each of them."""

    @pytest.mark.parametrize(
        "pd_factory",
        [
            tangent_disks_pd,
            parabola_pd,
            lambda: problem_pd(fan_problem(5, curvature=True)),
            lambda: problem_pd(RAY_PROBLEM),
        ],
        ids=["paper-example-1", "paper-example-2", "fanfree-5", "ray"],
    )
    def test_matches_single_form_enumeration(self, pd_factory):
        pd = pd_factory()
        ms = solve_multipliers(pd)
        report = check_ssonc(pd, ms)
        assert len(report.results) == len(ms.vertices) + len(ms.rays)
        assert [r["kind"] for r in report.results] == (
            ["vertex"] * len(ms.vertices) + ["ray"] * len(ms.rays)
        )
        cone = strong_critical_cone(pd)
        for entry in report.results:
            H = lagrangian_hessian(pd, np.array(entry["mu"]), np.array(entry["lam"]))
            if entry["kind"] == "ray":
                H = H - pd.f_hess
            value, witness = facial_minimum_oracle(H, cone)
            assert entry["method"] == "facial-enumeration"
            assert entry["min_value"] == value
            assert entry["witness_direction"] == [float(v) for v in witness]

    @staticmethod
    def count_stacks(monkeypatch):
        """Record the stack size of every stacked nullspace SVD
        (``linalg._nullspace_factors``, which ``grouped_nullspace_bases``
        calls once per selection size)."""
        calls = []
        real = linalg._nullspace_factors

        def counting(stack, *args, **kwargs):
            calls.append(len(stack))
            return real(stack, *args, **kwargs)

        monkeypatch.setattr(linalg, "_nullspace_factors", counting)
        return calls

    def check_faces(self, calls, chunks):
        # every face passes through the stacked SVD once, and a chunk makes
        # at most one stacked call per pinned-row count
        for pd in (parabola_pd(), problem_pd(fan_problem(5, curvature=True))):
            ms = solve_multipliers(pd)
            k_in = strong_critical_cone(pd).a_in.shape[0]
            calls.clear()
            report = check_ssonc(pd, ms)
            assert len(report.results) > 1
            assert sum(calls) == 1 << k_in
            assert len(calls) <= (k_in + 1) * chunks(1 << k_in)

    def test_one_face_enumeration_per_check(self, monkeypatch):
        self.check_faces(self.count_stacks(monkeypatch), lambda faces: 1)

    def test_face_enumeration_in_chunks(self, monkeypatch):
        calls = self.count_stacks(monkeypatch)
        monkeypatch.setattr(cones, "stack_chunk", lambda floats: 8)
        self.check_faces(calls, lambda faces: -(-faces // 8))

    def check_subsets(self, calls, chunks):
        # every nonempty column subset of at most r0 + 1 = 4 columns passes
        # through the stacked SVD once (the empty one needs none, and a
        # larger one can be neither a vertex nor a ray: x4 and x5 enter
        # only squared, so every gradient has r0 = 3 nonzero entries), and
        # a chunk makes at most one stacked call per subset size
        pd = problem_pd(fan_problem(5, curvature=True))
        a = len(pd.active)
        solve_multipliers(pd)
        assert sum(calls) == sum(math.comb(a, c) for c in range(1, 5)) == (1 << a) - 2
        assert len(calls) <= (a + 1) * chunks(1 << a)

    def test_one_svd_per_multiplier_subset(self, monkeypatch):
        self.check_subsets(self.count_stacks(monkeypatch), lambda subsets: 1)

    def test_multiplier_subsets_in_chunks(self, monkeypatch):
        calls = self.count_stacks(monkeypatch)
        monkeypatch.setattr(kkt, "stack_chunk", lambda floats: 8)
        self.check_subsets(calls, lambda subsets: -(-subsets // 8))


def random_multiplier_pd(seed):
    """A point whose multiplier polyhedron has small integer data.

    Gradients are integers in [-2, 2], so column subsets are often
    dependent, and stationarity is met by an integer multiplier with some
    zero entries.  Seeds 0-3 have a + p = ``_ENUM_LIMIT``; seeds 4-7 have
    an equality gradient that is the sum of two others (a lineality space);
    seed 19 is not a KKT point.  Inactive inequalities are interleaved with
    the active ones.
    """
    rng = np.random.default_rng([13, seed])
    if seed < 4:
        p = seed
        a = kkt._ENUM_LIMIT - p
    else:
        a, p = int(rng.integers(0, 8)), int(rng.integers(2 if seed < 8 else 0, 4))
    n = int(rng.integers(2, 6))
    inactive = int(rng.integers(0, 3))
    m = a + inactive
    labels = sorted(rng.choice(m, size=a, replace=False).tolist()) if a else []
    grads = rng.integers(-2, 3, size=(m + p, n)).astype(float)
    if 4 <= seed < 8:
        grads[m + p - 1] = grads[m] + grads[m + 1] if p > 2 else 2.0 * grads[m]
    y = np.zeros(m + p)
    y[labels] = rng.integers(0, 3, size=a)
    y[m:] = rng.integers(-2, 3, size=p)
    f_grad = -(y @ grads)
    if seed == 19:
        f_grad = f_grad + rng.standard_normal(n)
    c_vals = np.zeros(m + p)
    c_vals[[i for i in range(m) if i not in labels]] = -1.0
    return PointData(
        x=np.zeros(n),
        f_val=0.0,
        f_grad=f_grad,
        f_hess=np.zeros((n, n)),
        m=m,
        c_vals=c_vals,
        c_grads=grads,
        c_hesses=np.zeros((m + p, n, n)),
        active=tuple(i + 1 for i in labels),
        tol=Tolerances(),
    )


# the probe stops at residual 1e-7 here, but mu = (2, 1) solves
# stationarity: LICQ holds and the enumeration finds the one vertex
PROBE_MISS = "vars 2\nobjective x1 - 1e-7*x2\nineq -x1\nineq x1 + 1e-7*x2\npoint 0 0\n"
# gradients (-1, 0), (-1, 1e-7) and (1, 1e-7): each pair's sigma_min /
# sigma_max is about 5e-8, just above the default cutoff, which makes
# these the worst-conditioned independent subsets a screen sees here
STRADDLE = "vars 2\nobjective x1\nineq -x1\nineq -x1 + 1e-7*x2\nineq x1 + 1e-7*x2\npoint 0 0\n"

NAMED = (
    [(name, problem_pd(builtin_source(name))) for name in builtin_names()]
    + [(name, problem_pd(text)) for name, text in BATTERY]
    + [
        ("chain-7", problem_pd(workloads.chain_text(7))),
        ("fan-5-curved", problem_pd(fan_problem(5, curvature=True))),
        ("fan-8", problem_pd(workloads.fan_text(8))),
        ("fan-12", problem_pd(workloads.fan_text(12))),
        ("probe-miss", problem_pd(PROBE_MISS)),
        ("straddle", problem_pd(STRADDLE)),
    ]
    + [(f"fanfree-{K}", problem_pd(workloads.fanfree_text(K))) for K in range(5, 11)]
)


class TestStackedSubsets:
    """The stacked subset loop reproduces the one-subset-at-a-time
    enumeration (``multiplier_enumeration_oracle``) bit for bit."""

    @staticmethod
    def assert_same(ms, ref):
        assert same_bits(ms.residual, ref.residual)
        for name in ("vertices", "rays"):
            got, want = getattr(ms, name), getattr(ref, name)
            assert len(got) == len(want), name
            for (mu, lam), (mu_ref, lam_ref) in zip(got, want):
                assert same_bits(mu, mu_ref) and same_bits(lam, lam_ref), name
        assert (ms.bounded, ms.partial, ms.note) == (ref.bounded, ref.partial, ref.note)
        assert ms.active == ref.active

    @pytest.mark.parametrize("pd", [pd for _, pd in NAMED], ids=[name for name, _ in NAMED])
    def test_named_problems(self, pd):
        self.assert_same(solve_multipliers(pd), multiplier_enumeration_oracle(pd))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_problems(self, seed):
        pd = random_multiplier_pd(seed)
        self.assert_same(solve_multipliers(pd), multiplier_enumeration_oracle(pd))

    @pytest.mark.parametrize("seed, chunk", [(0, 100), (4, 3), (9, 3)])
    def test_small_chunks(self, seed, chunk, monkeypatch):
        pd = random_multiplier_pd(seed)
        ref = multiplier_enumeration_oracle(pd)
        monkeypatch.setattr(kkt, "stack_chunk", lambda floats: chunk)
        self.assert_same(solve_multipliers(pd), ref)

    def test_smallest_vertex_residual_across_chunks(self, monkeypatch):
        # the probe stops at residual 1.03e-8, past the tolerance.  With one
        # subset a chunk, the empty subset (residual 9.68e-9) comes last,
        # after the vertex that keeps the first column (residual 9.49e-9),
        # whose residual is the one reported
        pd = problem_pd(
            "vars 2\nobjective 9.68e-09*x1 + 8.16e-09*x2\n"
            "ineq -0.49*x1 + 0.42*x2\nineq -0.42*x1 + 0.24*x2\npoint 0 0\n"
        )
        ref = multiplier_enumeration_oracle(pd)
        monkeypatch.setattr(kkt, "stack_chunk", lambda floats: 1)
        ms = solve_multipliers(pd)
        self.assert_same(ms, ref)
        assert len(ms.vertices) == 2 and 9.4e-9 < ms.residual < 9.5e-9

    @pytest.mark.parametrize("rank", [1e-6, 1e-13])
    def test_rank_tolerances(self, rank):
        # at 1e-13, below kkt._RANK_FLOOR, every subset is ranked
        assert (rank > kkt._RANK_FLOOR) == (rank == 1e-6)
        for text in (STRADDLE, PROBE_MISS, workloads.fanfree_text(9)):
            prob = load_problem(text)
            pd = evaluate_point(prob, prob.point, Tolerances(rank=rank))
            self.assert_same(solve_multipliers(pd), multiplier_enumeration_oracle(pd))

    def test_screen_on_every_group(self, monkeypatch):
        # the screen rules out no subset whose exact solve passes, in the
        # small groups it is not run on too
        monkeypatch.setattr(kkt, "_SCREEN_MIN", 1)
        pds = [pd for _, pd in NAMED] + [random_multiplier_pd(seed) for seed in range(20)]
        for pd in pds:
            self.assert_same(solve_multipliers(pd), multiplier_enumeration_oracle(pd))

    @staticmethod
    def count_calls(monkeypatch):
        """Count the subsets ranked (the stack sizes of
        ``linalg._nullspace_factors``), the SVD calls and the
        ``np.linalg.lstsq`` calls."""
        counts = {"ranked": 0, "svd": 0, "lstsq": 0}
        factors, lstsq = linalg._nullspace_factors, np.linalg.lstsq

        def counting_factors(stack, *args, **kwargs):
            counts["ranked"] += len(stack)
            counts["svd"] += 1
            return factors(stack, *args, **kwargs)

        def counting_lstsq(*args, **kwargs):
            counts["lstsq"] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(linalg, "_nullspace_factors", counting_factors)
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        return counts

    @pytest.mark.parametrize(
        "K, ranked, lstsq, vertices",
        # of 511 and 1023 subsets; 132 and 177 solves in 9 and 10 SVD calls
        # when every subset is ranked and every independent one solved
        [(9, 255, 33, 30), (10, 385, 67, 25)],
        ids=["fanfree-9", "fanfree-10"],
    )
    def test_fanfree_ranks_and_solves_few_subsets(self, K, ranked, lstsq, vertices, monkeypatch):
        # x4 and x5 enter only squared, so r0 = 3: subsets of at most four
        # of the K columns are ranked, one SVD per size
        pd = problem_pd(workloads.fanfree_text(K))
        counts = self.count_calls(monkeypatch)
        ms = solve_multipliers(pd)
        assert counts == {"ranked": ranked, "svd": 4, "lstsq": lstsq}
        assert ranked == sum(math.comb(K, c) for c in range(1, 5))
        assert (len(ms.vertices), len(ms.rays)) == (vertices, 0)

    def test_below_the_floor_every_subset_is_ranked(self, monkeypatch):
        prob = load_problem(workloads.fanfree_text(9))
        pd = evaluate_point(prob, prob.point, Tolerances(rank=1e-13))
        counts = self.count_calls(monkeypatch)
        solve_multipliers(pd)
        assert (counts["ranked"], counts["svd"]) == (511, 9)

    def test_random_problems_reach_every_branch(self):
        pds = [random_multiplier_pd(seed) for seed in range(20)]
        results = [solve_multipliers(pd) for pd in pds]
        assert sum(len(pd.rows) == kkt._ENUM_LIMIT for pd in pds) >= 4
        assert any("lineality" in ms.note for ms in results)
        assert any("not a KKT point" in ms.note for ms in results)
        assert any(ms.rays for ms in results)
        assert sum(len(ms.vertices) > 1 for ms in results) >= 3


class TestScreen:
    """``kkt._screen`` rules out only stacks whose exact solve fails."""

    @staticmethod
    def near_boundary_stacks():
        # rhs = a1 + a2, and a0 is within 1e-6 of a1: condition numbers up
        # to 6e7, under the cutoff's 1e8, and a first multiplier that is 0
        # exactly, which lstsq and the screen's QR solve each read as a
        # different number about 1e-9 either side of 0
        rng = np.random.default_rng(7)
        rhs = np.zeros(5)
        rhs[0] = 1.0
        a1 = rng.standard_normal((200, 5))
        a0 = a1 + 1e-6 * rng.standard_normal((200, 5))
        subs = np.stack([a0, a1, rhs - a1], axis=2)
        s = np.linalg.svd(subs, compute_uv=False)
        assert (s[:, -1] > 1e-8 * s[:, 0]).all()
        return subs, rhs

    def test_keeps_every_stack_lstsq_passes(self):
        subs, rhs = self.near_boundary_stacks()
        passes = []
        for sub in subs:
            y, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
            passes.append(float(np.abs(sub @ y - rhs).max()) <= 1e-8 and y[0] >= -1e-12)
        assert 0 < sum(passes) < len(passes)
        kept = kkt._screen(subs, rhs, 1, 1e-8)
        assert kept[passes].all()

    def test_rules_out_clear_misses(self):
        subs, rhs = self.near_boundary_stacks()
        # multipliers near (0, -1, -1), and a residual near 1
        assert not kkt._screen(subs, -rhs, 3, 1e-8).any()
        assert not kkt._screen(subs[:, :, :2], rhs, 0, 1e-8).any()


class TestZeroCone:
    @pytest.mark.parametrize("K", [3, 4])
    def test_fan_holds_certified(self, K):
        # the tilted planes and f . d <= 0 leave only d = 0 in the cone
        pd = problem_pd(fan_problem(K))
        report = check_ssonc(pd, solve_multipliers(pd))
        assert report.status == "holds-certified"
        assert report.results
        for entry in report.results:
            assert entry["method"] == "zero-cone"
            assert entry["certified"]
            assert entry["min_value"] == 0.0
            assert entry["witness_direction"] == [0.0] * 3

    @pytest.mark.parametrize("K", [13, 14])
    def test_partial_multipliers_over_a_zero_cone_hold_certified(self, K):
        # the {0} certificate does not depend on the multiplier, so the
        # capped vertex enumeration of the wide fans does not weaken it
        pd = problem_pd(workloads.fan_text(K))
        ms = solve_multipliers(pd)
        assert ms.partial
        report = check_ssonc(pd, ms)
        assert report.status == "holds-certified"
        assert {entry["method"] for entry in report.results} == {"zero-cone"}
        assert "does not depend on the multiplier" in report.rationale

    def test_fan3_analysis_solves_one_lp(self, tmp_path, monkeypatch):
        # the MFCQ LP; the {0} cone takes no LP
        path = tmp_path / "fan-3.nlp"
        path.write_text(workloads.fan_text(3))
        calls = []
        real = linalg.simplex_lp

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # every nlpcheck module that binds the simplex, so no caller escapes
        bound = [
            module
            for name, module in sorted(sys.modules.items())
            if name.split(".")[0] == "nlpcheck" and getattr(module, "simplex_lp", None) is real
        ]
        assert cq in bound
        for module in bound:
            monkeypatch.setattr(module, "simplex_lp", counting)
        report = cli.run(cli.RunConfig(problem=str(path)))
        assert report["ssonc"]["status"] == "holds-certified"
        assert len(calls) == 1

    def test_fan12_analysis_is_fast(self, tmp_path):
        # the face loop over 2^13 faces took about 3 s of it
        path = tmp_path / "fan-12.nlp"
        path.write_text(workloads.fan_text(12))
        start = time.perf_counter()
        report = cli.run(cli.RunConfig(problem=str(path)))
        assert time.perf_counter() - start < 1.0
        assert report["ssonc"]["status"] == "holds-certified"


class TestBeyondFacialLimit:
    """A nonzero strong critical cone with more rows than the face loop
    enumerates has no certified minimum, so SSONC stays undetermined."""

    def test_uncertified_entries(self):
        pd = problem_pd(planes_problem(18))
        assert strong_critical_cone(pd).a_in.shape[0] > cones._FACIAL_LIMIT
        report = check_ssonc(pd, solve_multipliers(pd))
        assert report.status == "undetermined"
        assert report.results
        for entry in report.results:
            assert entry["method"] == "uncertified"
            assert not entry["certified"]
            assert entry["min_value"] == 0.0
            assert recheck_ssonc_witness(pd, entry) == entry["min_value"]

    def test_cli_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "planes.prob"
        path.write_text(planes_problem(18))
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--json", str(out)]) == 0
        ssonc = json.loads(out.read_text())["ssonc"]
        assert ssonc["status"] == "undetermined"
        assert [r["method"] for r in ssonc["results"]] == ["uncertified"]
