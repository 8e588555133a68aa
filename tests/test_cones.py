"""Tests for cone construction, membership, sampling, and the
quadratic-on-cone minimizer.

The minimizer is checked against the closed-form angular oracle in
tests/_oracles.py and against hand-derived values for the tangent-disk
and parabola fixtures.
"""

import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from nlpcheck import cones, linalg
from nlpcheck.cones import (
    ConeRep,
    _zero_cone_reach,
    linearized_cone,
    membership,
    min_quadratic_on_cone,
    min_quadratics_on_cone,
    sample_directions,
    strong_critical_cone,
)
from nlpcheck.kkt import solve_multipliers
from nlpcheck.model import Tolerances, evaluate_point, lagrangian_hessian, load_problem
from nlpcheck.problems import builtin_problem

from _oracles import (
    critical_cone_multiplier_form,
    eigenspace_box_oracle,
    facial_minima_oracle,
    facial_minimum_oracle,
    quad_cone_min_oracle,
    same_bits,
    zero_cone_oracle,
)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(BENCH)
import workloads  # noqa: E402


def tangent_disks_pd():
    return evaluate_point(builtin_problem("paper-example-1"), np.zeros(2))


def parabola_pd():
    return evaluate_point(builtin_problem("paper-example-2"), np.zeros(2))


def circle_pd():
    return evaluate_point(builtin_problem("circle"), np.array([1.0, 0.0]))


class TestLinearizedCone:
    def test_tangent_disks(self):
        cone = linearized_cone(tangent_disks_pd())
        assert cone.a_eq.shape == (0, 2)
        assert_allclose(cone.a_in, [[0.0, -2.0], [0.0, -2.0]])
        assert membership(cone, np.array([0.0, 1.0]))
        assert membership(cone, np.array([1.0, 0.0]))
        assert not membership(cone, np.array([0.0, -1.0]))

    def test_no_active_constraints_whole_space(self):
        prob = load_problem("vars 2\nobjective x1\nineq x1 - 1\npoint 0 0\n")
        cone = linearized_cone(evaluate_point(prob, np.zeros(2)))
        assert cone.a_eq.shape == (0, 2)
        assert cone.a_in.shape == (0, 2)
        assert membership(cone, np.array([-5.0, 3.0]))

    def test_circle_equality(self):
        cone = linearized_cone(circle_pd())
        assert_allclose(cone.a_eq, [[2.0, 0.0]])
        assert membership(cone, np.array([0.0, 1.0]))
        assert not membership(cone, np.array([1.0, 0.0]))


class TestStrongCriticalCone:
    def test_tangent_disks_pins_d2(self):
        pd = tangent_disks_pd()
        cone = strong_critical_cone(pd)
        assert_array_equal(cone.a_in[-1], pd.f_grad)
        assert membership(cone, np.array([1.0, 0.0]))
        assert membership(cone, np.array([-1.0, 0.0]))
        assert not membership(cone, np.array([0.0, 1.0]))
        assert not membership(cone, np.array([0.0, -1.0]))

    def test_parabola_pins_d2(self):
        cone = strong_critical_cone(parabola_pd())
        assert membership(cone, np.array([1.0, 0.0]))
        assert not membership(cone, np.array([0.3, 0.1]))

    def test_unconstrained_zero_gradient_whole_space(self):
        prob = load_problem("vars 2\nobjective x1^2 + x2^2\npoint 0 0\n")
        cone = strong_critical_cone(evaluate_point(prob, np.zeros(2)))
        rng = np.random.default_rng(5)
        for _ in range(10):
            assert membership(cone, rng.standard_normal(2))


class TestMultiplierFormCone:
    def test_tangent_disks_positive_first(self):
        cone = critical_cone_multiplier_form(
            tangent_disks_pd(), np.array([0.5, 0.0])
        )
        # g1 carries a positive multiplier, so its row becomes an equality
        assert cone.a_eq.shape == (1, 2)
        assert_allclose(cone.a_eq, [[0.0, -2.0]])
        assert membership(cone, np.array([1.0, 0.0]))
        assert not membership(cone, np.array([0.0, 1.0]))

    def test_parabola_vertex(self):
        cone = critical_cone_multiplier_form(parabola_pd(), np.array([1.0, 0.0]))
        assert membership(cone, np.array([-1.0, 0.0]))
        assert not membership(cone, np.array([0.0, 1.0]))

    def test_zero_multiplier_reduces_to_linearized(self):
        # a zero multiplier is only stationary when the objective gradient
        # vanishes, so use a constant objective
        prob = load_problem("vars 2\nobjective 0\nineq -x2\npoint 0 0\n")
        pd = evaluate_point(prob, np.zeros(2))
        cone = critical_cone_multiplier_form(pd, np.zeros(1))
        lin = linearized_cone(pd)
        assert cone.a_eq.shape == (0, 2)
        assert_allclose(cone.a_in, lin.a_in)

    def test_non_kkt_multiplier_rejected(self):
        with pytest.raises(ValueError, match="stationarity"):
            critical_cone_multiplier_form(tangent_disks_pd(), np.array([0.0, 0.0]))

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            critical_cone_multiplier_form(
                tangent_disks_pd(), np.array([-0.5, 1.0])
            )

    def test_matches_gradient_form_on_samples(self):
        pd = tangent_disks_pd()
        strong = strong_critical_cone(pd)
        mult = critical_cone_multiplier_form(pd, np.array([0.5, 0.0]))
        for cone_a, cone_b in ((strong, mult), (mult, strong)):
            dirs = sample_directions(cone_a, 50, seed=3)
            assert dirs, "expected nonzero members"
            for d in dirs:
                assert membership(replace(cone_b, tol=Tolerances(direction=1e-7)), d)


class TestMembership:
    def test_origin_always_member(self):
        cone = strong_critical_cone(tangent_disks_pd())
        assert membership(replace(cone, tol=Tolerances(direction=1e-12)), np.zeros(2))

    def test_tolerance_scales_with_norm(self):
        cone = replace(linearized_cone(circle_pd()), tol=Tolerances(direction=1e-6))
        # violation 5e-6 exceeds tol * (1 + ||d||) = 2e-6 at unit scale
        assert not membership(cone, np.array([2.5e-6, 1.0]))
        # the same absolute violation is well inside the allowance when
        # the direction itself is large
        assert membership(cone, np.array([2.5e-6, 1e7]))


class TestSampleDirections:
    def test_line_cone_gives_unit_axis(self):
        cone = strong_critical_cone(tangent_disks_pd())
        dirs = sample_directions(cone, 4, seed=0)
        assert len(dirs) == 4
        for d in dirs:
            assert_allclose(np.abs(d), [1.0, 0.0], atol=1e-12)

    def test_whole_space(self):
        prob = load_problem("vars 3\nobjective 0\npoint 0 0 0\n")
        cone = linearized_cone(evaluate_point(prob, np.zeros(3)))
        dirs = sample_directions(cone, 7, seed=1)
        assert len(dirs) == 7
        for d in dirs:
            assert_allclose(np.linalg.norm(d), 1.0, atol=1e-12)

    def test_zero_cone_returns_empty(self):
        from nlpcheck.cones import ConeRep

        cone = ConeRep(n=2, a_eq=np.eye(2), a_in=np.zeros((0, 2)))
        assert sample_directions(cone, 5, seed=0) == []

    def test_deterministic_for_fixed_seed(self):
        cone = linearized_cone(tangent_disks_pd())
        a = sample_directions(cone, 10, seed=42)
        b = sample_directions(cone, 10, seed=42)
        assert len(a) == len(b) == 10
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_members_of_halfspace(self):
        cone = linearized_cone(tangent_disks_pd())
        for d in sample_directions(cone, 20, seed=9):
            assert membership(cone, d)
            assert d[1] >= -1e-9


class TestMinQuadraticOnCone:
    def line_cone(self):
        return strong_critical_cone(tangent_disks_pd())

    def test_negative_curvature_on_line(self):
        # Lagrangian Hessian of the tangent disks at mu = (0, 1/2)
        res = min_quadratic_on_cone(-np.eye(2), self.line_cone())
        assert res.certified
        assert_allclose(res.min_value, -1.0, atol=1e-9)
        assert_allclose(np.abs(res.witness), [1.0, 0.0], atol=1e-9)
        assert_allclose(
            res.witness @ (-np.eye(2)) @ res.witness, res.min_value, atol=1e-9
        )

    def test_semidefinite_on_line(self):
        # parabola fixture at mu = (1, 0): Hessian diag(2, 0)
        res = min_quadratic_on_cone(np.diag([2.0, 0.0]), self.line_cone())
        assert res.certified
        assert_allclose(res.min_value, 2.0, atol=1e-9)

    def test_zero_matrix(self):
        res = min_quadratic_on_cone(np.zeros((2, 2)), self.line_cone())
        assert res.certified
        assert_allclose(res.min_value, 0.0, atol=1e-12)

    def test_identity_on_any_cone(self):
        for pd in (tangent_disks_pd(), parabola_pd(), circle_pd()):
            res = min_quadratic_on_cone(np.eye(2), linearized_cone(pd))
            assert res.certified
            assert_allclose(res.min_value, 1.0, atol=1e-9)

    def test_scaling_property(self):
        cone = linearized_cone(tangent_disks_pd())
        h = np.array([[1.0, 0.5], [0.5, -2.0]])
        base = min_quadratic_on_cone(h, cone)
        scaled = min_quadratic_on_cone(3.0 * h, cone)
        assert_allclose(scaled.min_value, 3.0 * base.min_value, atol=1e-9)

    def test_subspace_is_one_face(self):
        # no inequality rows: the face loop runs its single face
        cone = linearized_cone(circle_pd())
        h = np.diag([-3.0, 5.0])
        res = min_quadratic_on_cone(h, cone)
        value, witness = facial_minimum_oracle(h, cone)
        assert res.method == "facial-enumeration"
        assert res.certified
        assert res.min_value == value
        assert np.array_equal(res.witness, witness)
        assert_allclose(res.min_value, 5.0, atol=1e-12)

    def test_halfspace_picks_feasible_sign(self):
        cone = linearized_cone(tangent_disks_pd())  # d2 >= 0
        res = min_quadratic_on_cone(np.diag([1.0, -1.0]), cone)
        assert res.certified
        assert_allclose(res.min_value, -1.0, atol=1e-9)
        assert res.witness[1] > 0.9

    def test_degenerate_eigenspace_cut_by_wedge(self):
        # eigenvalue 1 has eigenspace span{e2, e3}; the rows exclude all
        # four signed basis vectors but keep the mixture (0, 1, 1)
        from nlpcheck.cones import ConeRep

        cone = ConeRep(
            n=3,
            a_eq=np.zeros((0, 3)),
            a_in=np.array([[0.0, 1.0, -2.0], [0.0, -2.0, 1.0]]),
        )
        res = min_quadratic_on_cone(np.diag([2.0, 1.0, 1.0]), cone)
        assert res.certified
        assert_allclose(res.min_value, 1.0, atol=1e-9)
        assert abs(res.witness[0]) <= 1e-6

    def test_nonzero_cone_beyond_facial_limit_is_uncertified(self):
        # 17 copies of d2 >= 0: a half-plane, but too many rows to enumerate
        cone = inequality_cone(np.tile([[0.0, -1.0]], (17, 1)))
        res = min_quadratic_on_cone(np.diag([1.0, -1.0]), cone)
        assert not res.certified
        assert res.method == "uncertified"
        assert res.min_value == 0.0
        assert np.array_equal(res.witness, np.zeros(2))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            min_quadratic_on_cone(
                np.array([[0.0, 1.0], [0.0, 0.0]]), self.line_cone()
            )

    def test_zero_cone_returns_zero(self):
        from nlpcheck.cones import ConeRep

        cone = ConeRep(n=2, a_eq=np.eye(2), a_in=np.zeros((0, 2)))
        res = min_quadratic_on_cone(np.diag([-4.0, -4.0]), cone)
        assert res.certified
        assert res.min_value == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_angular_oracle(self, n):
        from nlpcheck.cones import ConeRep

        rng = np.random.default_rng(100 + n)
        done = 0
        while done < 12:
            a = rng.standard_normal((n, n))
            h = a + a.T
            k_in = int(rng.integers(0, 4))
            a_in = rng.standard_normal((k_in, n))
            cone = ConeRep(n=n, a_eq=np.zeros((0, n)), a_in=a_in)
            oracle = quad_cone_min_oracle(h, cone.a_eq, cone.a_in)
            if oracle is None:
                continue
            res = min_quadratic_on_cone(h, cone)
            assert res.certified
            assert abs(res.min_value - oracle) <= 1e-5
            assert membership(cone, res.witness)
            done += 1


def inequality_cone(a_in):
    a_in = np.asarray(a_in, dtype=float)
    n = a_in.shape[1]
    return ConeRep(n=n, a_eq=np.zeros((0, n)), a_in=a_in)


class TestMinQuadraticsOnCone:
    """Several forms minimized over one shared face enumeration."""

    def wedge(self):
        # the degenerate-eigenspace wedge of TestMinQuadraticOnCone
        return inequality_cone([[0.0, 1.0, -2.0], [0.0, -2.0, 1.0]])

    def test_matches_single_form_enumeration(self):
        rng = np.random.default_rng(7)
        forms = [np.diag([2.0, 1.0, 1.0]), np.diag([1.0, -1.0, 3.0])]
        for _ in range(4):
            a = rng.standard_normal((3, 3))
            forms.append(a + a.T)
        cone = self.wedge()
        results = min_quadratics_on_cone(forms, cone)
        assert len(results) == len(forms)
        for H, res in zip(forms, results):
            value, witness = facial_minimum_oracle(H, cone)
            assert res.method == "facial-enumeration"
            assert res.certified
            assert res.min_value == value
            assert np.array_equal(res.witness, witness)
        # the degenerate eigenspace is still settled by its LP
        assert_allclose(results[0].min_value, 1.0, atol=1e-9)

    def test_single_form_is_first_of_batch(self):
        cone = self.wedge()
        h = np.array([[1.0, 0.5, 0.0], [0.5, -2.0, 0.3], [0.0, 0.3, 0.7]])
        single = min_quadratic_on_cone(h, cone)
        batch = min_quadratics_on_cone([h, np.eye(3)], cone)
        assert single.min_value == batch[0].min_value
        assert np.array_equal(single.witness, batch[0].witness)

    def test_empty_list(self):
        assert min_quadratics_on_cone([], self.wedge()) == []

    def test_every_form_validated(self):
        with pytest.raises(ValueError):
            min_quadratics_on_cone(
                [np.eye(3), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])],
                self.wedge(),
            )


class TestStackedFaces:
    """The stacked face loop reproduces the one-face-at-a-time enumeration
    (``facial_minima_oracle``) bit for bit, form by form."""

    @staticmethod
    def assert_matches_oracle(forms, cone):
        results = min_quadratics_on_cone(forms, cone)
        for res, (value, witness) in zip(results, facial_minima_oracle(forms, cone)):
            assert res.method == "facial-enumeration"
            assert same_bits(res.min_value, value)
            assert same_bits(res.witness, witness)

    @staticmethod
    def fanfree_instance(K):
        prob = load_problem(workloads.fanfree_text(K))
        pd = evaluate_point(prob, prob.point)
        forms = [lagrangian_hessian(pd, mu, lam) for mu, lam in solve_multipliers(pd).vertices]
        return forms, strong_critical_cone(pd)

    @pytest.mark.parametrize(
        "K, chunk",
        [(9, None), (10, None), (9, 1), (10, 1), (9, 7), (10, 7)],
        ids=["9", "10", "9-chunks-of-1", "10-chunks-of-1", "9-chunks-of-7", "10-chunks-of-7"],
    )
    def test_fanfree_vertex_forms(self, K, chunk, monkeypatch):
        # small chunks carry each form's running minimum across face
        # chunks and across the runs of the eigenproblems
        if chunk is not None:
            monkeypatch.setattr(cones, "stack_chunk", lambda floats: chunk)
        forms, cone = self.fanfree_instance(K)
        assert len(forms) >= 25
        self.assert_matches_oracle(forms, cone)

    @staticmethod
    def many_forms_instance():
        # the cone and forms of test_many_forms_face_loop_memory_is_bounded
        rng = np.random.default_rng(17)
        a_in = rng.standard_normal((12, 12))
        a_in[:, 0] = -np.abs(a_in[:, 0])
        forms = []
        for a in rng.standard_normal((64, 11, 11)):
            H = np.zeros((12, 12))
            H[1:, 1:] = a + a.T
            H[0, 0] = np.linalg.eigvalsh(a + a.T)[0] - 1.0
            forms.append(H)
        return forms, inequality_cone(a_in)

    @pytest.mark.parametrize("instance", ["fanfree-9", "fanfree-10", "many-forms"])
    def test_one_eigensolve_per_distinct_basis_and_form(self, instance, monkeypatch):
        # within a run of faces, faces whose bases have the same bits share
        # one eigenproblem, and forms with the same bits are walked once
        if instance == "many-forms":
            forms, cone = self.many_forms_instance()
            # independent rows: every face but the one pinning all 12 has
            # d > 0, and every basis and every form is distinct
            assert np.linalg.matrix_rank(cone.a_in) == 12
            expected = ((1 << 12) - 1) * len(forms)
        else:
            forms, cone = self.fanfree_instance(int(instance.split("-")[1]))
            # five variables, and pinned rows of rank at most 3: d > 0 on
            # every face, so one eigenproblem per face and form would be
            # 30,720 and 51,200
            one_per_face = {"fanfree-9": 30720, "fanfree-10": 51200}[instance]
            assert len(forms) << cone.a_in.shape[0] == one_per_face
            expected = {"fanfree-9": 2900, "fanfree-10": 4872}[instance]
        solved = []
        real = cones._restricted_eigh

        def counting(Bs, H_stack):
            assert len({B.tobytes() for B in Bs}) == len(Bs), "two bases with equal bits"
            assert len({H.tobytes() for H in H_stack}) == len(H_stack), "two forms with equal bits"
            solved.append(Bs.shape[0] * H_stack.shape[0])
            return real(Bs, H_stack)

        monkeypatch.setattr(cones, "_restricted_eigh", counting)
        results = min_quadratics_on_cone(forms, cone)
        assert sum(solved) == expected
        assert {r.method for r in results} == {"facial-enumeration"}

    @pytest.mark.parametrize("chunk", [None, 1, 3], ids=["default", "chunks-of-1", "chunks-of-3"])
    def test_repeated_forms_across_runs_and_chunks(self, chunk, monkeypatch):
        # fanfree-9's forms, exact duplicates of three of them, and a copy
        # of one that differs only by a -0.0 entry: each result must be
        # the bits of that form minimized alone, however the faces are
        # split into chunks and runs
        forms, cone = self.fanfree_instance(9)
        signed = forms[2].copy()
        zeros = np.argwhere(signed == 0.0)
        assert len(zeros)
        signed[tuple(zeros[0])] = -0.0
        assert not np.array_equal(np.signbit(signed), np.signbit(forms[2]))
        batch = forms + [forms[0].copy(), forms[7].copy(), forms[2], signed]
        alone = [min_quadratic_on_cone(H, cone) for H in batch]
        if chunk is not None:
            monkeypatch.setattr(cones, "stack_chunk", lambda floats: chunk)
        results = min_quadratics_on_cone(batch, cone)
        assert len(results) == len(batch)
        for res, ref in zip(results, alone):
            assert res.method == ref.method == "facial-enumeration"
            assert res.certified == ref.certified
            assert same_bits(res.min_value, ref.min_value)
            assert same_bits(res.witness, ref.witness)
        # equal forms share one result object
        assert results[len(forms)] is results[0]
        assert results[len(forms) + 1] is results[7]
        assert results[len(forms) + 2] is results[2]
        assert results[len(forms) + 3] is not results[2]
        first, second = min_quadratics_on_cone([forms[5], forms[5]], cone)
        assert first is second
        assert same_bits(first.min_value, alone[5].min_value)
        assert same_bits(first.witness, alone[5].witness)

    @pytest.mark.parametrize("chunk", [None, 5], ids=["one-chunk", "chunks-of-5"])
    def test_cone_with_equality_rows(self, chunk, monkeypatch):
        rng = np.random.default_rng(41)
        cone = ConeRep(n=5, a_eq=rng.standard_normal((1, 5)), a_in=rng.standard_normal((5, 5)))
        forms = [np.diag([1.0, -1.0, 2.0, -3.0, 0.5])]
        for _ in range(5):
            a = rng.standard_normal((5, 5))
            forms.append(a + a.T)
        if chunk is not None:
            monkeypatch.setattr(cones, "stack_chunk", lambda floats: chunk)
        self.assert_matches_oracle(forms, cone)

    @pytest.mark.parametrize("chunk", [None, 1, 3], ids=["one-chunk", "chunks-of-1", "chunks-of-3"])
    def test_eigenvalue_cluster_reaches_the_box_maxima(self, chunk, monkeypatch):
        # each diagonal form has a repeated lowest eigenvalue on span{e2, e3},
        # where the wedge excludes every signed eigenvector eigh returns, so
        # only the search over the eigenspace's signed coordinate box (the
        # NNLS projections of its corners onto the wedge) finds the minimizer
        # (the cone has fewer rows than n, so the {0} test calls no nnls)
        cone = inequality_cone([[0.0, 1.0, -2.0], [0.0, -2.0, 1.0]])
        forms = [np.diag([2.0, 1.0, 1.0]), np.diag([3.0, -1.0, -1.0]), np.diag([0.0, -2.0, -2.0])]
        calls = []
        real = cones.nnls

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(cones, "nnls", counting)
        if chunk is not None:
            monkeypatch.setattr(cones, "stack_chunk", lambda floats: chunk)
        results = min_quadratics_on_cone(forms, cone)
        assert len(calls) >= len(forms)
        monkeypatch.setattr(cones, "nnls", real)
        self.assert_matches_oracle(forms, cone)
        assert_allclose([r.min_value for r in results], [1.0, -1.0, -2.0], atol=1e-9)

    def test_nonfinite_row_raises(self):
        cone = inequality_cone([[1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            min_quadratics_on_cone([np.eye(2)], cone)

    @pytest.mark.parametrize(
        "cone",
        [
            inequality_cone([[1.0, 0.0], [np.nan, 1.0]]),
            # fewer rows than n: the rank gate would return before any SVD
            ConeRep(n=2, a_eq=np.array([[np.inf, 0.0]]), a_in=np.zeros((0, 2))),
        ],
        ids=["inequality", "equality"],
    )
    def test_nonfinite_row_raises_before_lapack(self, cone, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK reached with a non-finite row")

        for name in ("numerical_rank", "nnls", "grouped_nullspace_bases"):
            monkeypatch.setattr(cones, name, no_lapack)
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            min_quadratics_on_cone([np.eye(2)], cone)

    def test_face_loop_memory_is_bounded(self):
        # 2^14 faces in R^20: the SVD's right factors alone would take
        # 2^14 * 20 * 20 * 8 bytes, about 50 MiB, if every face were stacked
        # at once; the chunks keep the peak near the stacking budget
        limit = 2 * linalg._STACK_BYTES
        assert (1 << 14) * 20 * 20 * 8 > limit
        rng = np.random.default_rng(5)
        a_in = rng.standard_normal((14, 20))
        a_in[:, 0] = -np.abs(a_in[:, 0])  # e1 lies in the cone
        cone = inequality_cone(a_in)
        # the first face (the whole space) gives the global minimum at e1,
        # so every later face is rejected by its eigenvalue alone
        H = np.diag(np.linspace(-1.0, 1.0, 20))
        tracemalloc.start()
        try:
            result = min_quadratics_on_cone([H], cone)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.method == "facial-enumeration"
        assert result.min_value == -1.0
        assert peak < limit

    def test_many_forms_face_loop_memory_is_bounded(self):
        # 64 forms on 2^12 faces in R^12: every form's eigenpairs on every
        # face would take about 80 MiB at once; the face chunks, and per
        # run of faces in _scan_faces the eigenpairs and the (faces, forms)
        # table of lowest eigenvalues read from them, keep the peak near
        # the stacking budget
        limit = 2 * linalg._STACK_BYTES
        dims = [12 - bin(mask).count("1") for mask in range(1 << 12)]
        assert 64 * sum(d * d for d in dims) * 8 > 10 * limit
        rng = np.random.default_rng(17)
        a_in = rng.standard_normal((12, 12))
        a_in[:, 0] = -np.abs(a_in[:, 0])  # e1 lies in the cone
        cone = inequality_cone(a_in)
        # each form's global minimum, at e1, lies a unit below the rest of
        # its spectrum, so the first face (the whole space) settles every
        # form and every later face is rejected by its table entry alone
        forms = []
        for a in rng.standard_normal((64, 11, 11)):
            H = np.zeros((12, 12))
            H[1:, 1:] = a + a.T
            H[0, 0] = np.linalg.eigvalsh(a + a.T)[0] - 1.0
            forms.append(H)
        tracemalloc.start()
        try:
            results = min_quadratics_on_cone(forms, cone)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [r.method for r in results] == ["facial-enumeration"] * len(forms)
        assert [abs(r.witness[0]) for r in results] == [1.0] * len(forms)
        assert peak < limit


class TestFacialLimit:
    def test_limit_is_inclusive(self, monkeypatch):
        # the degenerate-eigenspace wedge has two inequality rows
        cone = inequality_cone([[0.0, 1.0, -2.0], [0.0, -2.0, 1.0]])
        h = np.diag([2.0, 1.0, 1.0])
        monkeypatch.setattr(cones, "_FACIAL_LIMIT", 2)
        at = min_quadratic_on_cone(h, cone)
        assert at.method == "facial-enumeration"
        assert at.certified
        assert at.min_value == facial_minimum_oracle(h, cone)[0]
        monkeypatch.setattr(cones, "_FACIAL_LIMIT", 1)
        over = min_quadratic_on_cone(h, cone)
        assert over.method == "uncertified"
        assert not over.certified


class TestZeroCone:
    def test_zero_cone_beyond_facial_limit_is_certified(self):
        # 17 half-planes whose normals surround the origin cut R^2 to {0}
        angles = 2.0 * np.pi * np.arange(17) / 17
        cone = inequality_cone(np.column_stack([np.cos(angles), np.sin(angles)]))
        res = min_quadratic_on_cone(np.diag([-1.0, -2.0]), cone)
        assert res.method == "zero-cone"
        assert res.certified
        assert res.min_value == 0.0
        assert np.array_equal(res.witness, np.zeros(2))

    def test_zero_cone_after_facial_enumeration(self):
        # three tilted planes and x3 <= 0: no face has a feasible eigenvector
        angles = 2.0 * np.pi * np.arange(1, 4) / 3
        rows = np.column_stack([np.cos(angles), np.sin(angles), -np.ones(3)])
        cone = inequality_cone(np.vstack([rows, [[0.0, 0.0, 1.0]]]))
        results = min_quadratics_on_cone([np.eye(3), -np.eye(3)], cone)
        assert [r.method for r in results] == ["zero-cone", "zero-cone"]
        assert all(r.certified and r.min_value == 0.0 for r in results)

    @pytest.mark.parametrize(
        "rows",
        [
            # 0 <= d2 <= 1e-3 d1 in R^2
            [[-1e-3, 1.0], [0.0, -1.0]],
            # a thin wedge around the x3 axis in R^3
            [[1.0, 0.0, -1e-4], [-1.0, 0.0, -1e-4], [0.0, 1.0, -1e-4], [0.0, -1.0, -1e-4]],
            # one ray, (1, 2)
            [[2.0, -1.0], [-2.0, 1.0], [-1.0, 0.0]],
        ],
    )
    def test_thin_nonzero_cone_is_not_zero(self, rows):
        assert not _zero_cone_reach(inequality_cone(rows))[0] > 0.0

    def test_zero_cone_with_equalities(self):
        cone = ConeRep(
            n=3,
            a_eq=np.array([[1.0, 0.0, 0.0]]),
            a_in=np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
        )
        assert _zero_cone_reach(cone)[0] > 0.0
        assert not _zero_cone_reach(linearized_cone(circle_pd()))[0] > 0.0


def fan_cone(K, scale=1.0):
    """The fan-K strong critical cone: K tilted planes and ``d3 <= 0``."""
    t = 2.0 * np.pi * np.arange(1, K + 1) / K
    rows = np.column_stack([np.cos(t), np.sin(t), -np.ones(K)])
    return inequality_cone(scale * np.vstack([rows, [[0.0, 0.0, 1.0]]]))


class TestEigenspaceProjection:
    """The NNLS projections that search a repeated eigenvalue's eigenspace,
    against the box-maxima LPs they replaced (``eigenspace_box_oracle``)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_lp_oracle(self, n, monkeypatch):
        # a fully repeated eigenvalue, so the eigenspace is the whole face
        # and eigh's basis is any orthonormal one; every other wedge is
        # forced to contain a random direction
        rng = np.random.default_rng(9000 + n)
        calls = []
        real = cones.nnls
        monkeypatch.setattr(cones, "nnls", lambda *args: calls.append(1) or real(*args))
        searched = {True: 0, False: 0}
        for i in range(500):
            B, _ = np.linalg.qr(rng.standard_normal((n, n)))
            V, _ = np.linalg.qr(rng.standard_normal((n, n)))
            w = np.full(n, float(rng.standard_normal()))
            A_rest = rng.standard_normal((int(rng.integers(1, n + 4)), n))
            if i % 2 == 0:
                A_rest[A_rest @ (B @ rng.standard_normal(n)) > 0.0] *= -1.0
            before = len(calls)
            d = cones._feasible_in_eigenspace(B, w, V, A_rest, cones._TOL)
            assert (d is None) == (eigenspace_box_oracle(B, w, V, A_rest, cones._TOL) is None)
            if d is not None:
                assert abs(float(np.linalg.norm(d)) - 1.0) <= 1e-12
                assert float((A_rest @ d).max()) <= cones._TOL
            if len(calls) > before:
                searched[d is not None] += 1
        # the projections both found and ruled out vectors, often
        assert min(searched.values()) >= 10


def random_cone(rng, n):
    """Gaussian rows in R^n, half of them with equality rows, and half with
    the last inequality row chosen so that ``a_in.T @ mu + a_eq.T @ lam =
    0`` for some ``mu > 0``."""
    k_eq = int(rng.integers(0, n)) if rng.random() < 0.5 else 0
    k_in = int(rng.integers(0, n + 4))
    a_eq = rng.standard_normal((k_eq, n))
    a_in = rng.standard_normal((k_in, n))
    if k_in and rng.random() < 0.5:
        mu = rng.uniform(0.1, 2.0, k_in)
        a_in[-1] = -(a_in[:-1].T @ mu[:-1] + a_eq.T @ rng.standard_normal(k_eq)) / mu[-1]
    return ConeRep(n=n, a_eq=a_eq, a_in=a_in)


def assert_face_loop_then_oracle(forms, cone):
    """``min_quadratics_on_cone`` gives what the one-face-at-a-time loop
    gives, and, for the forms it leaves, the LP {0} test's verdict."""
    zero = zero_cone_oracle(cone)
    results = min_quadratics_on_cone(forms, cone)
    for res, found in zip(results, facial_minima_oracle(forms, cone)):
        if found is None:
            assert res.method == ("zero-cone" if zero else "uncertified")
            assert res.certified == zero
            assert res.min_value == 0.0
            assert_array_equal(res.witness, np.zeros(cone.n))
        else:
            assert res.method == "facial-enumeration"
            assert same_bits(res.min_value, found[0])
            assert same_bits(res.witness, found[1])


class TestZeroConeCertificate:
    """The NNLS {0} test against the box-maxima LPs it replaced
    (``zero_cone_oracle``), and the shortcut it allows before the faces."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_lp_oracle(self, n):
        rng = np.random.default_rng(7000 + n)
        verdicts = {True: 0, False: 0}
        for _ in range(500):
            cone = random_cone(rng, n)
            zero = _zero_cone_reach(cone)[0] > 0.0
            assert zero == zero_cone_oracle(cone)
            verdicts[zero] += 1
        assert min(verdicts.values()) >= 100

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_cones_match_face_loop_then_oracle(self, n):
        rng = np.random.default_rng(8000 + n)
        for _ in range(60):
            cone = random_cone(rng, n)
            forms = []
            for _ in range(2):
                a = rng.standard_normal((n, n))
                forms.append(a + a.T)
            assert_face_loop_then_oracle(forms, cone)

    def test_corrupted_certificate_fails_the_recheck(self, monkeypatch):
        cone = fan_cone(3)
        assert _zero_cone_reach(cone)[0] > 0.0
        real = cones.nnls
        y, _ = real(np.vstack([cone.a_in, cone.a_eq]).T, cone.a_in.sum(axis=0), [True] * 4)
        assert_allclose(1.0 + y, [1.0, 1.0, 1.0, 3.0])  # a_in.T @ (1 + y) = 0
        for bad in (np.zeros_like(y), y + np.eye(4)[0], y + np.eye(4)[3]):
            # the residual nnls reports is not trusted either
            monkeypatch.setattr(cones, "nnls", lambda *args, bad=bad: (bad, 0.0))
            assert _zero_cone_reach(cone)[0] == 0.0

    @pytest.mark.parametrize(
        "cone",
        [fan_cone(3, scale) for scale in (1e-7, 3e-8, 1e-8)]
        + [
            # d1 <= 0 <= d1 - eps |d2|: a {0} wedge that thins with eps
            inequality_cone([[1.0, 0.0], [-1.0, eps], [-1.0, -eps]])
            for eps in (1e-7, 3e-8, 2e-8)
        ]
        + [
            ConeRep(
                n=3,
                a_eq=np.array([[0.0, 0.0, 1.0]]),
                a_in=np.array([[1.0, 0.0, 0.0], [-1.0, eps, 0.0], [-1.0, -eps, 0.0]]),
            )
            for eps in (5e-8, 2e-8)
        ],
        ids=["fan*1e-7", "fan*3e-8", "fan*1e-8", "wedge-1e-7", "wedge-3e-8", "wedge-2e-8",
             "wedge-eq-5e-8", "wedge-eq-2e-8"],
    )
    def test_zero_cone_below_the_margin_walks_the_faces(self, cone, monkeypatch):
        reach, s_max = _zero_cone_reach(cone)
        assert 0.0 < reach <= max(cones._TOL, 1e-8 * s_max)
        n = cone.n
        forms = [np.eye(n), -np.eye(n), np.diag([1.0, -1.0, 0.5][:n]), np.diag([-1.0, 2.0, 3.0][:n])]
        walked = []
        real = cones._scan_faces
        monkeypatch.setattr(cones, "_scan_faces", lambda *args: walked.append(1) or real(*args))
        assert_face_loop_then_oracle(forms, cone)
        assert walked

    @pytest.mark.parametrize("K", [3, 8])
    def test_fan_cones_skip_the_faces(self, K, monkeypatch):
        pd = evaluate_point(load_problem(workloads.fan_text(K)), np.zeros(3))
        ms = solve_multipliers(pd)
        forms = [lagrangian_hessian(pd, mu, lam) for mu, lam in ms.vertices]

        def unused(*args, **kwargs):
            raise AssertionError("the face loop ran on a {0} cone")

        monkeypatch.setattr(cones, "grouped_nullspace_bases", unused)
        results = min_quadratics_on_cone(forms, strong_critical_cone(pd))
        assert [r.method for r in results] == ["zero-cone"] * len(forms)
        assert all(r.certified and r.min_value == 0.0 for r in results)

    def test_fanfree_rank_gate_returns_before_nnls(self, monkeypatch):
        pd = evaluate_point(load_problem(workloads.fanfree_text(10)), np.zeros(5))

        def unused(*args, **kwargs):
            raise AssertionError("nnls ran on a cone of rank below n")

        monkeypatch.setattr(cones, "nnls", unused)
        assert not _zero_cone_reach(strong_critical_cone(pd))[0] > 0.0
