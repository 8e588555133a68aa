"""Tests for cone construction, membership, sampling, and the
quadratic-on-cone minimizer.

The minimizer is checked against the closed-form angular oracle in
tests/_oracles.py and against hand-derived values for the tangent-disk
and parabola fixtures.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlpcheck.cones import (
    ConeRep,
    _is_zero_cone,
    critical_cone_multiplier_form,
    linearized_cone,
    membership,
    min_quadratic_on_cone,
    min_quadratics_on_cone,
    sample_directions,
    strong_critical_cone,
)
from nlpcheck.model import evaluate_point, load_problem
from nlpcheck.problems import builtin_problem

from _oracles import facial_minimum_oracle, quad_cone_min_oracle


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
        assert membership(cone, np.array([0.0, 1.0]), 1e-8)
        assert membership(cone, np.array([1.0, 0.0]), 1e-8)
        assert not membership(cone, np.array([0.0, -1.0]), 1e-8)

    def test_no_active_constraints_whole_space(self):
        prob = load_problem("vars 2\nobjective x1\nineq x1 - 1\npoint 0 0\n")
        cone = linearized_cone(evaluate_point(prob, np.zeros(2)))
        assert cone.a_eq.shape == (0, 2)
        assert cone.a_in.shape == (0, 2)
        assert membership(cone, np.array([-5.0, 3.0]), 1e-8)

    def test_circle_equality(self):
        cone = linearized_cone(circle_pd())
        assert_allclose(cone.a_eq, [[2.0, 0.0]])
        assert membership(cone, np.array([0.0, 1.0]), 1e-8)
        assert not membership(cone, np.array([1.0, 0.0]), 1e-8)

    def test_provenance_labels(self):
        cone = linearized_cone(tangent_disks_pd())
        assert cone.provenance_in == ("g1", "g2")
        cone2 = linearized_cone(circle_pd())
        assert cone2.provenance_eq == ("h1",)


class TestStrongCriticalCone:
    def test_tangent_disks_pins_d2(self):
        cone = strong_critical_cone(tangent_disks_pd())
        assert cone.provenance_in[-1] == "f"
        assert membership(cone, np.array([1.0, 0.0]), 1e-8)
        assert membership(cone, np.array([-1.0, 0.0]), 1e-8)
        assert not membership(cone, np.array([0.0, 1.0]), 1e-8)
        assert not membership(cone, np.array([0.0, -1.0]), 1e-8)

    def test_parabola_pins_d2(self):
        cone = strong_critical_cone(parabola_pd())
        assert membership(cone, np.array([1.0, 0.0]), 1e-8)
        assert not membership(cone, np.array([0.3, 0.1]), 1e-8)

    def test_unconstrained_zero_gradient_whole_space(self):
        prob = load_problem("vars 2\nobjective x1^2 + x2^2\npoint 0 0\n")
        cone = strong_critical_cone(evaluate_point(prob, np.zeros(2)))
        rng = np.random.default_rng(5)
        for _ in range(10):
            assert membership(cone, rng.standard_normal(2), 1e-8)


class TestMultiplierFormCone:
    def test_tangent_disks_positive_first(self):
        cone = critical_cone_multiplier_form(
            tangent_disks_pd(), np.array([0.5, 0.0])
        )
        # g1 carries a positive multiplier, so its row becomes an equality
        assert cone.a_eq.shape == (1, 2)
        assert_allclose(cone.a_eq, [[0.0, -2.0]])
        assert membership(cone, np.array([1.0, 0.0]), 1e-8)
        assert not membership(cone, np.array([0.0, 1.0]), 1e-8)

    def test_parabola_vertex(self):
        cone = critical_cone_multiplier_form(parabola_pd(), np.array([1.0, 0.0]))
        assert membership(cone, np.array([-1.0, 0.0]), 1e-8)
        assert not membership(cone, np.array([0.0, 1.0]), 1e-8)

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
                assert membership(cone_b, d, 1e-7)


class TestMembership:
    def test_origin_always_member(self):
        cone = strong_critical_cone(tangent_disks_pd())
        assert membership(cone, np.zeros(2), 1e-12)

    def test_tolerance_scales_with_norm(self):
        cone = linearized_cone(circle_pd())
        # violation 5e-6 exceeds tol * (1 + ||d||) = 2e-6 at unit scale
        assert not membership(cone, np.array([2.5e-6, 1.0]), 1e-6)
        # the same absolute violation is well inside the allowance when
        # the direction itself is large
        assert membership(cone, np.array([2.5e-6, 1e7]), 1e-6)


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

        cone = ConeRep(
            n=2,
            a_eq=np.eye(2),
            a_in=np.zeros((0, 2)),
            provenance_eq=("h1", "h2"),
            provenance_in=(),
        )
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
            assert membership(cone, d, 1e-8)
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

    def test_exact_subspace_path(self):
        cone = linearized_cone(circle_pd())
        res = min_quadratic_on_cone(np.diag([-3.0, 5.0]), cone)
        assert res.method == "exact-subspace"
        assert res.certified
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
            provenance_eq=(),
            provenance_in=("g1", "g2"),
        )
        res = min_quadratic_on_cone(np.diag([2.0, 1.0, 1.0]), cone)
        assert res.certified
        assert_allclose(res.min_value, 1.0, atol=1e-9)
        assert abs(res.witness[0]) <= 1e-6

    def test_sampled_fallback_beyond_facial_limit(self):
        from nlpcheck.cones import ConeRep

        rows = np.tile([[0.0, -1.0]], (17, 1))
        cone = ConeRep(
            n=2,
            a_eq=np.zeros((0, 2)),
            a_in=rows,
            provenance_eq=(),
            provenance_in=tuple(f"g{i}" for i in range(1, 18)),
        )
        res = min_quadratic_on_cone(np.diag([1.0, -1.0]), cone)
        assert not res.certified
        assert res.method == "sampled"
        assert -1.0 - 1e-9 <= res.min_value <= -0.99

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            min_quadratic_on_cone(
                np.array([[0.0, 1.0], [0.0, 0.0]]), self.line_cone()
            )

    def test_zero_cone_returns_zero(self):
        from nlpcheck.cones import ConeRep

        cone = ConeRep(
            n=2,
            a_eq=np.eye(2),
            a_in=np.zeros((0, 2)),
            provenance_eq=("h1", "h2"),
            provenance_in=(),
        )
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
            cone = ConeRep(
                n=n,
                a_eq=np.zeros((0, n)),
                a_in=a_in,
                provenance_eq=(),
                provenance_in=tuple(f"g{i+1}" for i in range(k_in)),
            )
            oracle = quad_cone_min_oracle(h, cone.a_eq, cone.a_in)
            if oracle is None:
                continue
            res = min_quadratic_on_cone(h, cone)
            assert res.certified
            assert abs(res.min_value - oracle) <= 1e-5
            assert membership(cone, res.witness, 1e-8)
            done += 1


def inequality_cone(a_in):
    a_in = np.asarray(a_in, dtype=float)
    n = a_in.shape[1]
    return ConeRep(
        n=n,
        a_eq=np.zeros((0, n)),
        a_in=a_in,
        provenance_eq=(),
        provenance_in=tuple(f"g{i + 1}" for i in range(a_in.shape[0])),
    )


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
        assert not _is_zero_cone(inequality_cone(rows))

    def test_zero_cone_with_equalities(self):
        cone = ConeRep(
            n=3,
            a_eq=np.array([[1.0, 0.0, 0.0]]),
            a_in=np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
            provenance_eq=("h1",),
            provenance_in=("g1", "g2", "g3", "g4"),
        )
        assert _is_zero_cone(cone)
        assert not _is_zero_cone(linearized_cone(circle_pd()))
