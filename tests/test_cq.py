"""Tests for the constraint-qualification verdicts.

Failure certificates are re-checked through independent recomputation:
rank certificates by evaluating gradients at the recorded points, MFCQ
directions by substituting into the active gradients.
"""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nlpcheck
from nlpcheck import _sobol, cq
from nlpcheck.arc import arc_for_direction
from nlpcheck.cli import RunConfig, main, report_to_json, run
from nlpcheck.cq import (
    NeighborhoodSampler,
    check_crcq,
    check_licq,
    check_mfcq,
    check_rank_constancy,
    check_rcrcq,
    recheck_rank_certificate,
)
from nlpcheck import linalg
from nlpcheck.linalg import numerical_rank, stack_chunk, stacked_rank
from nlpcheck.model import Tolerances, evaluate_point, load_problem
from nlpcheck.problems import builtin_names, builtin_problem, builtin_source

from _oracles import rank_scan_oracle, reference_rows, reference_sweep, sample_points
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


PROPER_EQ_SUBSET = "vars 1\nobjective x1\neq x1^2 / 2\neq x1\npoint 0\n"

CHAIN_5 = (
    "vars 5\nobjective x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x1 + x5\n"
    "eq x2 - x1^2 + sin(x3)^2\neq x3 - x2^2 + sin(x4)^2\neq x4 - x3^2 + sin(x5)^2\n"
    "ineq -x1 + x5^2\nineq -x5 + x1^2\npoint 0 0 0 0 0\n"
)

# CRCQ stops on its first pair, the degenerate equality alone; RCRCQ keeps
# the equality block whole and must reach the tangent-disk pair
# ({1, 2}, {1, 2}), which CRCQ never scanned
EARLY_CRCQ_LATE_RCRCQ = (
    "vars 3\nobjective x2\nineq x1^2 + (x2 - 1)^2 - 1\nineq 1 - x1^2 - (x2 + 1)^2\n"
    "eq x3^2 / 2\neq x3\npoint 0 0 0\n"
)

# no pair of total size <= 2 changes rank near 0; the three inequalities
# together gain rank off the plane x3 = 0, so a capped CRCQ scan finds the
# mismatch only through the full pair it keeps
FULL_SET_ONLY = (
    "vars 4\nobjective x4\nineq x1\nineq x2\nineq x1 + x2 + x3^2 / 2\neq x4\n"
    "point 0 0 0 0\n"
)

# pairs ({1, 2}, ()) and ((2,), (1,)) both mismatch at total size 2; the
# scan order puts the first one first
SAME_SIZE_MISMATCHES = (
    "vars 2\nobjective x2\nineq x1^2 + (x2 - 1)^2 - 1\nineq 1 - x1^2 - (x2 + 1)^2\n"
    "eq x1^2 + (x2 - 1)^2 - 1\npoint 0 0\n"
)

# the pair gains rank only where |x2| is large enough, so the first
# mismatch is sample 21 of the 1e-2 shell, not sample 0
LATE_WITNESS = "vars 2\nobjective x1\nineq x1\nineq x1 + 0.006*x2^4\npoint 0 0\n"

# the log leaves its domain for x1 <= -0.005, inside the 1e-2 shell
DOMAIN_GAPS = (
    "vars 2\nobjective x1\nineq x2 + log(x1 + 0.005) - log(0.005)\nineq -x2\npoint 0 0\n"
)

# each row's squared move from the center nears 1.4e308 at |x1| = 1e-2, so
# the pair's sum of them overflows
OVERFLOWING_MOVES = (
    "vars 1\nobjective x1\nineq 6e155*x1^2 - x1\nineq 6e155*x1^2 + x1\npoint 0\n"
)

ORACLE_CASES = (
    [(name, builtin_problem(name)) for name in builtin_names()]
    + [(name, load_problem(text)) for name, text in BATTERY]
    + [
        ("proper equality subset", load_problem(PROPER_EQ_SUBSET)),
        ("chain-5", load_problem(CHAIN_5)),
        ("early crcq, late rcrcq", load_problem(EARLY_CRCQ_LATE_RCRCQ)),
        ("same-size mismatches", load_problem(SAME_SIZE_MISMATCHES)),
        ("late witness", load_problem(LATE_WITNESS)),
        ("domain gaps", load_problem(DOMAIN_GAPS)),
        ("overflowing moves", load_problem(OVERFLOWING_MOVES)),
    ]
)


class TestSampler:
    def test_counts_and_radii(self):
        sampler = NeighborhoodSampler(radii=(1e-2, 1e-3), samples_per_radius=16, seed=0)
        center = np.array([1.0, -2.0])
        seen = {1e-2: 0, 1e-3: 0}
        for radius, idx, x in sample_points(sampler, center):
            seen[radius] += 1
            assert np.abs(x - center).max() <= radius + 1e-15
        assert seen == {1e-2: 16, 1e-3: 16}

    def test_deterministic_stream(self):
        a = NeighborhoodSampler(seed=7)
        b = NeighborhoodSampler(seed=7)
        center = np.zeros(3)
        for (r1, i1, x1), (r2, i2, x2) in zip(sample_points(a, center), sample_points(b, center)):
            assert (r1, i1) == (r2, i2)
            assert np.array_equal(x1, x2)

    def test_seed_changes_stream(self):
        center = np.zeros(2)
        xs0 = [x for _, _, x in sample_points(NeighborhoodSampler(seed=0), center)]
        xs1 = [x for _, _, x in sample_points(NeighborhoodSampler(seed=1), center)]
        assert not np.array_equal(np.array(xs0), np.array(xs1))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # the scan reported its 64 samples as skipped for the domain
            ({"radii": (math.nan,)}, "radii must be positive and finite, got [nan]"),
            # the scans read undetermined from no sample at all
            ({"radii": ()}, "radii must be positive and finite, got []"),
            # the same, with 0 samples
            ({"samples_per_radius": -5}, "samples per radius must be between 0 and 2**30, got -5"),
            # numpy's "expected non-negative integer"
            ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ],
        ids=["nan-radius", "no-radii", "negative-samples", "negative-seed"],
    )
    def test_request_the_cli_rejects_raises_its_text(self, kwargs, message):
        prob = builtin_problem("paper-example-1")
        pd = evaluate_point(prob, prob.point)
        with pytest.raises(ValueError) as info:
            check_rank_constancy(prob, pd, NeighborhoodSampler(**kwargs))
        assert str(info.value) == message

    def test_no_samples_scan_nothing(self):
        # --samples 0: every shell is empty, and the scans read undetermined
        prob = builtin_problem("paper-example-1")
        pd = evaluate_point(prob, prob.point)
        sampler = NeighborhoodSampler(samples_per_radius=0)
        assert [shell.shape for shell in sampler.shells(pd.x)] == [(0, 2)] * 3
        for verdict in check_rank_constancy(prob, pd, sampler).values():
            assert verdict.status == "undetermined"
            assert verdict.evidence["samples_used"] == 0
            assert verdict.evidence["samples_skipped_domain"] == 0


class TestSobol:
    """The in-house scrambled Sobol against ``scipy.stats.qmc.Sobol``."""

    # the direction-number bits of a process that has made no call
    NO_BITS = np.zeros((0, 30, 30), bool)

    @pytest.mark.parametrize("d", [*range(1, 13), 30, 64])
    def test_bit_identical_to_scipy(self, d):
        from scipy.stats import qmc  # test-only dependency
        for seed in range(8):
            for shell in range(3):
                for n in (1, 2, 64, 256):
                    rng = np.random.default_rng([seed, shell])
                    expected = qmc.Sobol(d, scramble=True, seed=rng).random(n)
                    got = _sobol.scrambled_sobol(d, n, [seed, shell])
                    assert got.dtype == expected.dtype
                    assert np.array_equal(got, expected), (d, seed, shell, n)

    def test_sampler_points_match_scipy_draws(self):
        # 5 samples per shell: the old code drew 8 and kept the first 5
        from scipy.stats import qmc  # test-only dependency
        sampler = NeighborhoodSampler(radii=(1e-2, 1e-3), samples_per_radius=5, seed=3)
        center = np.array([1.0, -2.0, 0.5])
        got = [x for _, _, x in sample_points(sampler, center)]
        expected = []
        for shell, radius in enumerate(sampler.radii):
            rng = np.random.default_rng([sampler.seed, shell])
            u = qmc.Sobol(center.size, scramble=True, seed=rng).random(8)[:5]
            expected.extend(center + radius * (2.0 * u - 1.0))
        assert np.array_equal(np.array(got), np.array(expected))

    @pytest.mark.parametrize("d, n", [(1111, 1025), (21201, 2)])
    def test_bit_identical_to_scipy_in_many_dimensions(self, d, n):
        # rows beyond any earlier call's, up to the whole table
        from scipy.stats import qmc  # test-only dependency
        rng = np.random.default_rng([5, 1])
        # a power of two, which SciPy draws without its balance warning
        expected = qmc.Sobol(d, scramble=True, seed=rng).random_base2(n.bit_length())[:n]
        assert np.array_equal(_sobol.scrambled_sobol(d, n, [5, 1]), expected)

    @pytest.mark.parametrize("rows, cols", [(1, 1), (9, 5), (64, 18), (13426, 18), (21201, 18)])
    def test_lazy_reader_matches_the_table(self, rows, cols):
        # row 13425 is the first of degree 18, so it uses every column
        with np.load(_sobol._TABLE) as table:
            poly, vinit = table["poly"], table["vinit"]
        got = _sobol._read_leading("poly", rows)
        assert got.dtype == poly.dtype and np.array_equal(got, poly[:rows])
        got = _sobol._read_leading("vinit", rows, cols)
        assert got.dtype == vinit.dtype and np.array_equal(got, vinit[:rows, :cols])

    def test_table_grows_as_calls_need(self, monkeypatch):
        monkeypatch.setattr(_sobol, "_bits", self.NO_BITS)
        reads = []
        read = _sobol._read_leading

        def counting(name, rows, cols=1):
            reads.append((name, rows, cols))
            return read(name, rows, cols)

        monkeypatch.setattr(_sobol, "_read_leading", counting)
        shapes = []
        for d, m in [(3, 6), (9, 6), (9, 6), (9, 1), (100, 1), (150, 20), (1, 30)]:
            bits = _sobol._direction_bits(d, m)
            assert bits.shape == (d, 30, m) and not bits.flags.writeable
            shapes.append(_sobol._bits.shape)
        # at least 64 rows, then doubled, each at all 30 columns
        assert shapes == [(64, 30, 30)] * 4 + [(128, 30, 30), (256, 30, 30), (256, 30, 30)]
        # each growth reads the rows once, and the columns their degrees need
        assert reads == [("poly", 64, 1), ("vinit", 64, 9), ("poly", 128, 1), ("vinit", 128, 10),
                         ("poly", 256, 1), ("vinit", 256, 11)]

    def test_smaller_shape_after_a_larger_one_reads_no_table(self, monkeypatch):
        # the direction numbers of fewer dimensions, or of fewer columns,
        # are a prefix of those of more
        monkeypatch.setattr(_sobol, "_bits", self.NO_BITS)
        _sobol.scrambled_sobol(64, 4096, [0, 0])
        numbers = {d: _sobol._direction_numbers(d) for d in (1, 2, 5, 40, 64)}

        def no_read(*args):
            raise AssertionError("the table was read again")

        monkeypatch.setattr(_sobol, "_read_leading", no_read)
        msb_first = 1 << np.arange(30, dtype=np.int64)[::-1]
        for d, v in numbers.items():
            for m in (1, 6, 12, 30):
                expected = (v[:, None, :m] & msb_first[:, None]) != 0
                assert np.array_equal(_sobol._direction_bits(d, m), expected), (d, m)
            _sobol.scrambled_sobol(d, 64, [d, 4])

    def test_concurrent_calls_see_whole_tables(self, monkeypatch):
        # each call grows the bits in locals before it replaces the shared
        # ones, so no caller sees another's half-grown table
        cases = [(d, n) for d in (2, 9, 70, 200, 9, 300, 3) for n in (2, 64)]
        expected = [_sobol.scrambled_sobol(d, n, [d, n]) for d, n in cases]
        monkeypatch.setattr(_sobol, "_bits", self.NO_BITS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_sobol.scrambled_sobol, d, n, [d, n]) for d, n in cases * 4]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected * 4))

    def test_interleaved_shapes_keep_their_bits(self, monkeypatch):
        # calls that switch between shapes give the points of calls that
        # each start from no kept bits
        cases = [(2, 64), (5, 64), (2, 64), (2, 64), (2, 9), (9, 300), (2, 64), (2, 33)]
        alone = []
        for d, n in cases:
            monkeypatch.setattr(_sobol, "_bits", self.NO_BITS)
            alone.append(_sobol.scrambled_sobol(d, n, [d, n, 4]))
        monkeypatch.setattr(_sobol, "_bits", self.NO_BITS)
        for (d, n), expected in zip(cases, alone):
            got = _sobol.scrambled_sobol(d, n, [d, n, 4])
            assert got.tobytes() == expected.tobytes(), (d, n)
            assert _sobol._bits.shape == (64, 30, 30) and not _sobol._bits.flags.writeable

    def test_import_reads_no_table_data(self):
        src = os.path.dirname(os.path.dirname(nlpcheck.__file__))
        code = (
            "import tracemalloc, numpy as np\n"
            "tracemalloc.start()\n"
            "import nlpcheck.cli\n"
            "from nlpcheck import _sobol\n"
            "held = [a for v in vars(_sobol).values() for a in (v if isinstance(v, tuple) else [v])]\n"
            "print(sum(a.size for a in held if isinstance(a, np.ndarray)),"
            " tracemalloc.get_traced_memory()[0])"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        entries, traced = map(int, out.stdout.split())
        assert entries == 0
        # the whole table, read at import, kept 4.4 MiB
        assert traced < 2.5 * 2**20

    def test_dimension_limit(self):
        with pytest.raises(ValueError, match="Maximum supported dimensionality is 21201"):
            _sobol.scrambled_sobol(_sobol.MAXDIM + 1, 2, [0, 0])

    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(nlpcheck.__file__))
        code = (
            "import sys, nlpcheck.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestScanSize:
    def test_default_samples_always_run(self):
        # far over the budget, but at the default count
        n, rows = 2000, 1000
        assert (1 + 3 * cq.DEFAULT_SAMPLES) * (rows + 1) * n > cq.SCAN_BUDGET
        for samples in (0, 1, cq.DEFAULT_SAMPLES):
            cq.check_scan_size(n, rows, 3, samples)
        with pytest.raises(ValueError, match="above its budget"):
            cq.check_scan_size(n, rows, 3, cq.DEFAULT_SAMPLES + 1)

    def test_budget_boundary(self):
        # (1 + 3 s) * (rows + 1) * n floats; rows + 1 = 4, n = 2
        samples = (cq.SCAN_BUDGET // 8 - 1) // 3
        cq.check_scan_size(2, 3, 3, samples)
        with pytest.raises(ValueError, match="above its budget"):
            cq.check_scan_size(2, 3, 3, samples + 1)

    def test_radii_count_toward_the_exemption(self):
        # the default 64 samples per radius, but at 20,000 radii
        with pytest.raises(ValueError, match="64 per radius at 20000 radii"):
            cq.check_scan_size(2, 1, 20000, cq.DEFAULT_SAMPLES)
        # the default scan's 193 points run, however they are spread
        cq.check_scan_size(2000, 1000, 1, 3 * cq.DEFAULT_SAMPLES)
        with pytest.raises(ValueError, match="up to 193 points always runs"):
            cq.check_scan_size(2000, 1000, 1, 3 * cq.DEFAULT_SAMPLES + 1)

    def test_library_scan_over_the_budget_raises_before_any_sweep(self, monkeypatch):
        # paper-example-1 has 2 active rows in R^2: 6 floats per point
        prob = builtin_problem("paper-example-1")
        pd = evaluate_point(prob, prob.point)
        over = cq.SCAN_BUDGET // (3 * 6) + 1

        def no_sweep(*args, **kwargs):
            raise AssertionError("a tape was swept before the budget check")

        monkeypatch.setattr(nlpcheck.expr.TapeSet, "_run", no_sweep)
        with pytest.raises(ValueError, match="above its budget"):
            check_rank_constancy(prob, pd, NeighborhoodSampler(samples_per_radius=over))


class TestLicq:
    def test_tangent_disks_fails_rank_one(self):
        verdict = check_licq(tangent_disks_pd())
        assert verdict.status == "fails"
        assert verdict.certificate["rank"] == 1
        assert verdict.certificate["required_rank"] == 2

    def test_circle_holds(self):
        assert check_licq(circle_pd()).status == "holds"

    def test_vacuous_holds_without_active_rows(self):
        prob = load_problem("vars 2\nobjective x1\nineq x1 - 1\npoint 0 0\n")
        verdict = check_licq(evaluate_point(prob, np.zeros(2)))
        assert verdict.status == "holds"

    def test_never_undetermined(self):
        for pd in (tangent_disks_pd(), parabola_pd(), circle_pd()):
            assert check_licq(pd).status in ("holds", "fails")


class TestMfcq:
    def test_tangent_disks_holds_with_descent_direction(self):
        pd = tangent_disks_pd()
        verdict = check_mfcq(pd)
        assert verdict.status == "holds"
        d = np.array(verdict.certificate["direction"])
        # certificate is independently checkable: strict descent on actives
        assert (pd.c_grads[pd.rows] @ d).max() < -1e-9
        assert verdict.certificate["lp_optimum"] > 1e-9

    def test_parabola_holds(self):
        assert check_mfcq(parabola_pd()).status == "holds"

    def test_circle_holds(self):
        verdict = check_mfcq(circle_pd())
        assert verdict.status == "holds"
        d = np.array(verdict.certificate["direction"])
        assert abs(circle_pd().c_grads @ d) <= 1e-9

    def test_opposing_gradients_fail(self):
        prob = load_problem(
            "vars 2\nobjective x1\nineq x2\nineq -x2\npoint 0 0\n"
        )
        verdict = check_mfcq(evaluate_point(prob, np.zeros(2)))
        assert verdict.status == "fails"
        assert verdict.certificate["lp_optimum"] <= 1e-9

    def test_rank_deficient_equalities_fail(self):
        prob = load_problem("vars 1\nobjective x1\neq x1^2\npoint 0\n")
        verdict = check_mfcq(evaluate_point(prob, np.zeros(1)))
        assert verdict.status == "fails"
        assert verdict.certificate["equality_rank"] == 0

    @pytest.mark.parametrize(
        "text, scale",
        [
            ("vars 1\nobjective x1\nineq -1e8*x1\npoint 0\n", 2.0**-27),
            ("vars 1\nobjective x1\nineq -1e9*x1\npoint 0\n", 2.0**-30),
            ("vars 1\nobjective x1\nineq -5e8*x1\npoint 0\n", None),
            ("vars 1\nobjective x1\nineq -1e12*x1\npoint 0\n", None),
            ("vars 2\nobjective x1\nineq -1e9*x1\neq 1e9*x2\npoint 0 0\n", 2.0**-30),
            ("vars 2\nobjective x1\nineq -1e9*x1 + x2\nineq -1e8*x2\npoint 0 0\n", 2.0**-30),
        ],
    )
    def test_large_rows_hold_at_a_named_scale(self, text, scale, tmp_path, capsys):
        # the direction LP reads these rows infeasible at its absolute 1e-9,
        # and the analysis exited 3; the second LP runs on rows whose largest
        # entry is in [0.5, 1), and its direction certifies the original rows
        problem = load_problem(text)
        pd = evaluate_point(problem, problem.point)
        verdict = check_mfcq(pd)
        assert verdict.status == "holds"
        assert verdict.evidence.get("lp_scale") == scale
        rows = pd.c_grads[pd.rows]
        if scale is not None:
            assert 0.5 <= scale * np.abs(rows).max() < 1.0
        d = np.array(verdict.certificate["direction"])
        a = len(pd.active)
        assert (rows[:a] @ d).max() < 0.0 and not (rows[a:] @ d).any()
        path = tmp_path / "large-rows.nlp"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 0
        assert "mfcq=holds" in capsys.readouterr().out

    def test_unit_scale_rows_run_one_lp(self):
        # the second LP, and its evidence key, only follow an uncertified
        # first one
        for pd in (tangent_disks_pd(), parabola_pd(), circle_pd()):
            assert "lp_scale" not in check_mfcq(pd).evidence

    def test_tiny_row_holds_at_a_named_scale(self, tmp_path, capsys):
        # LICQ holds, so MFCQ holds; the first LP's optimum, about -1e-10,
        # is below its absolute 1e-9, and the rows at unit scale certify
        text = "vars 2\nobjective -x1\nineq 1e-10*x1\npoint 0 0\n"
        problem = load_problem(text)
        pd = evaluate_point(problem, problem.point)
        verdict = check_mfcq(pd)
        assert verdict.status == "holds"
        assert verdict.evidence["lp_scale"] == 2.0**33
        d = np.array(verdict.certificate["direction"])
        assert (pd.c_grads[pd.rows] @ d).max() < 0.0
        path = tmp_path / "tiny-row.nlp"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 0
        assert "licq=holds  mfcq=holds" in capsys.readouterr().out

    @pytest.mark.parametrize("factor, scale", [(1.0, 0.5), (1e-10, 2.0**33), (1e9, 2.0**-30)])
    def test_failures_off_unit_scale_are_solved_twice(self, factor, scale):
        # opposing rows fail at every scale; off unit scale the evidence
        # names the scale of the second LP, whose optimum is the verdict's
        prob = load_problem(
            f"vars 2\nobjective x1\nineq {factor!r}*x2\nineq -{factor!r}*x2\npoint 0 0\n"
        )
        verdict = check_mfcq(evaluate_point(prob, np.zeros(2)))
        assert verdict.status == "fails"
        assert verdict.evidence["lp_scale"] == scale
        assert verdict.certificate["lp_optimum"] == verdict.evidence["lp_optimum"] <= 1e-9


class TestCrcqRcrcq:
    def test_tangent_disks_rcrcq_fails_with_recheckable_certificate(self):
        prob = builtin_problem("paper-example-1")
        verdict = check_rcrcq(prob, np.zeros(2), NeighborhoodSampler(seed=0))
        assert verdict.status == "fails"
        cert = verdict.certificate
        assert tuple(cert["ineq_subset"]) == (1, 2)
        assert cert["center_rank"] == 1
        assert cert["witness_rank"] == 2
        center_rank, witness_rank = recheck_rank_certificate(prob, cert)
        assert (center_rank, witness_rank) == (1, 2)

    def test_tangent_disks_crcq_fails(self):
        prob = builtin_problem("paper-example-1")
        verdict = check_crcq(prob, np.zeros(2), NeighborhoodSampler(seed=0))
        assert verdict.status == "fails"

    def test_parabola_rcrcq_fails_on_full_pair(self):
        prob = builtin_problem("paper-example-2")
        verdict = check_rcrcq(prob, np.zeros(2), NeighborhoodSampler(seed=0))
        assert verdict.status == "fails"
        assert tuple(verdict.certificate["ineq_subset"]) == (1, 2)

    def test_circle_undetermined_no_mismatch(self):
        prob = builtin_problem("circle")
        for checker in (check_crcq, check_rcrcq):
            verdict = checker(prob, np.array([1.0, 0.0]), NeighborhoodSampler(seed=0))
            assert verdict.status == "undetermined"
            assert verdict.certificate is None

    def test_crcq_catches_proper_equality_subset(self):
        # grad of the first equality vanishes at 0 but the pair keeps
        # rank 1 nearby, so only the proper subset {1} mismatches
        prob = load_problem(PROPER_EQ_SUBSET)
        crcq = check_crcq(prob, np.zeros(1), NeighborhoodSampler(seed=0))
        assert crcq.status == "fails"
        assert tuple(crcq.certificate["eq_subset"]) == (1,)
        rcrcq = check_rcrcq(prob, np.zeros(1), NeighborhoodSampler(seed=0))
        assert rcrcq.status == "undetermined"

    def test_linear_constraints_never_mismatch(self):
        prob = load_problem(
            "vars 2\nobjective x1\nineq x1 + x2\nineq x1 - x2\npoint 0 0\n"
        )
        assert check_crcq(prob, np.zeros(2), NeighborhoodSampler(seed=0)).status == "undetermined"

    def test_no_constraints_vacuous(self):
        prob = load_problem("vars 2\nobjective x1\npoint 0 0\n")
        verdict = check_rcrcq(prob, np.zeros(2), NeighborhoodSampler(seed=0))
        assert verdict.status == "undetermined"
        assert verdict.evidence["subsets_scanned"] == 0

    def test_licq_implies_no_mismatch_nearby(self):
        # spec-level invariant: where LICQ holds, the rank scans at radii
        # <= 1e-2 find nothing
        sources = [
            "vars 2\nobjective -x1\neq x1^2 + x2^2 - 1\npoint 1 0\n",
            "vars 2\nobjective x1\nineq -x1\nineq -x2\npoint 0 0\n",
            "vars 3\nobjective x3\neq x1 + x2 + x3\nineq -x1\npoint 0 0 0\n",
        ]
        for text in sources:
            prob = load_problem(text)
            pd = evaluate_point(prob, prob.point)
            assert check_licq(pd).status == "holds"
            for checker in (check_crcq, check_rcrcq):
                assert checker(prob, prob.point, NeighborhoodSampler(seed=0)).status == "undetermined"

    def test_verdicts_deterministic(self):
        prob = builtin_problem("paper-example-1")
        a = check_rcrcq(prob, np.zeros(2), NeighborhoodSampler(seed=3))
        b = check_rcrcq(prob, np.zeros(2), NeighborhoodSampler(seed=3))
        assert a.certificate == b.certificate

    def test_witness_within_sampled_radius(self):
        prob = builtin_problem("paper-example-1")
        verdict = check_rcrcq(prob, np.zeros(2), NeighborhoodSampler(seed=0))
        witness = np.array(verdict.certificate["witness"])
        radius = verdict.certificate["radius"]
        assert np.abs(witness - np.zeros(2)).max() <= radius + 1e-15

    def test_domain_gaps_skipped(self):
        # log leaves its domain on half of every neighborhood; the scan
        # must skip those samples rather than crash
        prob = load_problem(
            "vars 1\nobjective x1\nineq log(x1 + 1)\npoint 0\n"
        )
        verdict = check_crcq(prob, np.zeros(1), NeighborhoodSampler(seed=0))
        assert verdict.status in ("fails", "undetermined")

    @pytest.mark.parametrize(
        "name, radii, used, skipped",
        [("circle", (1e308,), 26, 38), ("paper-example-1", (1e-2, 1e308), 77, 51)],
    )
    def test_overflowing_gradients_skipped(self, name, radii, used, skipped):
        # at radius 1e308 the gradient 2 x overflows to inf at some samples,
        # and at others is finite but too large for its norm to be a double
        prob = builtin_problem(name)
        sampler = NeighborhoodSampler(radii=radii, seed=0)
        rows = reference_rows(prob)[:-1]
        with np.errstate(over="ignore"):
            infinite = sum(
                not all(np.isfinite(reference_sweep(e, x, 1)[1]).all() for e in rows)
                for _, _, x in sample_points(sampler, prob.point)
            )
            expected = rank_scan_oracle(prob, prob.point, sampler)
        assert 0 < infinite < skipped
        for key, verdict in _scans(prob, sampler).items():
            evidence = verdict.evidence
            assert (evidence["samples_used"], evidence["samples_skipped_domain"]) == (used, skipped)
            assert _as_tuple(verdict) == expected[key], key


def _scans(prob, sampler=None):
    sampler = sampler or NeighborhoodSampler(seed=0)
    return check_rank_constancy(prob, evaluate_point(prob, prob.point), sampler)


def _as_tuple(verdict):
    return (verdict.status, verdict.certificate, verdict.evidence)


class TestRankConstancyEngine:
    @pytest.mark.parametrize(
        "prob", [p for _, p in ORACLE_CASES], ids=[n for n, _ in ORACLE_CASES]
    )
    def test_matches_per_matrix_oracle(self, prob):
        scans = _scans(prob)
        expected = rank_scan_oracle(prob, prob.point, NeighborhoodSampler(seed=0))
        assert list(scans) == ["crcq", "rcrcq"]
        for key in ("crcq", "rcrcq"):
            assert _as_tuple(scans[key]) == expected[key], key

    def test_rcrcq_scans_past_the_crcq_stop(self):
        prob = load_problem(EARLY_CRCQ_LATE_RCRCQ)
        scans = _scans(prob)
        crcq, rcrcq = scans["crcq"].certificate, scans["rcrcq"].certificate
        assert (crcq["ineq_subset"], crcq["eq_subset"]) == ([], [1])
        assert (rcrcq["ineq_subset"], rcrcq["eq_subset"]) == ([1, 2], [1, 2])
        assert recheck_rank_certificate(prob, rcrcq) == (2, 3)

    def test_wrappers_return_one_entry_each(self):
        prob = load_problem(EARLY_CRCQ_LATE_RCRCQ)
        scans = _scans(prob)
        for key, checker in (("crcq", check_crcq), ("rcrcq", check_rcrcq)):
            verdict = checker(prob, prob.point, NeighborhoodSampler(seed=0))
            assert _as_tuple(verdict) == _as_tuple(scans[key])

    def test_capped_crcq_keeps_full_pair(self, monkeypatch):
        # 9 points per pair: CRCQ's 15 pairs exceed a budget of 72, RCRCQ's 8 fit exactly
        monkeypatch.setattr(cq, "_PAIR_BUDGET", 72)
        prob = load_problem(FULL_SET_ONLY)
        sampler = NeighborhoodSampler(radii=(1e-2,), samples_per_radius=8, seed=0)
        scans = _scans(prob, sampler)
        crcq, rcrcq = scans["crcq"], scans["rcrcq"]
        assert (crcq.evidence["partial"], crcq.evidence["subsets_scanned"]) == (True, 11)
        assert (rcrcq.evidence["partial"], rcrcq.evidence["subsets_scanned"]) == (False, 8)
        # only the full pair mismatches among those the capped scan keeps
        for verdict in (crcq, rcrcq):
            assert verdict.status == "fails"
            cert = verdict.certificate
            assert (cert["ineq_subset"], cert["eq_subset"]) == ([1, 2, 3], [1])
        expected = rank_scan_oracle(prob, prob.point, sampler, budget=72)
        for key in ("crcq", "rcrcq"):
            assert _as_tuple(scans[key]) == expected[key], key

    @pytest.mark.parametrize(
        "budget, crcq, rcrcq",
        [(135, (False, 15), (False, 8)), (71, (True, 11), (True, 5))],
    )
    def test_budget_boundaries_match_oracle(self, monkeypatch, budget, crcq, rcrcq):
        # 15 CRCQ pairs at 9 points each fit 135 exactly; 71 caps both scans
        monkeypatch.setattr(cq, "_PAIR_BUDGET", budget)
        prob = load_problem(FULL_SET_ONLY)
        sampler = NeighborhoodSampler(radii=(1e-2,), samples_per_radius=8, seed=0)
        scans = _scans(prob, sampler)
        for key, want in (("crcq", crcq), ("rcrcq", rcrcq)):
            evidence = scans[key].evidence
            assert (evidence["partial"], evidence["subsets_scanned"]) == want, key
        expected = rank_scan_oracle(prob, prob.point, sampler, budget=budget)
        for key in ("crcq", "rcrcq"):
            assert _as_tuple(scans[key]) == expected[key], key

    @pytest.mark.parametrize(
        "eq_labels, every_eq, count",
        [
            ((), False, 40 + 780 + 1),
            ((), True, 40 + 780 + 1),
            ((1,), False, 41 + 820 + 1),
            ((1,), True, 1 + 40 + 1),
            ((1, 2, 3), True, 1),
        ],
    )
    def test_pair_list_capped_before_it_is_built(self, eq_labels, every_eq, count):
        active = tuple(range(1, 41))
        start = time.perf_counter()
        pairs, partial = cq._scan_pairs(active, eq_labels, every_eq, n_points=193)
        assert time.perf_counter() - start < 1.0
        assert partial
        assert len(pairs) == count
        assert pairs[-1] == (active, eq_labels)

    def test_forty_linear_actives_scan_capped(self):
        rows = "".join(f"ineq {k}*x1 - x2 + {41 - k}*x3\n" for k in range(1, 41))
        prob = load_problem("vars 3\nobjective x2\n" + rows + "point 0 0 0\n")
        sampler = NeighborhoodSampler(radii=(1e-2,), samples_per_radius=4, seed=0)
        for verdict in _scans(prob, sampler).values():
            assert verdict.status == "undetermined"
            assert verdict.evidence["partial"] is True
            assert verdict.evidence["subsets_scanned"] == 821


def _near_tolerance(tol):
    """Gradients (1, 0) and (1, 4 tol + x2) at the origin.

    The stack ratio sigma_min / sigma_max is close to |4 tol + x2| / 2: 2 tol
    at the center, between tol and 3 tol on a shell of radius 1.5 tol, and
    below tol at part of a shell of radius 5 tol.
    """
    return load_problem(
        f"vars 2\nobjective x1\nineq x1\nineq x1 + {4 * tol!r}*x2 + x2^2 / 2\npoint 0 0\n"
    )


def _tables(rng, count, k, n, s_last):
    """``count`` random ``k x n`` tables with largest singular value 1 and
    smallest ``s_last`` (one per table), scaled by up to 10^3 either way."""
    r = min(k, n)
    U = np.linalg.qr(rng.standard_normal((count, k, r)))[0]
    V = np.linalg.qr(rng.standard_normal((count, n, r)))[0]
    s = np.sort(rng.uniform(s_last[:, None], 1.0, (count, r)), axis=1)[:, ::-1]
    s[:, 0], s[:, -1] = 1.0, s_last if r > 1 else 1.0
    scale = 10.0 ** rng.uniform(-3, 3, count)
    return scale[:, None, None] * (U * s[:, None, :]) @ V.transpose(0, 2, 1), U, s, V, scale


class TestSettledPoints:
    """Sample points whose subset table stays close enough to the center's
    skip the pair SVDs."""

    def test_settled_points_have_full_rank(self):
        rng = np.random.default_rng(0)
        seen = {"settled": 0, "settled near both edges": 0, "unsettled": 0}
        for tol in (1e-8, 1e-4, 0.1):
            c = 2 * tol + 1e-12
            for _ in range(12):
                n = int(rng.integers(1, 6))
                k = int(rng.integers(1, 8))  # more rows than columns too
                r = min(k, n)
                # half the centers sit within 1e-6 (relative) of the 2 tol edge
                ratio = np.where(
                    np.arange(16) < 8,
                    2 * tol * (1 + rng.uniform(-1e-6, 1e-6, 16)),
                    tol ** rng.uniform(0, 1.2, 16),
                )
                center, U, s, V, scale = _tables(rng, 16, k, n, ratio)
                # the largest distance the rule can settle, and 8 distances
                # per table around it: half within 1e-6 of it, half anywhere
                # up to 3 times as far
                reach = scale * (s[:, -1] - c * s[:, 0]) / (1 + c)
                factor = np.hstack(
                    [1 + rng.uniform(-1e-6, 1e-6, (16, 4)), rng.uniform(0, 3, (16, 4))]
                )
                rho = np.abs(reach)[:, None] * factor
                # half the moves shrink sigma_r by exactly rho (Weyl's worst
                # case), half point in a random direction
                worst = -U[:, None, :, -1:] * V[:, None, None, :, -1]
                noise = rng.standard_normal((16, 8, k, n))
                move = np.where(np.arange(8)[None, :, None, None] < 4, worst, noise)
                move /= np.linalg.norm(move, axis=(2, 3), keepdims=True)
                points = center[:, None] + rho[..., None, None] * move
                ranks, settled = cq._center_bound(center, rho, tol)
                assert ranks.tolist() == [numerical_rank(A, tol).rank for A in center]
                for tables, done, dist, edge in zip(points, settled, rho, reach):
                    for A, ok, d in zip(tables, done, dist):
                        if not ok:
                            seen["unsettled"] += 1
                            continue
                        seen["settled"] += 1
                        seen["settled near both edges"] += r > 1 and abs(d - edge) < 1e-5 * edge
                        assert numerical_rank(A, tol).rank == r
        assert min(seen.values()) > 0, seen

    def test_zero_empty_or_non_finite_tables(self):
        ranks, settled = cq._center_bound(np.eye(3)[None], np.zeros((1, 2)), 1e-8)
        assert ranks.tolist() == [3] and settled.all()
        # more rows than columns settle too, at rank n
        ranks, settled = cq._center_bound(np.eye(3)[None, :, :2], np.zeros((1, 2)), 1e-8)
        assert ranks.tolist() == [2] and settled.all()
        for empty in (np.zeros((4, 0, 3)), np.zeros((4, 2, 0))):
            ranks, settled = cq._center_bound(empty, np.zeros((4, 5)), 1e-8)
            assert ranks.tolist() == [0] * 4 and not settled.any()
        ranks, settled = cq._center_bound(np.zeros((2, 2, 3)), np.zeros((2, 5)), 1e-8)
        assert ranks.tolist() == [0, 0] and not settled.any()
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                cq._center_bound(np.full((1, 2, 3), bad), np.zeros((1, 5)), 1e-8)

    @pytest.mark.parametrize("tol", [1e-8, 1e-3])
    @pytest.mark.parametrize("radius, status", [(1.5, "undetermined"), (5.0, "fails")])
    def test_partly_settled_scan_matches_oracle(self, tol, radius, status):
        prob = _near_tolerance(tol)
        sampler = NeighborhoodSampler(radii=(radius * tol,), seed=0)
        rows = reference_rows(prob)[:-1]
        tables = [
            np.vstack([reference_sweep(e, x, 1)[1] for e in rows])
            for x in [prob.point] + [x for _, _, x in sample_points(sampler, prob.point)]
        ]
        s = np.linalg.svd(np.array(tables), compute_uv=False)
        ratio = s[:, -1] / s[:, 0]
        # the unsettled path runs at full-rank points, the settled one elsewhere
        assert ((ratio > tol) & (ratio <= 2 * tol + 1e-12)).any()
        assert (ratio > 2 * tol + 1e-12).any()
        pd = evaluate_point(prob, prob.point, Tolerances(rank=tol))
        scans = check_rank_constancy(prob, pd, sampler)
        expected = rank_scan_oracle(prob, prob.point, sampler, tol_rank=tol)
        for key in ("crcq", "rcrcq"):
            assert scans[key].status == status
            assert _as_tuple(scans[key]) == expected[key], key

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize(
        "text",
        [workloads.fan_text(5), workloads.fan_text(8), workloads.fanfree_text(9)],
        ids=["fan-5", "fan-8", "fanfree-9"],
    )
    def test_more_rows_than_variables_match_oracle(self, text, seed):
        prob = load_problem(text)
        sampler = NeighborhoodSampler(seed=seed)
        scans = _scans(prob, sampler)
        expected = rank_scan_oracle(prob, prob.point, sampler)
        for key in ("crcq", "rcrcq"):
            assert _as_tuple(scans[key]) == expected[key], key

    def test_partial_scan_settles_in_chunks(self, monkeypatch):
        # 16 rows in R^3 at 3 x 4096 samples: the partial scan's 137 pairs
        # would take about 30 MB of (pairs x samples) tables at once
        prob = load_problem(workloads.fan_text(16))
        sampler = NeighborhoodSampler(samples_per_radius=4096, seed=0)
        pd = evaluate_point(prob, prob.point)
        start = []

        def first_chunk(floats):
            # the pair loop begins: measure from here
            if not start:
                tracemalloc.reset_peak()
                start.append(tracemalloc.get_traced_memory()[0])
            return stack_chunk(floats)

        monkeypatch.setattr(cq, "stack_chunk", first_chunk)
        tracemalloc.start()
        try:
            scans = check_rank_constancy(prob, pd, sampler)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for verdict in scans.values():
            assert verdict.evidence["partial"] is True
            assert verdict.evidence["subsets_scanned"] == 16 + 120 + 1
        assert peak - start[0] < 2 * linalg._STACK_BYTES

    @pytest.mark.parametrize(
        "text, matrices",
        [
            (workloads.chain_text(7), 0),
            # the 129 pairs of up to 3 rows settle everywhere; the first pair
            # of 4 rows is dependent at the center (rank 3 of 4), so none of
            # its 192 samples settles, and it is the first mismatch
            (workloads.fanfree_text(9), 192),
            # 8 rows in R^3: every pair settles, the full rank-3 ones included
            (workloads.fan_text(8), 0),
        ],
        ids=["chain-7", "fanfree-9", "fan-8"],
    )
    def test_pair_svds_only_at_unsettled_points(self, monkeypatch, text, matrices):
        ranked = []

        def counting(M, tol_rel):
            ranked.append(len(M))
            return stacked_rank(M, tol_rel)

        monkeypatch.setattr(cq, "stacked_rank", counting)
        prob = load_problem(text)
        _scans(prob)
        assert sum(ranked) == matrices


def _acq(problem: str, point, **kwargs) -> dict:
    """The ACQ entry of a full run probing ``arc_sample=4`` directions."""
    config = RunConfig(problem, point=np.asarray(point, dtype=float), arc_sample=4, **kwargs)
    return run(config)["constraint_qualifications"]["acq"]


class TestAcqEmpirical:
    def test_always_undetermined(self):
        verdict = _acq("builtin:circle", [1.0, 0.0])
        assert verdict["status"] == "undetermined"
        assert verdict["certificate"] is None

    def test_realized_directions_counted(self):
        summary = _acq("builtin:circle", [1.0, 0.0])["evidence"]
        assert summary["directions_sampled"] == 4
        assert summary["realized"] == 4
        assert len(summary["per_direction"]) == 4

    def test_zero_cone_vacuous(self, tmp_path):
        path = tmp_path / "zero_cone.prob"
        path.write_text("vars 2\nobjective x1\neq x1\neq x2\npoint 0 0\n")
        verdict = _acq(str(path), [0.0, 0.0])
        assert verdict["status"] == "undetermined"
        assert verdict["evidence"]["directions_sampled"] == 0
        assert "vacuously realized" in verdict["evidence"]["note"]

    def test_summarize_acq_fields(self):
        prob = builtin_problem("circle")
        pd = evaluate_point(prob, np.array([1.0, 0.0]))
        report = arc_for_direction(prob, pd, np.array([0.0, 1.0]), delta=0.25)
        summary = cq.summarize_acq([report], requested=1, seed=0)["per_direction"][0]
        assert summary["realized"] is True
        assert summary["arc1_worst"] <= 1e-7
        assert summary["forward_worst"] <= 1e-7

    @pytest.mark.parametrize(
        "problem, point, arc_dirs",
        [
            ("builtin:circle", [1.0, 0.0], ([0.0, 1.0],)),
            ("builtin:paper-example-1", [0.0, 0.0], ([1.0, 0.0], [0.0, 1.0])),
            ("builtin:paper-example-2", [0.0, 0.0], ([1.0, 0.0],)),
        ],
    )
    def test_explicit_arc_dirs_leave_the_probe_alone(self, problem, point, arc_dirs):
        # the probe always traces sampled directions, whatever --arc-dir asks
        dirs = tuple(np.array(d) for d in arc_dirs)
        for seed in (0, 3):
            plain = _acq(problem, point, seed=seed)
            explicit = _acq(problem, point, seed=seed, arc_dirs=dirs)
            assert report_to_json(explicit) == report_to_json(plain)


# Hand-derived problems that separate the CQ hierarchy, all at the point 0,
# each with the theory's verdict for every CQ (True: holds, False: fails)
SEPARATING = {
    # the two rows have parallel gradients everywhere, and d = e1 points
    # strictly inside both
    "crcq-mfcq-without-licq": (
        "vars 2\nobjective x1\nineq -x1 + x2^2\nineq -2*x1 + 2*x2^2\npoint 0 0\n",
        dict(licq=False, mfcq=True, crcq=True, rcrcq=True, acq=True),
    ),
    # x2 = -x1^2 written as two inequalities: rank 1 everywhere, but no d
    # points strictly inside both
    "crcq-without-mfcq": (
        "vars 2\nobjective x1\nineq x1^2 + x2\nineq -x1^2 - x2\npoint 0 0\n",
        dict(licq=False, mfcq=False, crcq=True, rcrcq=True, acq=True),
    ),
    # {eq 1, ineq 1} has rank 1 at 0 and 2 off the x2 = 0 line, but every
    # subset that holds both equalities spans R^2; the feasible set and
    # both cones are {0}
    "rcrcq-without-crcq": (
        "vars 2\nobjective x1 + x2\neq x1\neq x2\nineq x1 + x2^2\npoint 0 0\n",
        dict(licq=False, mfcq=False, crcq=False, rcrcq=True, acq=True),
    ),
    # the Kuhn-Tucker cusp 0 <= x2 <= x1^3: its tangent cone is the ray
    # d1 >= 0, d2 = 0, its linearized cone the whole line d2 = 0
    "kuhn-tucker-cusp": (
        "vars 2\nobjective x1\nineq x2 - x1^3\nineq -x2\npoint 0 0\n",
        dict(licq=False, mfcq=False, crcq=False, rcrcq=False, acq=False),
    ),
    # paper-example-1: both gradients are (0, -2) at 0, and d = e2 points
    # strictly inside both, but the pair has rank 2 off the x1 = 0 line.
    # 0 minimizes x2, yet the multiplier vertex (0, 0.5) has cone minimum -1
    "mfcq-without-rcrcq": (
        builtin_source("paper-example-1"),
        dict(licq=False, mfcq=True, crcq=False, rcrcq=False, acq=True, ssonc=False),
    ),
    # two equalities with independent gradients, and f = -2 t^2 along the
    # feasible curve x2 = x3 = t, x1 = -2 t^2
    "ssonc-fails-under-licq": (
        "vars 3\nobjective x1\neq x1 + x2^2 + x3^2\neq x2 - x3\npoint 0 0 0\n",
        dict(licq=True, mfcq=True, crcq=True, rcrcq=True, acq=True, ssonc=False),
    ),
    # the paper-example-1 disks times x3 = 0, written as two inequalities:
    # no d points strictly inside both x3 rows, and the disks' pair changes
    # rank; the tangent and the linearized cone are both {d2 >= 0, d3 = 0}
    "acq-without-mfcq-or-rcrcq": (
        "vars 3\nobjective x2\nineq x1^2 + (x2 - 1)^2 - 1\nineq 1 - x1^2 - (x2 + 1)^2\n"
        "ineq x3\nineq -x3\npoint 0 0 0\n",
        dict(licq=False, mfcq=False, crcq=False, rcrcq=False, acq=True),
    ),
    # the pair {ineq 1, ineq 2} has rank 1 at 0 and 2 wherever x2 != 0,
    # while every subset that holds the equality has rank 2 everywhere;
    # d = (-1, 0) points strictly inside both inequalities, and the strong
    # critical cone is {0}
    "rcrcq-and-mfcq-without-crcq": (
        "vars 2\nobjective -x1\neq x2\nineq x1\nineq x1 + x2^2\npoint 0 0\n",
        dict(licq=False, mfcq=True, crcq=False, rcrcq=True, acq=True, ssonc=True),
    ),
    # the feasible set is {0} and grad h(0) = 0: the linearized cone is
    # R^2, the tangent cone {0}.  0 minimizes x1, with no multiplier
    "degenerate-equality-without-multiplier": (
        "vars 2\nobjective x1\neq x1^2 + x2^2\npoint 0 0\n",
        dict(licq=False, mfcq=False, crcq=False, rcrcq=False, acq=False),
    ),
    # no constraint is active and the Hessian of f at 0 is diag(0, 2), so
    # SSONC holds; yet f(-t, 0) = -t^3, so 0 is no minimizer: SSONC is only
    # necessary
    "ssonc-at-a-non-minimizer": (
        "vars 2\nobjective x1^3 + x2^2\nineq x1^2 + x2^2 - 1\npoint 0 0\n",
        dict(licq=True, mfcq=True, crcq=True, rcrcq=True, acq=True, ssonc=True),
    ),
}


def _separating_report(name: str, tmp_path) -> dict:
    path = tmp_path / f"{name}.nlp"
    path.write_text(SEPARATING[name][0])
    return run(RunConfig(str(path)))


class TestSeparatingBattery:
    """No verdict is stronger than the theory allows: ``holds`` or
    ``holds-certified`` only where the CQ (or SSONC, where a problem names
    it) holds, ``fails`` only where it fails, and ``undetermined``
    anywhere."""

    @pytest.mark.parametrize("name", list(SEPARATING))
    def test_verdicts_are_sound(self, name, tmp_path):
        report = _separating_report(name, tmp_path)
        for key, holds in SEPARATING[name][1].items():
            verdict = report["ssonc"] if key == "ssonc" else report["constraint_qualifications"][key]
            allowed = {"holds", "holds-certified"} if holds else {"fails"}
            assert verdict["status"] in allowed | {"undetermined"}, key

    def test_cusp_is_not_a_kkt_point(self, tmp_path):
        # 0 minimizes x1 on the cusp, yet no multiplier exists: ACQ fails
        assert not _separating_report("kuhn-tucker-cusp", tmp_path)["kkt"]["is_kkt_point"]

    def test_degenerate_equality_is_not_a_kkt_point(self, tmp_path):
        # 0 minimizes x1 on {0}, yet grad f = e1 is no multiple of grad h(0) = 0
        report = _separating_report("degenerate-equality-without-multiplier", tmp_path)
        assert not report["kkt"]["is_kkt_point"]


class TestRecheck:
    def test_recheck_matches_independent_evaluation(self):
        prob = builtin_problem("paper-example-1")
        cert = check_rcrcq(prob, np.zeros(2), NeighborhoodSampler(seed=0)).certificate
        witness = np.array(cert["witness"])
        trees = reference_rows(prob)
        rows = np.array([reference_sweep(trees[i - 1], witness, 2)[1] for i in cert["ineq_subset"]])
        # full-rank at the witness confirmed by plain numpy
        assert np.linalg.matrix_rank(rows, tol=1e-8) == cert["witness_rank"]
