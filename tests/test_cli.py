"""Tests for the command-line pipeline: report assembly, JSON and CSV
serialization, argument handling, and exit codes."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from _oracles import reference_report_to_json

import nlpcheck
from nlpcheck import arc as arc_mod
from nlpcheck import cli, cq, expr
from nlpcheck.cli import (
    InputError,
    RunConfig,
    main,
    report_to_json,
    run,
)
from nlpcheck.expr import DomainError
from nlpcheck.model import Tolerances, evaluate_point, feasibility, load_problem
from nlpcheck.problems import builtin_names, builtin_problem, builtin_source

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(BENCH)
import workloads  # noqa: E402
from test_acceptance import BATTERY  # noqa: E402
from test_cq import SEPARATING  # noqa: E402

# the point's Hessians fit, 4000^2 floats, but the objective's sweep holds
# one 4000 x 4000 table for each of its 120 slots
WIDE_POINT = (
    "vars 4000\nobjective " + " + ".join(f"x{i}*x{i + 1}" for i in range(1, 41))
    + f"\npoint {' 0' * 4000}\n"
)

# each flag value or problem text that nlpcheck analyze rejects (exit 2),
# and a part of its message
INVALID_CONFIG = [
    (["--point", "nan,1"], "point has non-finite"),
    (["--arc-dir", "1,0,0"], "arc direction must have 2"),
    (["--arc-dir", "nan,0"], "arc direction must have 2 finite"),
    (["--arc-points", "4"], "arc points must be odd"),
    (["--arc-points", "3"], "arc points must be odd and >= 5"),
    (["--delta", "-1"], "delta must be positive"),
    (["--delta", "nan"], "delta must be positive and finite"),
    (["--samples", "-3"], "samples per radius"),
    (["--radii", ","], "--radii expects comma-separated numbers"),
    (["--radii", "1e-2,inf"], "radii must be positive and finite"),
    (["--radii", "1e-2,0"], "radii must be positive"),
    (["--tol-rank", "nan"], "tol_rank must be positive and finite"),
    (["--tol-dir", "0"], "tol_dir must be positive"),
    (["--newton-tol", "-1"], "newton_tol must be positive"),
    (["--verify-tol", "0"], "verify_tol must be positive"),
    (["--verify-tol", "inf"], "verify_tol must be positive and finite"),
    (["--tol-active", "-1"], "tol_active must be >= 0"),
    (["--tol-active", "nan"], "tol_active must be >= 0 and finite"),
    (["--arc-sample", "-2"], "arc sample count must be >= 0"),
    (["--samples", "2000000000"], "samples per radius must be between 0 and 2**30"),
    (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
    # 1,280,001 points at the default 64 samples per radius
    (["--radii", ",".join(["1e-2"] * 20000)], "(64 per radius at 20000 radii"),
    (["--arc-dir", "1e308,1e308"], "arc direction entries must be at most"),
    (["--tol-rank", "1e308"], "tol_rank must be below 1"),
    (["--tol-rank", "1"], "tol_rank must be below 1, got 1.0"),
    # arc samples of t, the point and g: 8 * 50,000,001 * 4 and
    # 3,000,000 * 41 * 4 floats, each above the budget of 2**22
    (["--arc-points", "50000001"], "and --arc-points 50000001 is too large"),
    (["--arc-sample", "3000000"], "--arc-sample 3000000 with 0 --arc-dir"),
    # a problem text of its own: the Hessians at a point of 100,000
    # coordinates would take 10^10 floats, above the budget of 2**26
    (
        [f"vars 100000\nobjective x1\npoint {' 0' * 100000}\n"],
        "point is too large for this problem: the Hessians at a point of 100000 "
        "coordinates, one for each of 0 constraint rows and the objective",
    ),
    # the arc steps delta * k / half overflowed at 1e308
    (["--delta", "1e308"], "delta must be at most 4.740375954054588e+153"),
    # the objective's Hessian is +-inf at the point, which no cone
    # minimum can use
    (
        ["vars 2\nobjective 1e308*x1^2 - 1e308*x2^2\nineq -x1\npoint 0 0\n"],
        "objective: Hessian at the point has an infinite entry",
    ),
    (
        [WIDE_POINT],
        "point is too large for this problem: the Hessians at a point of 4000 "
        "coordinates, one for each of 0 constraint rows and the objective and one for "
        "each of the 120 sweep slots of the widest function, would hold 1936000000 floats",
    ),
]

# the rows of INVALID_CONFIG that the arc request (arc.check_arc_request) or
# the rank-scan request (cq.NeighborhoodSampler) rejects; the others fail to
# parse, exceed a memory budget, or break a rule of another layer
REQUEST_ROWS = [
    (flags, message)
    for flags, message in INVALID_CONFIG
    if flags[0] in ("--arc-dir", "--arc-points", "--delta", "--radii", "--samples", "--seed")
    and not message.startswith(("--", "(", "and --"))
]

# every value a tolerance flag rejects: NaN, +-inf, negative values, 0
# where it is rejected, and --tol-rank of 1 or more
TOLERANCE_ROWS = [
    (flag, value)
    for flag in ("--tol-rank", "--tol-dir", "--newton-tol", "--verify-tol")
    for value in ("nan", "inf", "-inf", "-1e-300", "0")
] + [("--tol-rank", "1"), ("--tol-rank", "1e308")] + [
    ("--tol-active", value) for value in ("nan", "inf", "-inf", "-1e-300")
]

TOP_KEYS = [
    "tool",
    "version",
    "problem",
    "point",
    "seed",
    "tolerances",
    "feasibility",
    "active_set",
    "objective_value",
    "constraint_qualifications",
    "kkt",
    "ssonc",
    "arcs",
]


class TestRun:
    def test_tangent_disks_report_shape(self):
        report = run(RunConfig(problem="builtin:paper-example-1"))
        assert [k for k in report] == TOP_KEYS
        assert report["problem"]["n"] == 2
        assert report["problem"]["m"] == 2
        assert report["problem"]["p"] == 0
        assert report["active_set"] == [1, 2]
        cq = report["constraint_qualifications"]
        assert cq["licq"]["status"] == "fails"
        assert cq["mfcq"]["status"] == "holds"
        assert cq["crcq"]["status"] == "fails"
        assert cq["rcrcq"]["status"] == "fails"
        assert cq["acq"]["status"] == "undetermined"
        assert report["kkt"]["is_kkt_point"] is True
        assert report["ssonc"]["status"] == "fails"

    def test_multiplier_vertices_in_report(self):
        report = run(RunConfig(problem="builtin:paper-example-1"))
        vertices = report["kkt"]["vertices"]
        mus = sorted(tuple(round(v, 12) for v in entry["mu"]) for entry in vertices)
        assert mus == [(0.0, 0.5), (0.5, 0.0)]
        assert report["kkt"]["bounded"] is True

    def test_point_override(self):
        report = run(
            RunConfig(problem="builtin:paper-example-1", point=np.array([0.0, 0.5]))
        )
        assert report["point"] == [0.0, 0.5]
        assert report["active_set"] == []

    def test_infeasible_point_skips_analysis(self):
        report = run(
            RunConfig(problem="builtin:circle", point=np.array([2.0, 0.0]))
        )
        assert report["feasibility"]["feasible"] is False
        for key in ("active_set", "constraint_qualifications", "kkt", "ssonc", "arcs"):
            assert "skipped" in report[key]

    def test_non_kkt_point_skips_ssonc(self):
        text = "vars 2\nobjective x1\nineq -x2\npoint 0 0\n"
        path = "/tmp/nlpcheck_non_kkt.prob"
        with open(path, "w") as fh:
            fh.write(text)
        report = run(RunConfig(problem=path))
        assert report["kkt"]["is_kkt_point"] is False
        assert "skipped" in report["ssonc"]

    @pytest.mark.parametrize(
        "text",
        [builtin_source(name) for name in builtin_names()]
        + [text for _, text in BATTERY]
        + [text for text, _ in SEPARATING.values()],
        ids=list(builtin_names()) + [name for name, _ in BATTERY] + list(SEPARATING),
    )
    def test_kkt_point_rule_is_a_vertex(self, text, tmp_path):
        # solve_multipliers lists no vertex exactly when the stationarity
        # residual exceeds the tolerance, so the report needs no residual test
        path = tmp_path / "problem.nlp"
        path.write_text(text)
        kkt = run(RunConfig(str(path)))["kkt"]
        residual_rule = kkt["stationarity_residual"] <= RunConfig.tol.rank
        assert kkt["is_kkt_point"] == bool(kkt["vertices"]) == residual_rule

    def test_explicit_arc_directions(self):
        report = run(
            RunConfig(
                problem="builtin:paper-example-2",
                arc_dirs=(np.array([1.0, 0.0]),),
                delta=0.2,
            )
        )
        arcs = report["arcs"]
        assert arcs["directions_explicit"] is True
        assert len(arcs["entries"]) == 1
        entry = arcs["entries"][0]
        assert entry["pinned_ineq"] == [1, 2]
        assert entry["properties"]["arc2"]["passed"] is False
        worst = entry["properties"]["arc2"]["worst_residual"]
        assert abs(worst - 0.04) <= 1e-8

    def test_file_without_point_needs_cli_point(self, tmp_path):
        path = tmp_path / "bare.prob"
        path.write_text("vars 1\nobjective x1^2\n")
        with pytest.raises(InputError, match="point"):
            run(RunConfig(problem=str(path)))
        report = run(RunConfig(problem=str(path), point=np.array([0.0])))
        assert report["kkt"]["is_kkt_point"] is True

    def test_domain_violation_is_input_error(self, tmp_path):
        path = tmp_path / "dom.prob"
        path.write_text("vars 1\nobjective log(x1)\npoint -1\n")
        with pytest.raises(InputError, match="domain"):
            run(RunConfig(problem=str(path)))

    def test_empty_radii_rejected(self):
        with pytest.raises(InputError, match="radii"):
            run(RunConfig(problem="builtin:circle", radii=()))

    def test_unknown_builtin_rejected(self):
        with pytest.raises(InputError, match="builtin"):
            run(RunConfig(problem="builtin:banana"))

    def test_timing_never_serialized(self):
        report = run(RunConfig(problem="builtin:circle"))
        text = report_to_json(report)
        assert "time" not in text
        assert "seconds" not in text


class TestJson:
    def test_byte_identical_reruns(self):
        a = report_to_json(run(RunConfig(problem="builtin:paper-example-1")))
        b = report_to_json(run(RunConfig(problem="builtin:paper-example-1")))
        assert a == b

    def test_parses_as_json(self):
        text = report_to_json(run(RunConfig(problem="builtin:circle")))
        parsed = json.loads(text)
        assert parsed["tool"] == "nlpcheck"

    def test_seed_changes_sampled_content(self):
        a = run(RunConfig(problem="builtin:circle", seed=0))
        b = run(RunConfig(problem="builtin:circle", seed=1))
        assert report_to_json(a) != report_to_json(b)
        assert a["seed"] == 0 and b["seed"] == 1

    def test_float_formatting_is_shortest_roundtrip(self):
        text = report_to_json({"x": 0.1, "y": 1.0 / 3.0})
        parsed = json.loads(text)
        assert parsed["x"] == 0.1
        assert parsed["y"] == 1.0 / 3.0

    def test_non_finite_values_quoted(self):
        text = report_to_json({"a": float("nan"), "b": float("inf"), "c": float("-inf")})
        parsed = json.loads(text)
        assert parsed == {"a": "NaN", "b": "Infinity", "c": "-Infinity"}

    def test_scalar_lists_inline(self):
        text = report_to_json({"v": [1.0, 2.0, 3.0]})
        assert "[1, 2, 3]" in text.replace(" ", "").replace("\n", "") or "[1,2,3]" in text.replace(" ", "")

    def test_random_trees_keep_the_per_scalar_bytes(self):
        # float lists and equal-length float rows take one % operation;
        # everything else (nan, inf, ints, bools, None, strings, ragged or
        # mixed rows, arrays) must still come out as the per-scalar writer
        rng = np.random.default_rng(11)
        specials = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, math.nan, math.inf, -math.inf]

        def number():
            r = rng.random()
            if r < 0.1:
                return float(rng.choice(specials))
            x = float(rng.standard_normal() * 10.0 ** int(rng.integers(-320, 300)))
            return np.float64(x) if r < 0.25 else x

        def scalar():
            return [number, lambda: bool(rng.integers(2)), lambda: int(rng.integers(-9, 9)),
                    lambda: None, lambda: "s%d" % rng.integers(9)][int(rng.integers(5))]()

        def floats(k):
            return [number() for _ in range(k)]

        def tree(depth):
            kind = int(rng.integers(8)) if depth else 0
            if kind == 0:
                return scalar()
            if kind == 1:
                return floats(int(rng.integers(0, 6)))
            if kind == 2:  # equal-length rows, as in the arc samples
                k = int(rng.integers(0, 4))
                return [floats(k) for _ in range(int(rng.integers(1, 5)))]
            if kind == 3:  # ragged rows
                return [floats(int(rng.integers(0, 4))) for _ in range(int(rng.integers(1, 5)))]
            if kind == 4:
                return np.array(floats(int(rng.integers(1, 4))))
            if kind == 5:
                return [floats(2), [number(), scalar()]]
            if kind == 6:
                return {f"k{i}": tree(depth - 1) for i in range(int(rng.integers(0, 4)))}
            return [tree(depth - 1) for _ in range(int(rng.integers(1, 4)))]

        for _ in range(300):
            report = {"tree": tree(4)}
            assert report_to_json(report) == reference_report_to_json(report)

    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_reports_keep_the_per_scalar_bytes(self, name):
        report = run(RunConfig(problem=f"builtin:{name}"))
        assert report_to_json(report) == reference_report_to_json(report)


def _instance_config(inst, tmp_path) -> RunConfig:
    ref = inst.problem
    if not ref.startswith("builtin:"):
        ref = str(tmp_path / f"{inst.problem}.nlp")
        with open(ref, "w", encoding="utf-8") as fh:
            fh.write(inst.text)
    return RunConfig(
        problem=ref,
        arc_dirs=tuple(np.array(d, dtype=float) for d in inst.arc_dirs),
        delta=inst.delta,
    )


REPEATED_ARC = workloads.Instance(
    "circle-repeated", "builtin:circle", "", arc_dirs=((0, 1), (0, 1))
)
ARC_CASES = [REPEATED_ARC, *workloads.instances("fixtures")]


class TestSharedArcEntries:
    """An arc shared by directions with the same bits has one entry dict,
    which the writer formats once and repeats."""

    @pytest.mark.parametrize("inst", ARC_CASES, ids=[inst.name for inst in ARC_CASES])
    def test_repeated_entries_write_the_bytes_of_copies(self, inst, tmp_path):
        report = run(_instance_config(inst, tmp_path))
        entries = report["arcs"]["entries"]
        directions = {np.array(e["direction"]).tobytes() for e in entries}
        assert len({id(e) for e in entries}) == len(directions)
        text = report_to_json(report)
        assert text == report_to_json(copy.deepcopy(report))
        # each entry copied on its own, so no object repeats
        unshared = copy.copy(report)
        unshared["arcs"] = dict(report["arcs"], entries=[copy.deepcopy(e) for e in entries])
        assert text == report_to_json(unshared)
        assert text == reference_report_to_json(report)

    def test_repeated_direction_is_one_entry(self):
        report = run(RunConfig(problem="builtin:circle", arc_dirs=(np.array([0.0, 1.0]),) * 2))
        first, second = report["arcs"]["entries"]
        assert first is second
        assert first["direction"] == [0.0, 1.0] and first["passed_all"]


class TestMain:
    def test_analyze_builtin_exit_zero(self, capsys):
        code = main(["analyze", "builtin:paper-example-2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "analysis time" in captured.out
        assert "ssonc" in captured.out

    def test_json_output_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", "builtin:circle", "--json", str(out)])
        assert code == 0
        parsed = json.loads(out.read_text())
        assert parsed["problem"]["reference"] == "builtin:circle"
        leftovers = [p for p in os.listdir(tmp_path) if p != "report.json"]
        assert leftovers == []

    def test_csv_output_written(self, tmp_path, capsys):
        csv_dir = tmp_path / "arcs"
        code = main(
            [
                "analyze",
                "builtin:circle",
                "--arc-dir",
                "0,1",
                "--delta",
                "0.25",
                "--csv-dir",
                str(csv_dir),
            ]
        )
        assert code == 0
        files = sorted(os.listdir(csv_dir))
        assert files == ["arc_01.csv"]
        with open(csv_dir / files[0]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "zeta_1", "zeta_2", "h_1"]
        assert len(rows) == 1 + 41
        mid = rows[1 + 20]
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == 1.0

    def test_point_flag(self, capsys):
        code = main(["analyze", "builtin:circle", "--point", "0,1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "feasible" in out

    def test_unknown_builtin_exit_two(self, capsys):
        code = main(["analyze", "builtin:banana"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.prob"
        path.write_text("vars 2\nobjective x1 +\npoint 0 0\n")
        code = main(["analyze", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_file_exit_two(self, capsys):
        code = main(["analyze", "/nonexistent/path.prob"])
        assert code == 2

    def test_malformed_point_exit_two(self, capsys):
        code = main(["analyze", "builtin:circle", "--point", "a,b"])
        assert code == 2

    def test_bad_radii_exit_two(self, capsys):
        code = main(["analyze", "builtin:circle", "--radii", "x"])
        assert code == 2

    @pytest.mark.parametrize("flags, message", INVALID_CONFIG)
    def test_invalid_config_exit_two(self, flags, message, tmp_path, capsys):
        target = "builtin:circle"
        if not flags[0].startswith("-"):
            target = tmp_path / "problem.nlp"
            target.write_text(flags[0])
            flags = flags[1:]
        code = main(["analyze", str(target), *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_rank_scan_budget_exit_two_before_any_tape_sweep(self, monkeypatch, capsys):
        # each scan point holds (m + p + 1) * n floats; find the first
        # --samples over the budget
        problem = builtin_problem("paper-example-1")
        floats = (problem.m + problem.p + 1) * problem.n
        radii = len(RunConfig.radii)
        over = (cq.SCAN_BUDGET // floats - 1) // radii
        while (1 + radii * over) * floats <= cq.SCAN_BUDGET:
            over += 1
        # the largest accepted value passes validation (it is not run)
        cli._validate(RunConfig("builtin:paper-example-1", samples=over - 1), problem)

        def no_sweep(*args, **kwargs):
            raise AssertionError("a tape was swept before the budget check")

        monkeypatch.setattr(expr.TapeSet, "_run", no_sweep)
        code = main(["analyze", "builtin:paper-example-1", "--samples", str(over)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--samples {over} is too large" in err
        assert f"budget of {cq.SCAN_BUDGET} floats" in err

    @pytest.mark.parametrize("n, m, over", [(100, 60, False), (150, 150, True)])
    def test_default_samples_run_on_a_wide_problem(self, n, m, over, tmp_path, capsys):
        # m inequalities, one active; at (150, 150) the m + p bound puts the
        # default scan over the budget, but a default count always runs
        lines = [f"vars {n}", "objective " + " + ".join(f"x{i}^2" for i in range(1, n + 1))]
        lines += ["ineq -x1"] + [f"ineq x{i % n + 1} - 1" for i in range(1, m)]
        lines.append("point " + " ".join(["0"] * n))
        path = tmp_path / "wide.prob"
        path.write_text("\n".join(lines) + "\n")
        points = 1 + len(RunConfig.radii) * RunConfig.samples
        assert (points * (m + 1) * n > cq.SCAN_BUDGET) == over
        assert main(["analyze", str(path)]) == 0
        if over:
            assert main(["analyze", str(path), "--samples", str(RunConfig.samples + 1)]) == 2
            assert f"--samples {RunConfig.samples + 1} is too large" in capsys.readouterr().err

    def test_default_samples_well_inside_the_scan_budget(self):
        # every builtin and the largest benchmark problems use under 5% of it
        points = 1 + len(RunConfig.radii) * RunConfig.samples
        texts = [builtin_source(name) for name in builtin_names()]
        texts += [workloads.chain_text(9), workloads.fanfree_text(10), workloads.fan_text(3)]
        for text in texts:
            problem = load_problem(text)
            assert points * (problem.m + problem.p + 1) * problem.n < 0.05 * cq.SCAN_BUDGET

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vars 1\nobjective x1\nineq exp(1000*x1) - 1\npoint 1\n", "ineq 1: exp overflows"),
            ("vars 2\nobjective exp(x1 * x2)\npoint 100 100\n", "objective: exp overflows"),
            ("vars 1\nobjective x1\neq x1 - exp(exp(x1))\npoint 7\n", "eq 1: exp overflows"),
            (
                "vars 1\nobjective log(x1)\nineq -x1\npoint 1e-170\n",
                "objective: log second derivative overflows",
            ),
            (
                "vars 1\nobjective x1\nineq sqrt(x1) - 1\npoint 1e-320\n",
                "ineq 1: sqrt second derivative overflows",
            ),
            # inf - inf is NaN: max(0, NaN) read the inequality as feasible,
            # and the equality's NaN gradient as too large to rank
            (
                "vars 1\nobjective x1\nineq x1^400 - x1^400 + 1\npoint 1e300\n",
                "ineq 1: value is NaN",
            ),
            ("vars 1\nobjective x1\neq x1^400 - x1^400 + 1\npoint 1e300\n", "eq 1: value is NaN"),
            # a NaN objective got past the multiplier-solve bound (exit 0,
            # kkt residual nan): exp(-inf) = 0 times an infinite gradient
            (
                "vars 2\nobjective exp(-x1^4) + x2\nineq x2 - 1\npoint 1e150 0\n",
                "objective: gradient has a NaN entry",
            ),
            (
                "vars 2\nobjective x1^400 - x1^400 + x2\nineq x2 - 1\npoint 1e300 0\n",
                "objective: value is NaN",
            ),
            # a NaN gradient on a ranked row read as too large to rank
            (
                "vars 2\nobjective x2\neq exp(-x1^4) + x2\npoint 1e150 0\n",
                "eq 1: gradient has a NaN entry",
            ),
            (
                "vars 2\nobjective x2\nineq exp(-x1^4) - x2\npoint 1e150 0\n",
                "ineq 1: gradient has a NaN entry",
            ),
            # a NaN Hessian read SSONC undetermined with min_value 0 (exit
            # 0); an inactive row's NaN poisons the Lagrangian Hessian too
            (
                "vars 2\nobjective exp(-x1^4) + x2\nineq -x2\npoint 1e80 0\n",
                "objective: Hessian has a NaN entry",
            ),
            (
                "vars 2\nobjective x2\nineq -x2\nineq exp(-x1^4) - 1\npoint 1e80 0\n",
                "ineq 2: Hessian has a NaN entry",
            ),
        ],
    )
    def test_overflow_at_point_exit_two(self, text, message, tmp_path, capsys):
        path = tmp_path / "overflow.prob"
        path.write_text(text)
        code = main(["analyze", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"point outside the problem domain: {message}" in err

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (
                "vars 2\nobjective x1^400 - x1^400 + x2\nineq x2 - 1\npoint 1e300 0\n",
                DomainError,
                "objective: value is NaN",
            ),
            (
                "vars 2\nobjective x2\neq exp(-x1^4) + x2\npoint 1e150 0\n",
                DomainError,
                "eq 1: gradient has a NaN entry",
            ),
            (
                "vars 2\nobjective x1\neq 1.5e308*x1 + 1.5e308*x2\npoint 0 0\n",
                ValueError,
                "eq 1: gradient at the point too large to rank",
            ),
            (
                "vars 2\nobjective 1e200*x1 + 1e200*x2\nineq -x1\npoint 0 0\n",
                ValueError,
                "objective: gradient at the point too large for the multiplier solve",
            ),
            (
                "vars 2\nobjective x1\nineq -x1\neq x2 - 2e154*x1\npoint 0 0\n",
                ValueError,
                "eq 1: gradient at the point too large to square its norm",
            ),
            (
                "vars 2\nobjective x2\nineq -x2\nineq exp(-x1^4) - 1\npoint 1e80 0\n",
                DomainError,
                "ineq 2: Hessian has a NaN entry",
            ),
            (
                "vars 2\nobjective 1e308*x1^2 - 1e308*x2^2\nineq -x1\npoint 0 0\n",
                ValueError,
                "objective: Hessian at the point has an infinite entry",
            ),
        ],
        ids=[
            "nan-value", "nan-gradient", "rank-bound", "multiplier-bound", "norm-bound",
            "nan-hessian", "infinite-hessian",
        ],
    )
    def test_point_admission_is_evaluate_points(self, text, error, message, tmp_path, capsys):
        # the CLI prints model.evaluate_point's message, after the domain
        # prefix for a DomainError
        problem = load_problem(text)
        with pytest.raises(error) as info:
            evaluate_point(problem, problem.point)
        assert info.type is error and str(info.value) == message
        path = tmp_path / "gate.prob"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        prefix = "point outside the problem domain: " if error is DomainError else ""
        assert capsys.readouterr().err == f"error: {prefix}{message}\n"

    @pytest.mark.parametrize(
        "point, message",
        [
            ([1.0, 0.0, 0.0], "point must have 2 coordinates, got 3"),
            ([[1.0, 0.0]], "point must have 2 coordinates, got shape (1, 2)"),
            ([math.nan, 0.0], "point has non-finite coordinates"),
            ([0.0, -math.inf], "point has non-finite coordinates"),
            (None, "point is too large for this problem: the Hessians at a point of 4000 "),
        ],
        ids=["three-coordinates", "row-shaped", "nan", "inf", "oversized"],
    )
    def test_point_gate_is_one_text_before_any_sweep(
        self, point, message, monkeypatch, tmp_path, capsys
    ):
        # model.check_point rejects the point for feasibility, evaluate_point
        # and the CLI with one text, before any tape is swept
        target = "builtin:circle"
        if point is None:
            target = tmp_path / "wide.nlp"
            target.write_text(WIDE_POINT)
        problem = load_problem(WIDE_POINT) if point is None else builtin_problem("circle")
        x = problem.point if point is None else point

        def no_sweep(*args, **kwargs):
            raise AssertionError("a tape was swept before the point gate")

        monkeypatch.setattr(expr.TapeSet, "_run", no_sweep)
        texts = []
        for check in (feasibility, evaluate_point):
            with pytest.raises(ValueError) as info:
                check(problem, x)
            texts.append(str(info.value))
        with pytest.raises(InputError) as info:
            run(RunConfig(str(target), point=point))
        texts.append(str(info.value))
        if np.ndim(x) == 1:  # --point spells only a vector
            argv = ["analyze", str(target)]
            if point is not None:
                argv += ["--point", ",".join(map(str, point))]
            assert main(argv) == 2
            texts.append(capsys.readouterr().err.removeprefix("error: ").removesuffix("\n"))
        assert texts[0].startswith(message)
        assert texts == [texts[0]] * len(texts), texts

    @pytest.mark.parametrize("flags, message", REQUEST_ROWS)
    def test_request_gates_are_one_text_before_any_sweep(
        self, flags, message, monkeypatch, capsys
    ):
        # arc.check_arc_request admits the arc request and cq.NeighborhoodSampler
        # the rank-scan request: the library raises the text the CLI prints,
        # and neither path sweeps a tape first
        flag, value = flags
        problem = builtin_problem("circle")
        pd = evaluate_point(problem, problem.point)
        chart = arc_mod.identity_chart(pd)

        def no_sweep(*args, **kwargs):
            raise AssertionError("a tape was swept before the request gate")

        monkeypatch.setattr(expr.TapeSet, "_run", no_sweep)
        assert main(["analyze", "builtin:circle", *flags]) == 2
        text = capsys.readouterr().err.removeprefix("error: ").removesuffix("\n")
        assert text.startswith(message)
        if flag == "--radii":
            requests = [lambda: cq.NeighborhoodSampler(radii=tuple(map(float, value.split(","))))]
        elif flag == "--samples":
            requests = [lambda: cq.NeighborhoodSampler(samples_per_radius=int(value))]
        elif flag == "--seed":
            requests = [lambda: cq.NeighborhoodSampler(seed=int(value))]
        else:
            d, delta, samples = [0.0, 1.0], 0.1, 41
            if flag == "--arc-dir":
                d = [float(v) for v in value.split(",")]
            elif flag == "--delta":
                delta = float(value)
            else:
                samples = int(value)
            requests = [
                lambda: arc_mod.arcs_for_directions(problem, pd, [d], delta, samples),
                lambda: arc_mod.trace_arcs(problem, [chart], [d], [delta], samples),
            ]
        for request in requests:
            with pytest.raises(ValueError) as info:
                request()
            assert str(info.value) == text

    @pytest.mark.parametrize("flag, value", TOLERANCE_ROWS)
    def test_tolerance_gate_is_one_text_before_any_sweep(
        self, flag, value, monkeypatch, capsys
    ):
        # model.Tolerances admits the five tolerances: building one raises
        # the text the CLI prints, and neither path sweeps a tape first
        name = flag[2:].replace("-", "_")
        field = {flag: field for field, flag in Tolerances.FLAGS.items()}[name]

        def no_sweep(*args, **kwargs):
            raise AssertionError("a tape was swept before the tolerance gate")

        monkeypatch.setattr(expr.TapeSet, "_run", no_sweep)
        assert main(["analyze", "builtin:circle", f"{flag}={value}"]) == 2
        text = capsys.readouterr().err.removeprefix("error: ").removesuffix("\n")
        assert text.startswith(f"{name} must be ")
        with pytest.raises(ValueError) as info:
            Tolerances(**{field: float(value)})
        assert str(info.value) == text

    def test_feasibility_evaluates_values_only(self, tmp_path, capsys):
        # sqrt(x1) has a value at x1 = 0 but no derivative: an infeasible
        # point is reported without one, and a feasible one needs it
        path = tmp_path / "sqrt.prob"
        path.write_text("vars 2\nobjective x1\nineq sqrt(x1) + 1\npoint 0 0\n")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "point (0, 0): INFEASIBLE (worst violation 1.000e+00)" in out
        assert "point is infeasible at tolerance; first-order analysis skipped" in out
        path.write_text("vars 2\nobjective x1\nineq sqrt(x1) - 1\npoint 0 0\n")
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: point outside the problem domain: ineq 1: sqrt derivative undefined at zero\n"
        )

    def test_gradient_too_large_to_rank_exit_two(self, tmp_path, capsys):
        # sigma_max of (1.5e308, 1.5e308) overflows, which would make every
        # rank 0 and read LICQ and MFCQ as failing
        path = tmp_path / "huge.prob"
        path.write_text("vars 2\nobjective x1\neq 1.5e308*x1 + 1.5e308*x2\npoint 0 0\n")
        assert main(["analyze", str(path)]) == 2
        assert "eq 1: gradient at the point too large to rank" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_quotient_gradient_overflow_exit_two(self, tmp_path, capsys):
        # the gradient of 1/x1 at x1 = 1e-308 overflows in the point's jet;
        # it reaches the rank bound as inf, without a RuntimeWarning
        path = tmp_path / "steep.prob"
        path.write_text("vars 2\nobjective x2\nineq 1/x1 - 1e308\npoint 1e-308 0\n")
        assert main(["analyze", str(path)]) == 2
        assert "ineq 1: gradient at the point too large to rank" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "rows, message",
        [
            ("ineq -1e150*x1", None),
            ("ineq -2e154*x1", "ineq 1"),
            ("ineq -1e300*x1", "ineq 1"),
            ("ineq -x1\neq x2 - 2e154*x1", "eq 1"),
        ],
    )
    def test_gradient_too_large_to_square_exit_two(self, rows, message, tmp_path, capsys):
        # cone sampling squares active rows (row @ row) and chart pivoting
        # takes their norms: with n = 2 the bound is sqrt(finfo.max / 2) / 2
        # = 4.7e153, far below the rank bound
        path = tmp_path / "steep.prob"
        path.write_text(f"vars 2\nobjective x1\n{rows}\npoint 0 0\n")
        code = main(["analyze", str(path)])
        err = capsys.readouterr().err
        if message is None:
            assert code == 0 and err == ""
        else:
            assert code == 2
            assert f"{message}: gradient at the point too large to square its norm" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "coef, code",
        [("1e150", 0), ("4e153", 0), ("5e153", 2), ("1e160", 2), ("1e200", 2), ("1.5e308", 2)],
    )
    def test_objective_gradient_bound(self, coef, code, tmp_path, capsys):
        # the multiplier probe squares residuals as long as the objective
        # gradient: with n = 2 the bound is sqrt(finfo.max / 2) / 2 = 4.7e153
        path = tmp_path / "steep.prob"
        path.write_text(f"vars 2\nobjective {coef}*x1 + {coef}*x2\nineq -x1\npoint 0 0\n")
        assert main(["analyze", str(path)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert "objective: gradient at the point too large for the multiplier solve" in err
        else:
            assert err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_objective_gradient_bound_scales_with_constraints(self, tmp_path, capsys):
        # A.T @ f_grad grows with the constraint gradients: 1e300 * 1e10
        # would overflow, so the bound is finfo.max / (2 * 1e300) / 2 = 9e7
        path = tmp_path / "steep.prob"
        path.write_text("vars 2\nobjective 1e10*x1\nineq -1e300*x1\npoint 0 0\n")
        assert main(["analyze", str(path)]) == 2
        assert "objective: gradient" in capsys.readouterr().err

    def test_exp_overflow_at_samples_skips_them(self, tmp_path):
        # the point is fine, but exp(1e6 * x1) overflows on part of every
        # shell with x1 > 7.1e-4 and along arcs that move x1 that far
        path = tmp_path / "wall.prob"
        path.write_text("vars 2\nobjective x2\nineq exp(1000000*x1) - 1 - x2\npoint 0 0\n")
        report = run(RunConfig(problem=str(path)))
        crcq = report["constraint_qualifications"]["crcq"]["evidence"]
        assert 0 < crcq["samples_skipped_domain"] < 3 * 64
        notes = [e.get("note", "") for e in report["arcs"]["entries"]]
        assert any("exp overflows" in note for note in notes)

    @pytest.mark.parametrize(
        "name, radii", [("circle", "1e308"), ("paper-example-1", "1e-2,1e308")]
    )
    def test_gradient_overflow_at_samples_exit_zero(self, name, radii, tmp_path, capsys):
        # gradients 2 x overflow on the 1e308 shell; those samples are skipped
        out = tmp_path / "huge.json"
        assert main(["analyze", f"builtin:{name}", "--radii", radii, "--json", str(out)]) == 0
        evidence = json.loads(out.read_text())["constraint_qualifications"]["crcq"]["evidence"]
        assert 0 < evidence["samples_skipped_domain"] <= 64

    def test_deep_sum_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "deep.prob"
        terms = " + ".join(["x1"] * 5000)
        path.write_text(f"vars 1\nobjective {terms}\nineq x1 - 1\npoint 0\n")
        out = tmp_path / "deep.json"
        assert main(["analyze", str(path), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["objective_value"] == 0.0

    def test_deep_nesting_exit_zero(self, tmp_path):
        # the parser reads any depth: 1000 parentheses, and a degree-400
        # Horner polynomial (400 nested left operands)
        nested = tmp_path / "nested.prob"
        nested.write_text("vars 1\nobjective " + "(" * 1000 + "x1" + ")" * 1000 + "\npoint 0\n")
        assert main(["analyze", str(nested)]) == 0
        horner = "(" * 400 + "1" + ")*x1 + 1" * 400
        path = tmp_path / "horner.prob"
        path.write_text(
            f"vars 2\nobjective x2 + 0.001*({horner})\nineq x1^2 + x2^2 - 1\npoint 0 -1\n"
        )
        out = tmp_path / "horner.json"
        assert main(["analyze", str(path), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["objective_value"] == -0.999

    def test_exponent_above_limit_exit_two(self, tmp_path, capsys):
        path = tmp_path / "power.prob"
        path.write_text(f"vars 1\nobjective x1^{expr._MAX_EXPONENT + 1}\npoint 1\n")
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line 2: integer exponent {expr._MAX_EXPONENT + 1} exceeds the limit" in err

    def test_huge_exponent_rejected_quickly(self, tmp_path, capsys):
        path = tmp_path / "power.prob"
        path.write_text("vars 1\nobjective x1^2000000\npoint 1\n")
        start = time.perf_counter()
        assert main(["analyze", str(path)]) == 2
        assert time.perf_counter() - start < 0.5
        assert "exceeds the limit" in capsys.readouterr().err

    def test_moderate_nesting_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "nested.prob"
        path.write_text(
            "vars 1\nobjective " + "(" * 100 + "x1" + ")" * 100 + "\nineq x1 - 1\npoint 0\n"
        )
        out = tmp_path / "nested.json"
        assert main(["analyze", str(path), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["objective_value"] == 0.0

    def test_cli_defaults_are_run_config_defaults(self, tmp_path, capsys):
        out = tmp_path / "circle.json"
        assert main(["analyze", "builtin:circle", "--json", str(out)]) == 0
        assert out.read_text() == report_to_json(run(RunConfig("builtin:circle")))

    def test_module_entry_point(self, tmp_path):
        # the package imports cli, so only ``python -m nlpcheck`` (not
        # ``-m nlpcheck.cli``) runs main without runpy's RuntimeWarning
        src = os.path.dirname(os.path.dirname(nlpcheck.__file__))
        out = tmp_path / "circle.json"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "nlpcheck"]
            + ["analyze", "builtin:circle", "--json", str(out)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert out.read_text() == report_to_json(run(RunConfig("builtin:circle")))

    def test_closed_stdout_exits_141_after_writing_the_reports(self, tmp_path):
        # the reader is gone before the first write, as when `| head -1`
        # has read its line: the report files are written, and the run
        # ends with the fixed exit code and no traceback
        src = os.path.dirname(os.path.dirname(nlpcheck.__file__))
        out, csv_dir = tmp_path / "circle.json", tmp_path / "arcs"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nlpcheck", "analyze", "builtin:circle"]
                + ["--json", str(out), "--csv-dir", str(csv_dir)],
                env={**os.environ, "PYTHONPATH": src},
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write)
        assert proc.returncode == cli.EXIT_STDOUT_CLOSED == 141
        assert proc.stderr == ""
        assert out.read_text() == report_to_json(run(RunConfig("builtin:circle")))
        assert len(os.listdir(csv_dir)) == 8

    def test_unwritable_report_exits_two_after_the_summary(self, tmp_path, capsys):
        out = tmp_path / "missing" / "circle.json"
        assert main(["analyze", "builtin:circle", "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].startswith("analysis time: ")
        assert captured.err.startswith("error: cannot write output: ")

    def test_internal_failure_exit_three(self, monkeypatch, capsys):
        import nlpcheck.cli as cli_mod

        def boom(config):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "run", boom)
        code = cli_mod.main(["analyze", "builtin:circle"])
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    def test_infeasible_point_still_exit_zero(self, capsys):
        code = main(["analyze", "builtin:circle", "--point", "2,0"])
        assert code == 0
        assert "infeasible" in capsys.readouterr().out

    def test_explicit_file_matches_builtin(self, tmp_path, capsys):
        path = tmp_path / "circle.prob"
        path.write_text(builtin_source("circle"))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["analyze", str(path), "--json", str(out_a)]) == 0
        assert main(["analyze", "builtin:circle", "--json", str(out_b)]) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        # identical analysis; only the reference and source fields differ
        a["problem"].pop("reference"), b["problem"].pop("reference")
        assert a == b
