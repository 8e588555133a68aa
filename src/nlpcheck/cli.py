"""Command-line analysis driver and report serialization.

``nlpcheck analyze`` loads a problem (file path or ``builtin:NAME``),
evaluates the candidate point, runs every check, and prints a short
summary.  ``--json`` writes the full machine-readable report; ``--csv-dir``
writes one CSV of arc samples per traced arc.  The JSON report is
deterministic: fixed key order, floats at 17 significant digits, and no
wall-clock content (timing goes to stdout only), so identical
configurations produce byte-identical files.

Exit codes: 0 when the analysis completed (whatever the verdicts), 2 for
input errors and for report files that cannot be written, 3 for internal
numerical failures, and 141 (128 + SIGPIPE, as for a command the signal
ends) when standard output was closed before the summary was printed; the
report files are written by then.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from nlpcheck import arc as arc_mod
from nlpcheck import cones, cq, kkt
from nlpcheck._version import __version__
from nlpcheck.expr import DomainError
from nlpcheck.model import Problem, ProblemError, Tolerances, evaluate_point, feasibility
from nlpcheck.model import load_problem
from nlpcheck.problems import builtin_names, builtin_source

__all__ = [
    "InputError",
    "RunConfig",
    "run",
    "report_to_json",
    "emit_plot_data",
    "main",
]


EXIT_STDOUT_CLOSED = 141


class InputError(Exception):
    """Unusable input: missing file, malformed problem, bad point."""


@dataclass
class RunConfig:
    """Everything one analysis run depends on.

    ``problem`` is a path or ``builtin:NAME``.  ``arc_dirs`` lists explicit
    arc directions; when empty, ``arc_sample`` directions are sampled from
    the linearized cone with ``seed``.  ``tol`` holds the five tolerances.
    """

    problem: str
    point: np.ndarray | None = None
    seed: int = 0
    radii: tuple[float, ...] = cq.NeighborhoodSampler.radii
    samples: int = cq.DEFAULT_SAMPLES
    tol: Tolerances = Tolerances()
    arc_dirs: tuple = ()
    arc_sample: int = arc_mod.DEFAULT_ARCS
    arc_points: int = arc_mod.DEFAULT_POINTS
    delta: float = 0.1


def _load(config: RunConfig) -> tuple[str, Problem]:
    ref = config.problem
    if ref.startswith("builtin:"):
        name = ref[len("builtin:") :]
        try:
            text = builtin_source(name)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    else:
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read problem file {ref!r}: {exc}") from exc
    try:
        return ref, load_problem(text)
    except ProblemError as exc:
        raise InputError(f"problem {ref!r}: {exc}") from exc


def _verdict_dict(v: cq.Verdict) -> dict:
    return {
        "status": v.status,
        "certificate": v.certificate,
        "evidence": v.evidence,
    }


def _arc_entry(rep: arc_mod.DirectionArcReport) -> dict:
    entry: dict = {"direction": rep.direction.tolist()}
    if rep.error is not None:
        entry["error"] = rep.error
        return entry
    entry["pinned_ineq"] = list(rep.pinned.ineq) if rep.pinned else []
    entry["chart"] = rep.chart_summary
    a = rep.arc
    entry["delta_used"] = a.delta
    entry["truncated"] = a.truncated
    if a.note:
        entry["note"] = a.note
    props = {}
    for name, check in rep.properties.checks.items():
        props[name] = {
            "passed": check.passed,
            "worst_residual": check.worst,
            "detail": check.detail,
        }
    entry["properties"] = props
    entry["passed_all"] = rep.properties.passed_all()
    entry["samples"] = {
        "t": a.t.tolist(),
        "zeta": a.points.tolist(),
        "g": a.g_values.tolist(),
        "h": a.h_values.tolist(),
    }
    return entry


def _validate(config: RunConfig, problem: Problem) -> cq.NeighborhoodSampler:
    """Reject a configuration before any sweep; return the rank-scan sampler.
    :func:`~nlpcheck.arc.check_arc_request`, :class:`~nlpcheck.cq.NeighborhoodSampler`
    and the two budgets admit their requests, with the texts printed (the
    budgets' after the flags); only ``--arc-sample`` is checked here.
    :class:`~nlpcheck.model.Tolerances` admits the tolerances when it is
    built, and :func:`~nlpcheck.model.check_point` admits the point."""
    n, rows = problem.n, problem.m + problem.p  # every constraint row may be active
    try:
        arc_mod.check_arc_request(n, config.arc_dirs, [config.delta], config.arc_points)
        sampler = cq.NeighborhoodSampler(tuple(config.radii), config.samples, config.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    try:
        cq.check_scan_size(n, rows, len(config.radii), config.samples)
    except ValueError as exc:
        raise InputError(
            f"--samples {config.samples} is too large for this problem: {exc}"
        ) from None
    if config.arc_sample < 0:
        raise InputError(f"arc sample count must be >= 0, got {config.arc_sample}")
    try:
        arc_mod.check_arc_size(n, rows, config.arc_sample + len(config.arc_dirs), config.arc_points)
    except ValueError as exc:
        raise InputError(
            f"--arc-sample {config.arc_sample} with {len(config.arc_dirs)} --arc-dir and "
            f"--arc-points {config.arc_points} is too large for this problem: {exc}"
        ) from None
    return sampler


def run(config: RunConfig) -> dict:
    """Run the full analysis and return the report as an ordered dict.

    Arc entries for directions with the same bits, which share one traced
    arc, are the same dict: ``report["arcs"]["entries"]`` may hold one
    object more than once.  Copy an entry before changing it.
    """
    ref, problem = _load(config)
    x = problem.point if config.point is None else config.point
    if x is None:
        raise InputError("no candidate point: give one with --point or a 'point' line")
    sampler = _validate(config, problem)
    try:
        feas = feasibility(problem, x, config.tol)
        pd = evaluate_point(problem, x, config.tol) if feas.feasible else None
    except DomainError as exc:
        raise InputError(f"point outside the problem domain: {exc}") from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    report: dict = {
        "tool": "nlpcheck",
        "version": __version__,
        "problem": {
            "reference": ref,
            "n": problem.n,
            "m": problem.m,
            "p": problem.p,
            "source": problem.source,
        },
        "point": [float(v) for v in x],
        "seed": config.seed,
        "tolerances": asdict(config.tol),
    }
    report["feasibility"] = {
        "feasible": feas.feasible,
        "max_ineq_violation": feas.max_ineq_violation,
        "max_eq_violation": feas.max_eq_violation,
        "tol": config.tol.active,
    }
    if not feas.feasible:
        reason = "point is infeasible at tolerance; first-order analysis skipped"
        for key in ("active_set", "constraint_qualifications", "kkt", "ssonc", "arcs"):
            report[key] = {"skipped": reason}
        return report

    report["active_set"] = list(pd.active)
    report["objective_value"] = pd.f_val

    cqs: dict = {}
    cqs["licq"] = _verdict_dict(cq.check_licq(pd))
    cqs["mfcq"] = _verdict_dict(cq.check_mfcq(pd))
    for name, verdict in cq.check_rank_constancy(problem, pd, sampler).items():
        cqs[name] = _verdict_dict(verdict)
    report["constraint_qualifications"] = cqs

    ms = kkt.solve_multipliers(pd)
    report["kkt"] = {
        "stationarity_residual": ms.residual,
        "is_kkt_point": bool(ms.vertices),
        "vertices": [
            {"mu": [float(v) for v in mu], "lam": [float(v) for v in lam]}
            for mu, lam in ms.vertices
        ],
        "rays": [
            {"mu": [float(v) for v in mu], "lam": [float(v) for v in lam]}
            for mu, lam in ms.rays
        ],
        "bounded": ms.bounded,
        "partial": ms.partial,
        "note": ms.note,
    }
    if ms.vertices:
        ss = kkt.check_ssonc(pd, ms)
        report["ssonc"] = {
            "status": ss.status,
            "results": ss.results,
            "worst": ss.worst,
            "rationale": ss.rationale,
        }
    else:
        report["ssonc"] = {
            "skipped": "not a KKT point at tolerance; SSONC does not apply"
        }

    # the Abadie probe always uses sampled directions so its statistics are
    # comparable across runs; without explicit --arc-dir they are the same
    # arcs, and explicit ones are traced in the same batch (arcs are
    # independent).  Finitely many arcs refute nothing, so the verdict
    # stays undetermined.
    sampled = cones.sample_directions(cones.linearized_cone(pd), config.arc_sample, config.seed)
    explicit = [np.asarray(d, dtype=float) for d in config.arc_dirs]
    traced = arc_mod.arcs_for_directions(
        problem, pd, explicit + sampled, delta=config.delta, samples=config.arc_points
    )
    arc_reports = traced[: len(explicit)] if explicit else traced
    entry_of: dict = {}  # id of each distinct report -> its one entry
    for rep in arc_reports:
        if id(rep) not in entry_of:
            entry_of[id(rep)] = _arc_entry(rep)
    report["arcs"] = {
        "delta": config.delta,
        "samples_per_arc": config.arc_points,
        "directions_explicit": bool(explicit),
        "entries": [entry_of[id(rep)] for rep in arc_reports],
    }
    acq_reports = traced[len(explicit) :]
    evidence = cq.summarize_acq(acq_reports, requested=config.arc_sample, seed=config.seed)
    report["constraint_qualifications"]["acq"] = _verdict_dict(
        cq.Verdict("undetermined", None, evidence)
    )
    return report


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def _json_scalar(obj) -> str | None:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)  # what json.dumps runs for a str
    return None


_FLOAT_TYPES = {float, np.float64}


def _float_block(seq: list, pad: str) -> str | None:
    """A list of finite floats, or a list of equal-length lists of them,
    written by one ``%`` operation; None for anything else, which takes the
    per-scalar path.  ``%.17g`` is ``format(x, ".17g")``; only nan and inf
    put an ``n`` in the text, and they need the quoted spellings."""
    kinds = set(map(type, seq))
    if kinds <= _FLOAT_TYPES:
        values = seq
        text = "[" + ", ".join(["%.17g"] * len(seq)) + "]"
    elif kinds == {list} and len(set(map(len, seq))) == 1:
        values = list(chain.from_iterable(seq))
        if not set(map(type, values)) <= _FLOAT_TYPES:
            return None
        row = pad + "  [" + ", ".join(["%.17g"] * len(seq[0])) + "]"
        text = "[\n" + ",\n".join([row] * len(seq)) + "\n" + pad + "]"
    else:
        return None
    text %= tuple(values)
    return None if "n" in text else text


def _write_json(obj, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    scalar = _json_scalar(obj)
    if scalar is not None:
        out.append(scalar)
        return
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for k, (key, value) in enumerate(items):
            out.append(pad + "  " + encode_basestring_ascii(str(key)) + ": ")
            _write_json(value, indent + 1, out)
            out.append(",\n" if k + 1 < len(items) else "\n")
        out.append(pad + "}")
        return
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        block = _float_block(seq, pad)
        if block is not None:
            out.append(block)
            return
        scalars = [_json_scalar(v) for v in seq]
        if None not in scalars:
            out.append("[" + ", ".join(scalars) + "]")
            return
        out.append("[\n")
        span_of: dict = {}  # id of each element written -> its pieces of out
        for k, value in enumerate(seq):
            out.append(pad + "  ")
            span = span_of.get(id(value))
            if span is None:
                at = len(out)
                _write_json(value, indent + 1, out)
                span_of[id(value)] = (at, len(out))
            else:
                # the same object at the same indent: the same text
                out.extend(out[span[0] : span[1]])
            out.append(",\n" if k + 1 < len(seq) else "\n")
        out.append(pad + "]")
        return
    raise TypeError(f"cannot serialize {type(obj).__name__} to the report")


def report_to_json(report: dict) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant
    digits, 2-space indent.  Identical reports serialize byte-identically."""
    out: list[str] = []
    _write_json(report, 0, out)
    out.append("\n")
    return "".join(out)


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def emit_plot_data(entry: dict, path: str) -> None:
    """Write one arc's samples as CSV: t, zeta_*, g_*, h_*.

    Values carry 17 significant digits; the file is written to a temporary
    name and atomically renamed.  Truncated arcs simply have fewer rows.
    """
    samples = entry.get("samples")
    if samples is None:
        raise ValueError("arc entry has no samples (construction failed)")
    t = samples["t"]
    zeta = samples["zeta"]
    g = samples["g"]
    h = samples["h"]
    n = len(zeta[0]) if zeta else 0
    m = len(g[0]) if g else 0
    p = len(h[0]) if h else 0
    header = (
        ["t"]
        + [f"zeta_{i + 1}" for i in range(n)]
        + [f"g_{i + 1}" for i in range(m)]
        + [f"h_{j + 1}" for j in range(p)]
    )
    lines = [",".join(header)]
    for row in range(len(t)):
        cells = [format(t[row], ".17g")]
        cells += [format(v, ".17g") for v in zeta[row]]
        cells += [format(v, ".17g") for v in g[row]]
        cells += [format(v, ".17g") for v in h[row]]
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def _summary_lines(report: dict) -> list[str]:
    lines = []
    prob = report["problem"]
    lines.append(
        f"problem {prob['reference']}: n={prob['n']}, m={prob['m']}, p={prob['p']}"
    )
    feas = report["feasibility"]
    point = ", ".join(format(v, ".6g") for v in report["point"])
    status = "feasible" if feas["feasible"] else "INFEASIBLE"
    worst = max(feas["max_ineq_violation"], feas["max_eq_violation"])
    lines.append(f"point ({point}): {status} (worst violation {worst:.3e})")
    if isinstance(report["active_set"], dict):
        lines.append(report["active_set"]["skipped"])
        return lines
    lines.append(
        "active inequalities: {"
        + ", ".join(str(i) for i in report["active_set"])
        + "}"
    )
    cqs = report["constraint_qualifications"]
    lines.append(
        "cq: "
        + "  ".join(
            f"{name}={cqs[name]['status']}"
            for name in ("licq", "mfcq", "crcq", "rcrcq", "acq")
        )
    )
    kk = report["kkt"]
    lines.append(
        f"kkt: residual {kk['stationarity_residual']:.3e}, "
        f"{len(kk['vertices'])} vertex/vertices, {len(kk['rays'])} ray(s), "
        + ("bounded" if kk["bounded"] else "unbounded or partial")
    )
    ss = report["ssonc"]
    if "skipped" in ss:
        lines.append(f"ssonc: skipped ({ss['skipped']})")
    else:
        line = f"ssonc: {ss['status']}"
        if ss["worst"] is not None:
            line += (
                f" (worst value {ss['worst']['min_value']:.6g} at "
                f"{ss['worst']['kind']} {ss['worst']['index']})"
            )
        lines.append(line)
    arcs = report["arcs"]
    entries = arcs["entries"]
    passed = sum(1 for e in entries if e.get("passed_all"))
    lines.append(
        f"arcs: {len(entries)} direction(s), {passed} passed all properties"
    )
    acq = cqs["acq"]["evidence"]
    lines.append(
        f"acq probe: {acq['realized']}/{acq['directions_sampled']} "
        "sampled directions realized by feasible arcs"
    )
    return lines


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError:
        raise InputError(f"{flag} expects comma-separated numbers, got {text!r}")


def _tolerances(values: dict) -> Tolerances:
    try:
        return Tolerances(**values)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlpcheck",
        description="Optimality diagnostics for smooth nonlinear programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pa = sub.add_parser(
        "analyze",
        help="analyze a problem at a candidate point",
        description=(
            "Analyze a problem file (or builtin:NAME; available: "
            + ", ".join(builtin_names())
            + ") at a candidate point."
        ),
    )
    pa.add_argument("problem", help="problem file path, or builtin:NAME")
    pa.add_argument("--point", help="candidate point v1,...,vn (overrides the file)")
    # each flag sets the RunConfig field of its name, or the Tolerances
    # field that Tolerances.FLAGS names it for
    flags = (
        ("--seed", int, "sampling seed"),
        ("--samples", int, "samples per radius in the rank scans"),
        ("--tol-rank", float, "relative rank cutoff, and absolute KKT stationarity tolerance"),
        ("--tol-active", float, "activity threshold for inequalities"),
        ("--tol-dir", float, "pinning threshold for arc directions"),
        ("--newton-tol", float, "Newton residual target along arcs"),
        ("--verify-tol", float, "pass/fail threshold for arc properties"),
        ("--arc-sample", int, "number of sampled arc directions"),
        ("--arc-points", int, "samples per arc, odd and >= 5"),
        ("--delta", float, "arc half-width"),
    )
    fields = [flag[2:].replace("-", "_") for flag, _, _ in flags]
    tol_fields = {flag: name for name, flag in Tolerances.FLAGS.items()}
    for (flag, kind, what), name in zip(flags, fields):
        owner, attr = (Tolerances, tol_fields[name]) if name in tol_fields else (RunConfig, name)
        pa.add_argument(
            flag, type=kind, default=getattr(owner, attr), help=f"{what} (default %(default)s)"
        )
    pa.add_argument(
        "--radii",
        default=",".join(str(r) for r in RunConfig.radii),
        help="neighborhood radii for the rank scans (default %(default)s)",
    )
    pa.add_argument(
        "--arc-dir",
        action="append",
        default=[],
        metavar="D1,...,DN",
        help="explicit arc direction (repeatable)",
    )
    pa.add_argument("--json", dest="json_path", help="write the JSON report here")
    pa.add_argument("--csv-dir", help="write one CSV of samples per arc here")
    args = parser.parse_args(argv)

    try:
        config = RunConfig(
            problem=args.problem,
            point=_parse_vector(args.point, "--point") if args.point else None,
            radii=tuple(float(r) for r in _parse_vector(args.radii, "--radii")),
            arc_dirs=tuple(_parse_vector(d, "--arc-dir") for d in args.arc_dir),
            tol=_tolerances({tol_fields[name]: getattr(args, name) for name in tol_fields}),
            **{name: getattr(args, name) for name in fields if name not in tol_fields},
        )
        start = time.perf_counter()
        report = run(config)
        elapsed = time.perf_counter() - start
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal numerical failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    # timing is printed but never serialized, so reports stay reproducible
    lines = [*_summary_lines(report), f"analysis time: {elapsed:.3f} s"]
    # the report files come first, so that a reader who closes stdout
    # early (say, ``| head -1``) still gets them
    failure = None
    try:
        if args.json_path:
            _atomic_write(args.json_path, report_to_json(report))
            lines.append(f"report written to {args.json_path}")
        if args.csv_dir:
            entries = report["arcs"].get("entries", [])  # none when the point is infeasible
            os.makedirs(args.csv_dir, exist_ok=True)
            written = 0
            for k, entry in enumerate(entries):
                if "samples" not in entry:
                    continue
                path = os.path.join(args.csv_dir, f"arc_{k + 1:02d}.csv")
                emit_plot_data(entry, path)
                written += 1
            lines.append(f"{written} arc CSV file(s) written to {args.csv_dir}")
    except OSError as exc:
        failure = exc
    closed = False
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered goes to devnull, so that the interpreter's
        # last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        closed = True
    if failure is not None:
        print(f"error: cannot write output: {failure}", file=sys.stderr)
        return 2
    return EXIT_STDOUT_CLOSED if closed else 0


if __name__ == "__main__":
    sys.exit(main())
