"""Closed-loop benchmark of nlpcheck analyses.

Run from the repository root:

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

One client sends one analysis at a time.  An analysis is ``cli.run`` on a
prepared ``RunConfig`` followed by ``cli.report_to_json``.  A run makes
whole passes over the workload's instances, at least ``MIN_PASSES`` and
then until ``--seconds`` have passed, so every instance's median comes
from at least two samples and every run times the same mix.  The seed
feeds ``RunConfig.seed`` (modulo ``CONFIG_SEEDS``, so that every report
digest can be pinned).

Timings are normalised to a nominal host speed.  After every analysis
the fixed computation in ``reference.py`` runs for a tenth of the
analysis's time; its rate against ``reference.NOMINAL_RATE`` is the
host's current speed, and analysis times are multiplied by it.  The host
this was tuned on drifts by tens of percent over minutes while the
analyses' work stays the same, and the reference slows with it.  Raw
times are printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` analyses each
instance untraced and then traced, and reports per-layer span metrics
(per analysis), ratios read from the reports, and the tracing overhead.
An analysis fails when it raises, when its report does not re-serialise
to the same bytes or differs from an earlier report of the same instance
in the run, or when a verdict or pinned arc outcome is outside the
instance's accepted set.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds diagnostics (report digests, environment, import profile).
"""

from __future__ import annotations

import os

# single-threaded BLAS, fixed before numpy loads here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

from reference import NOMINAL_RATE, Gauge
from tracing import Tracer
from workloads import WORKLOADS, accepted_failures, instances

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.relpath(HERE, ROOT) + "/.work"  # generated problem files
DIGESTS = os.path.join(HERE, "digests.json")
CONFIG_SEEDS = 8
SETUP_REPEATS = 3
MIN_PASSES = 2
REF_SHARE = 0.1  # reference time after each step, as a share of the step
CHILD_TIMEOUT_S = 120

# a fresh interpreter importing the CLI and loading the workload's problems
SETUP_PROBE = """\
import sys
import nlpcheck.cli
import workloads
from nlpcheck.model import load_problem
for inst in workloads.instances(sys.argv[1]):
    load_problem(inst.text)
"""
ONE_SHOT_CLI = "import sys; from nlpcheck.cli import main; sys.exit(main(sys.argv[1:]))"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def time_child(args: list[str]) -> float:
    """Wall time of one child interpreter, started and awaited here."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start


def measure_setup(workload: str) -> float:
    """Median set-up time over ``SETUP_REPEATS`` children, run one at a time."""
    args = ["-c", SETUP_PROBE, workload]
    return statistics.median(time_child(args) for _ in range(SETUP_REPEATS))


def import_profile(top: int = 10) -> list[dict]:
    """The slowest entries of ``-X importtime`` for ``import nlpcheck.cli``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import nlpcheck.cli"],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    rows = []
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        rows.append((int(fields[1]), int(fields[0]), fields[2].strip()))
    rows.sort(reverse=True)
    return [
        {"module": name, "cumulative_s": cum / 1e6, "self_s": own / 1e6}
        for cum, own, name in rows[:top]
    ]


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def prepare(insts, seed: int) -> list:
    """Write generated problems to files and build one RunConfig each."""
    import numpy as np
    from nlpcheck.cli import RunConfig

    os.makedirs(WORK, exist_ok=True)
    jobs = []
    for inst in insts:
        ref = inst.problem
        if not ref.startswith("builtin:"):
            ref = f"{WORK}/{inst.problem}.nlp"
            tmp = f"{ref}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(inst.text)
            os.replace(tmp, ref)
        config = RunConfig(
            problem=ref,
            seed=seed,
            arc_dirs=tuple(np.array(d, dtype=float) for d in inst.arc_dirs),
            delta=inst.delta,
        )
        jobs.append((inst, config))
    return jobs


def report_counts(report: dict) -> Counter:
    """Work and outcome counts read from one report (the ratio bases)."""
    c = Counter(analyses=1)
    cqs = report.get("constraint_qualifications", {})
    acq = cqs.get("acq", {}).get("evidence", {})
    c["acq_realized"] += acq.get("realized", 0)
    c["acq_sampled"] += acq.get("directions_sampled", 0)
    for name in ("crcq", "rcrcq"):
        c["subsets"] += cqs.get(name, {}).get("evidence", {}).get("subsets_scanned", 0)
    arcs = report.get("arcs", {})
    for entry in arcs.get("entries", []):
        if "delta_used" in entry:
            c["arcs"] += 1
            c["arcs_truncated"] += bool(entry["truncated"])
            c["delta_halvings"] += round(math.log2(arcs["delta"] / entry["delta_used"]))
    for result in report.get("ssonc", {}).get("results", []):
        c["cone_minima"] += 1
        c["cone_certified"] += bool(result["certified"])
    kkt = report.get("kkt", {})
    c["vertices"] += len(kkt.get("vertices", []))
    c["rays"] += len(kkt.get("rays", []))
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Client:
    """The single closed-loop client: sends analyses and checks each report."""

    def __init__(self):
        from nlpcheck import cli

        self.cli = cli
        self.reserialize = cli.report_to_json  # bound before any tracing
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}  # instance name -> SHA-256 of its report

    def analyze(self, inst, config) -> tuple[float, dict] | None:
        """One timed analysis; returns (seconds, report), or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            report = self.cli.run(config)
            text = self.cli.report_to_json(report)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # any raise is a failed analysis
            self.failures.append(f"{inst.name}: {type(exc).__name__}: {exc}")
            return None
        problems = accepted_failures(inst, report)
        if self.reserialize(report) != text:
            problems.append(f"{inst.name}: report not byte-identical on re-serialisation")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.digests.setdefault(inst.name, digest) != digest:
            problems.append(f"{inst.name}: report differs from its first one in this run")
        if problems:
            self.failures.extend(problems)
            return None
        return elapsed, report



def pinned_changes(digests: dict[str, str]) -> tuple[int, int]:
    """(digests that differ from the pinned ones, digests compared)."""
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            pinned = json.load(fh)
    except FileNotFoundError:
        pinned = {}
    compared = [pinned[key] != d for key, d in digests.items() if key in pinned]
    return sum(compared), len(compared)


def run_passes(jobs, seconds: float, step) -> tuple[int, float]:
    """Whole passes over ``jobs``: at least ``MIN_PASSES``, then until ``seconds``.

    Returns the pass count and the host speed against the nominal one,
    gauged after every step for ``REF_SHARE`` of the step's time, so the
    gauge samples the host evenly over the run.
    """
    gc.collect()
    gauge = Gauge()
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for inst, config in jobs:
            step_start = time.perf_counter()
            step(inst, config)
            gauge.run_for(REF_SHARE * (time.perf_counter() - step_start))
        passes += 1
    return passes, gauge.rate / NOMINAL_RATE


def measure_end_to_end(
    client: Client, jobs, seconds: float
) -> tuple[int, float, dict, list[str]]:
    """Untraced passes, summarised by each instance's median time.

    ``norm_analysis_p50_ms`` is the geometric mean of the instance medians:
    a pooled median of instances with very different sizes sits in a gap
    between size clusters and jumps from run to run, while this moves
    smoothly with every instance.  ``norm_analyses_per_s`` is the rate of
    one pass over the instances at their median times, so a stall of the
    host during a few analyses does not set it.  Both are at nominal host
    speed; the raw figures are printed.
    """
    times: dict[str, list[float]] = {}

    def step(inst, config):
        result = client.analyze(inst, config)
        if result is not None:
            times.setdefault(inst.name, []).append(result[0])

    passes, speed = run_passes(jobs, seconds, step)
    medians = [statistics.median(v) for v in times.values()]
    pooled = [t for v in times.values() for t in v]
    n = len(pooled)
    rate = _ratio(len(medians), sum(medians))
    p50_ms = statistics.geometric_mean(medians) * 1e3 if medians else 0.0
    metrics = {
        "norm_analyses_per_s": (_ratio(rate, speed), "1/s"),
        "norm_analysis_p50_ms": (p50_ms * speed, "ms"),
    }
    lines = [
        f"{passes} pass(es), {n} analyses timed over {len(medians)} instances, "
        f"{n // max(len(medians), 1)} samples per instance median; host speed "
        f"{speed:.4f} of nominal",
        f"raw: analyses_per_s {rate:.6g} 1/s, analysis_p50_ms {p50_ms:.4f} ms, "
        f"pooled median {statistics.median(pooled) * 1e3 if pooled else 0.0:.4f} ms",
    ]
    if n >= 100:  # at least ten samples lie beyond the 90th percentile
        p90 = statistics.quantiles(pooled, n=10)[-1] * 1e3
        lines.append(f"raw analysis_p90_ms {p90:.4f} ms over {n} samples")
    return passes, speed, metrics, lines


def measure_layers(client: Client, jobs, seconds: float) -> tuple[int, float, dict, list[str]]:
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    counts = Counter()

    def step(inst, config):
        first = client.analyze(inst, config)
        with tracer:
            second = client.analyze(inst, config)
        if first is not None and second is not None:
            plain.append(first[0])
            traced.append(second[0])
            counts.update(report_counts(second[1]))

    passes, speed = run_passes(jobs, seconds, step)
    n = counts["analyses"]
    metrics = {}
    for span, st in tracer.stats.items():
        metrics[f"{span}.calls"] = (_ratio(st.calls, n), "calls/analysis")
        metrics[f"{span}.self_s"] = (_ratio(st.self_s, n), "s/analysis")
        metrics[f"{span}.total_s"] = (_ratio(st.total_s, n), "s/analysis")
    rank_calls = tracer.binding_calls.get("cq.numerical_rank", 0)
    ratios = {
        "arc.realized_ratio": ("acq_realized", "acq_sampled", "ratio"),
        "arc.truncated_ratio": ("arcs_truncated", "arcs", "ratio"),
        "arc.delta_halvings": ("delta_halvings", "arcs", "1/arc"),
        "cones.certified_ratio": ("cone_certified", "cone_minima", "ratio"),
        "kkt.vertices": ("vertices", "analyses", "1/analysis"),
        "kkt.rays": ("rays", "analyses", "1/analysis"),
        "cq.subsets_scanned": ("subsets", "analyses", "1/analysis"),
    }
    lines = [f"{passes} pass(es), {n} traced analyses; host speed {speed:.4f} of nominal"]
    for name, (num, den, unit) in ratios.items():
        metrics[name] = (_ratio(counts[num], counts[den]), unit)
        lines.append(f"{name}: {counts[num]} {num} / {counts[den]} {den}")
    metrics["cq.rank_calls_per_subset"] = (_ratio(rank_calls, counts["subsets"]), "calls/subset")
    lines.append(
        f"cq.rank_calls_per_subset: {rank_calls} cq.numerical_rank calls / "
        f"{counts['subsets']} subsets"
    )
    overhead = _ratio(sum(traced), sum(plain)) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    lines.append(
        f"tracing overhead {overhead:+.4f}: {sum(traced):.3f} s traced against "
        f"{sum(plain):.3f} s untraced over the same {n} analyses"
    )
    return passes, speed, metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    config_seed = seed % CONFIG_SEEDS
    insts = instances(workload)
    client = Client()  # imports nlpcheck, so set-up children find bytecode caches
    setup_s = None if trace else measure_setup(workload)
    jobs = prepare(insts, config_seed)
    # warm-up outside the timing: first calls into numpy/scipy set things up
    client.cli.run(client.cli.RunConfig(problem="builtin:paper-example-1"))
    measure = measure_layers if trace else measure_end_to_end
    passes, speed, metrics, lines = measure(client, jobs, seconds)
    if not trace:
        metrics["setup_s"] = (setup_s, "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MiB")
    digests = {f"{workload}/{k}/seed={config_seed}": v for k, v in client.digests.items()}
    changes, compared = pinned_changes(digests)
    failed = len(client.failures)
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "config_seed": config_seed,
        "passes": passes,
        "host_speed": speed,
        "failed_fraction": _ratio(failed, client.attempted),
        "failures": client.failures[:10],
        "report_digest_changes": changes,
        "digests_compared": compared,
        "digests": digests,
        "environment": environment(),
    }
    if trace:
        diagnostics["one_shot_cli_s"] = time_child(["-c", ONE_SHOT_CLI, "analyze", "builtin:circle"])
        diagnostics["import_profile"] = import_profile()
    for line in lines:
        print(f"[{workload}] {line}")
    print(
        f"[{workload}] failed_fraction {diagnostics['failed_fraction']:.4f} "
        f"({failed} of {client.attempted}); report_digest_changes {changes} "
        f"of {compared} pinned"
    )
    for message in client.failures[:10]:
        print(f"[{workload}] FAILED {message}")
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own child process, so each gets its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=CHILD_TIMEOUT_S * 10,
        )
        *lines, last = proc.stdout.splitlines()
        result = json.loads(last)
        print("\n".join(lines))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            print(f"{workload:16s} {name:40s} {m['value']:14.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nlpcheck", "cli.py")):
        print(f"error: no nlpcheck sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
