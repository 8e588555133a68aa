"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 perfbench/stability.py --trace-seed 0 --pin-digests \\
        --out perfbench/baseline.json
    python3 perfbench/stability.py --compare perfbench/baseline.json

For each workload in BENCHMARK.json, ``run.py`` runs once per seed with
tracing off, one run at a time.  Each end-to-end metric is summarised by
its median and its quartiles as ``statistics.quantiles(values, n=4)``
gives them; the spread is (Q3 - Q1) / median, printed against the
metric's bound from BENCHMARK.json.  ``--trace-seed`` adds one traced run per workload for the
per-layer numbers.  ``--pin-digests`` writes every report digest seen to
``digests.json``, refusing digests that disagree between runs.
``--compare`` prints how far each median moved from an earlier summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
DIGESTS = os.path.join(HERE, "digests.json")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, diagnostics with its wall time)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=900,
    )
    lines = proc.stdout.splitlines()
    diagnostics = json.loads(lines[-2])["diagnostics"]
    diagnostics["run_wall_s"] = time.perf_counter() - start
    return json.loads(lines[-1]), diagnostics


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range (default: 0-9)")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--pin-digests", action="store_true")
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    parser.add_argument("--compare", default=None, help="an earlier summary written by --out")
    args = parser.parse_args(argv)
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    summary: dict = {"seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    digests: dict[str, str] = {}
    conflicts = []
    ok = True
    for workload in workloads:
        per_metric: dict[str, list[float]] = {}
        entry: dict = {"end_to_end": {}, "run_wall_s": [], "report_digest_changes": 0}
        for seed in _seeds(args.seeds):
            result, diag = run_once(workload, seed, seconds, 0)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            for key, digest in diag["digests"].items():
                if digests.setdefault(key, digest) != digest:
                    conflicts.append(key)
            summary["environment"] = diag["environment"]
            entry["run_wall_s"].append(diag["run_wall_s"])
            entry["report_digest_changes"] += diag["report_digest_changes"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()
            ), flush=True)
        for name, values in per_metric.items():
            s = summarise(values)
            entry["end_to_end"][name] = s
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(
                f"{workload:16s} {name:16s} median {s['median']:.5g} "
                f"spread {s['spread']:.4f} (bound {bound}){flag}",
                flush=True,
            )
            before = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if before:
                shift = s["median"] / before["median"] - 1.0
                print(f"{workload:16s} {name:16s} median moved {shift:+.4f} from the earlier set")
        if args.trace_seed is not None:
            result, diag = run_once(workload, args.trace_seed, seconds, 1)
            ok &= result["correct"]
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
            entry["trace_diagnostics"] = {
                k: diag[k] for k in ("one_shot_cli_s", "import_profile", "seed", "passes")
            }
        summary["workloads"][workload] = entry
    if conflicts:
        print(f"digests disagree between runs: {sorted(set(conflicts))}", file=sys.stderr)
        ok = False
    elif args.pin_digests:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
