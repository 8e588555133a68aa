"""Cross-commit byte identity of reports, gated in the unit tests.

``perfbench/digests.json`` pins the SHA-256 of the JSON report of every
benchmark instance at every configuration seed.  This test rebuilds the
17 ``fixtures`` instances and the three ``rank-scan`` instances (chain-7,
chain-8 and chain-9) from ``perfbench/workloads.py`` the way
``perfbench/run.py`` does, at seed 0, and compares their digests with the
pinned ones.  Both files are only read.  Generated problems are
written under a temporary working directory at the relative path the
benchmark uses, because that path is the report's ``problem.reference``.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from nlpcheck import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(BENCH)
import workloads  # noqa: E402

with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
    PINNED = json.load(fh)

CASES = [("fixtures", inst) for inst in workloads.instances("fixtures")] + [
    ("rank-scan", inst) for inst in workloads.instances("rank-scan")
]


def test_case_list():
    assert len(CASES) == 20
    assert all(f"{w}/{inst.name}/seed=0" in PINNED for w, inst in CASES)


@pytest.mark.parametrize("workload, inst", CASES, ids=[inst.name for _, inst in CASES])
def test_report_digest_matches_pinned(workload, inst, tmp_path, monkeypatch):
    ref = inst.problem
    if not ref.startswith("builtin:"):
        monkeypatch.chdir(tmp_path)
        ref = f"perfbench/.work/{inst.problem}.nlp"
        os.makedirs(os.path.dirname(ref))
        with open(ref, "w", encoding="utf-8") as fh:
            fh.write(inst.text)
    config = cli.RunConfig(
        problem=ref,
        seed=0,
        arc_dirs=tuple(np.array(d, dtype=float) for d in inst.arc_dirs),
        delta=inst.delta,
    )
    text = cli.report_to_json(cli.run(config))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINNED[f"{workload}/{inst.name}/seed=0"]
