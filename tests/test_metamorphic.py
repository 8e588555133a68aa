"""Metamorphic tests: verdicts that must not move when a constraint is scaled.

In exact arithmetic, multiplying every constraint by c > 0 changes no
constraint qualification.  Each problem below is rewritten with every
``ineq`` and ``eq`` body multiplied by c, for c = 2^-30 and 2^30 (exact
power-of-two scalings) and c = 1e-9 and 1e9, and evaluated at its own
point.  Wherever the active set is unchanged, the MFCQ verdict must equal
the unscaled one.  Where the active set does change, the absolute
``tol_active`` read an inactive row as active; those cases are counted
and printed, not judged.
"""

import os
import sys

import pytest

from nlpcheck.cq import check_mfcq
from nlpcheck.model import evaluate_point, load_problem
from nlpcheck.problems import builtin_names, builtin_source

from test_acceptance import BATTERY
from test_cq import SEPARATING

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(BENCH)
import workloads  # noqa: E402

SCALES = (2.0**-30, 2.0**30, 1e-9, 1e9)

# the builtins, the acceptance battery, the separating battery, and the
# generated families at and around the benchmark's sizes
PROBLEMS = {
    **{name: builtin_source(name) for name in builtin_names()},
    **dict(BATTERY),
    **{name: text for name, (text, _) in SEPARATING.items()},
    **{f"chain-{n}": workloads.chain_text(n) for n in range(4, 10)},
    **{f"fanfree-{K}": workloads.fanfree_text(K) for K in range(5, 11)},
    **{f"fan-{K}": workloads.fan_text(K) for K in (3, 4, 8, 12)},
}


def scaled(text: str, c: float) -> str:
    """The problem with every constraint body multiplied by ``c``."""
    lines = []
    for line in text.splitlines():
        keyword, _, body = line.partition(" ")
        lines.append(f"{keyword} {c!r}*({body})" if keyword in ("ineq", "eq") else line)
    return "\n".join(lines) + "\n"


def mfcq_at_point(text: str):
    problem = load_problem(text)
    pd = evaluate_point(problem, problem.point)
    return pd.active, check_mfcq(pd).status


def test_problem_set():
    assert len(PROBLEMS) == 41


@pytest.mark.parametrize("c", SCALES, ids=["2^-30", "2^30", "1e-9", "1e9"])
def test_mfcq_does_not_depend_on_constraint_scale(c):
    changed = []
    moved = []
    for name, text in PROBLEMS.items():
        active, status = mfcq_at_point(text)
        scaled_active, scaled_status = mfcq_at_point(scaled(text, c))
        if scaled_active != active:
            moved.append(name)
        elif scaled_status != status:
            changed.append((name, status, scaled_status))
    print(f"constraints x {c!r}: active set changed on {len(moved)}: {moved}")
    assert changed == []
