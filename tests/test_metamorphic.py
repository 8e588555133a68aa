"""Metamorphic tests: verdicts that must not move when a constraint is scaled.

In exact arithmetic, multiplying every constraint by c > 0 changes no
constraint qualification, divides every KKT multiplier by c, and changes
neither the strong critical cone nor the multiplier-weighted Lagrangian
Hessian, so neither the KKT verdict nor SSONC.  Each problem below is
rewritten with every ``ineq`` and ``eq`` body multiplied by c, for c =
2^-30 and 2^30 (exact power-of-two scalings) and c = 1e-9 and 1e9, and
evaluated at its own point.  Wherever the active set is unchanged, the
LICQ, MFCQ, CRCQ and RCRCQ verdicts, the KKT flag, the vertex and ray
counts and the SSONC status must equal the unscaled ones.  Where the active set does change, the
absolute ``tol_active`` read an inactive row as active; those cases are
counted and printed, not judged.
"""

import functools
import os
import sys

import pytest

from nlpcheck.cq import NeighborhoodSampler, check_licq, check_mfcq, check_rank_constancy
from nlpcheck.kkt import check_ssonc, solve_multipliers
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


def cq_at_point(text: str):
    """The active set, and the LICQ, CRCQ and RCRCQ statuses (the last two
    from one rank scan with the default sampler)."""
    problem = load_problem(text)
    pd = evaluate_point(problem, problem.point)
    scans = check_rank_constancy(problem, pd, NeighborhoodSampler())
    return pd.active, (check_licq(pd).status, scans["crcq"].status, scans["rcrcq"].status)


@functools.cache
def kkt_at_point(text: str):
    """The active set, and the KKT flag, vertex and ray counts and SSONC
    status (None off a KKT point)."""
    problem = load_problem(text)
    pd = evaluate_point(problem, problem.point)
    ms = solve_multipliers(pd)
    ssonc = check_ssonc(pd, ms).status if ms.vertices else None
    return pd.active, (bool(ms.vertices), len(ms.vertices), len(ms.rays), ssonc)


def test_problem_set():
    assert len(PROBLEMS) == 41


def scale_changes(c: float, at_point) -> list:
    """The problems whose verdicts under ``at_point`` (which returns the
    active set and the verdicts) move when every constraint is scaled by
    ``c``, among those whose active set does not; the others are printed."""
    changed = []
    moved = []
    for name, text in PROBLEMS.items():
        active, verdicts = at_point(text)
        scaled_active, scaled_verdicts = at_point(scaled(text, c))
        if scaled_active != active:
            moved.append(name)
        elif scaled_verdicts != verdicts:
            changed.append((name, verdicts, scaled_verdicts))
    print(f"constraints x {c!r}: active set changed on {len(moved)}: {moved}")
    return changed


@pytest.mark.parametrize("c", SCALES, ids=["2^-30", "2^30", "1e-9", "1e9"])
def test_mfcq_does_not_depend_on_constraint_scale(c):
    assert scale_changes(c, mfcq_at_point) == []


@pytest.mark.parametrize("c", SCALES, ids=["2^-30", "2^30", "1e-9", "1e9"])
def test_rank_qualifications_do_not_depend_on_constraint_scale(c):
    assert scale_changes(c, cq_at_point) == []


@pytest.mark.parametrize("c", SCALES, ids=["2^-30", "2^30", "1e-9", "1e9"])
def test_kkt_layer_does_not_depend_on_constraint_scale(c):
    assert scale_changes(c, kkt_at_point) == []
