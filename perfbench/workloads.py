"""Benchmark workloads: generated problem families and the fixture set.

Every workload is a fixed list of instances.  An instance is a problem
text in nlpcheck's problem format, the explicit arc directions (if any),
and the verdicts the analysis may return.  The workload seed only feeds
``RunConfig.seed``; the family shapes never change with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

ARC_PROPERTIES = ("arc1", "arc2", "arc3", "arc4", "arc5", "forward_feasible")

# The outcomes an instance may pin: name -> path of keys and list indices
# into the report.  The arc properties are those of the first arc entry,
# which is the first explicit direction when ``arc_dirs`` is given.
VERDICT_PATHS = {
    "licq": ("constraint_qualifications", "licq", "status"),
    "mfcq": ("constraint_qualifications", "mfcq", "status"),
    "crcq": ("constraint_qualifications", "crcq", "status"),
    "rcrcq": ("constraint_qualifications", "rcrcq", "status"),
    "ssonc": ("ssonc", "status"),
    **{p: ("arcs", "entries", 0, "properties", p, "passed") for p in ARC_PROPERTIES},
}


@dataclass(frozen=True)
class Instance:
    """One analysis request and the verdicts it may come back with.

    ``problem`` is ``builtin:NAME`` or the stem of a generated problem file
    holding ``text``.  ``accepted`` maps a name from ``VERDICT_PATHS`` to
    the values the analysis may report there; outcomes not named are not
    checked.  ``arc_dirs`` and ``delta`` mirror the CLI's ``--arc-dir`` and
    ``--delta``.
    """

    name: str
    problem: str
    text: str
    accepted: dict = field(default_factory=dict)
    arc_dirs: tuple = ()
    delta: float = 0.1


def _coef(value: float, var: str) -> str:
    """A signed linear term such as ``+ 0.5*x1``; exact zeros are dropped."""
    if value == 0.0:
        return ""
    sign = "-" if value < 0 else "+"
    return f" {sign} {abs(value)!r}*{var}"


def chain_text(n: int) -> str:
    """``chain-n``: n variables at the origin.

    The equalities ``x{i+1} - x_i^2 + sin(x{i+2})^2`` (i <= n-3) and the
    two inequalities ``-x1 + xn^2``, ``-xn + x1^2`` keep their active
    gradients independent near the origin, so the CRCQ scan visits all
    2^(n-1)-1 subsets without finding a rank change.
    """
    if n < 4:
        raise ValueError("chain-n needs n >= 4")
    objective = " + ".join(f"x{i}^2" for i in range(1, n + 1)) + f" + x1 + x{n}"
    lines = [f"vars {n}", f"objective {objective}"]
    for i in range(1, n - 2):
        lines.append(f"eq x{i + 1} - x{i}^2 + sin(x{i + 2})^2")
    lines.append(f"ineq -x1 + x{n}^2")
    lines.append(f"ineq -x{n} + x1^2")
    lines.append("point " + " ".join(["0"] * n))
    return "\n".join(lines) + "\n"


def _fan_rows(K: int, curvature) -> list[str]:
    rows = []
    for k in range(1, K + 1):
        theta = 2.0 * math.pi * k / K
        row = (
            _coef(math.cos(theta), "x1")
            + _coef(math.sin(theta), "x2")
            + " - x3 + x1^4 + x2^4"
            + curvature(k)
        )
        rows.append("ineq " + row.lstrip(" +"))
    return rows


def fanfree_text(K: int) -> str:
    """``fanfree-K``: K tilted planes in R^5 with negative curvature in x4, x5.

    ``ineq_k = cos(tk) x1 + sin(tk) x2 - x3 + x1^4 + x2^4 - c_k (x4^2 + x5^2)``
    with tk = 2 pi k / K and c_k = (k mod 3) + 1.  The strong critical cone
    is the (x4, x5) plane, so facial enumeration certifies a negative
    minimum for every multiplier vertex.
    """
    if K < 3:
        raise ValueError("fanfree-K needs K >= 3")
    lines = ["vars 5", "objective x3 + x4^2 + x5^2"]
    lines += _fan_rows(K, lambda k: f" - {(k % 3) + 1}*(x4^2 + x5^2)")
    lines.append("point 0 0 0 0 0")
    return "\n".join(lines) + "\n"


def fan_text(K: int) -> str:
    """``fan-K``: K tilted planes through the origin of R^3, objective x3.

    ``ineq_k = cos(tk) x1 + sin(tk) x2 - x3 + x1^4 + x2^4``.  The strong
    critical cone is {0}, so no face yields a feasible eigenvector and the
    SSONC check falls through to its sampled search.
    """
    if K < 3:
        raise ValueError("fan-K needs K >= 3")
    lines = ["vars 3", "objective x3"]
    lines += _fan_rows(K, lambda k: "")
    lines.append("point 0 0 0")
    return "\n".join(lines) + "\n"


# Builtin fixture texts are loaded through the package (``builtin:NAME``);
# these are the verdicts tests/test_acceptance.py pins for them.
_BUILTIN_ACCEPTED = {
    "paper-example-1": {
        "licq": {"fails"},
        "mfcq": {"holds"},
        "rcrcq": {"fails"},
        "ssonc": {"fails"},
    },
    "paper-example-2": {
        "mfcq": {"holds"},
        "rcrcq": {"fails"},
        "ssonc": {"holds-certified"},
    },
    "circle": {"rcrcq": {"undetermined"}},
}

# The guaranteed-arc battery of tests/test_acceptance.py (criterion 5),
# copied so that the benchmark's inputs stay fixed when the tests change.
# The acceptance test pins a clean rank scan on each.
BATTERY = [
    ("unit-circle", "vars 2\nobjective -x1\neq x1^2 + x2^2 - 1\npoint 1 0\n"),
    ("shifted-circle", "vars 2\nobjective x2\neq (x1 - 1)^2 + x2^2 - 4\npoint 3 0\n"),
    ("unit-sphere", "vars 3\nobjective x3\neq x1^2 + x2^2 + x3^2 - 1\npoint 1 0 0\n"),
    ("paraboloid", "vars 3\nobjective x3\neq x3 - x1^2 - x2^2\npoint 0 0 0\n"),
    ("log-sheet", "vars 2\nobjective x1\neq log(x1 + 1) - x2\npoint 0 0\n"),
    (
        "curved-pair",
        "vars 3\nobjective x1\neq x1 + x2^2 + x3^2\neq x2 - x3\npoint 0 0 0\n",
    ),
    ("linear-wedge", "vars 2\nobjective x1\nineq x1 + x2\nineq x1 - x2\npoint 0 0\n"),
    ("exponential-wall", "vars 2\nobjective x2\nineq exp(x1) - 1\npoint 0 0\n"),
    ("log-wall", "vars 2\nobjective x1\nineq -log(x1 + 1)\npoint 0 0\n"),
    (
        "halfplane-with-slack-disk",
        "vars 2\nobjective x2 + x1^2\nineq -x2\nineq x1^2 + x2^2 - 4\npoint 0 0\n",
    ),
    (
        "cylinder",
        "vars 3\nobjective x3\neq x1^2 + x2^2 - 1\nineq -x3\npoint 1 0 0\n",
    ),
    (
        "plane-and-halfspace",
        "vars 3\nobjective x2\neq x1 + x2 + x3\nineq -x1\npoint 0 0 0\n",
    ),
]


def _arc_outcomes(failing: tuple = ()) -> dict:
    """Accepted arc property outcomes: those in ``failing`` fail, the rest pass."""
    return {p: {p not in failing} for p in ARC_PROPERTIES}


def _builtin(name: str, label: str = "", arcs: dict | None = None, **kwargs) -> Instance:
    from nlpcheck.problems import builtin_source

    return Instance(
        name=name + label,
        problem=f"builtin:{name}",
        text=builtin_source(name),
        accepted={**_BUILTIN_ACCEPTED[name], **(arcs or {})},
        **kwargs,
    )


def fixtures() -> list[Instance]:
    out = [_builtin(name) for name in sorted(_BUILTIN_ACCEPTED)]
    out += [
        Instance(name, f"battery-{name}", text, {"rcrcq": {"undetermined"}})
        for name, text in BATTERY
    ]
    # explicit --arc-dir runs with the arc outcomes tests/test_acceptance.py
    # pins: the README's circle arc passes every property (criterion 3);
    # the parabola arc drifts off its pinned constraint, so only arc2
    # fails (criterion 4)
    out.append(
        _builtin(
            "circle", " --arc-dir 0,1", _arc_outcomes(), arc_dirs=((0.0, 1.0),), delta=0.25
        )
    )
    out.append(
        _builtin(
            "paper-example-2",
            " --arc-dir 1,0",
            _arc_outcomes(failing=("arc2",)),
            arc_dirs=((1.0, 0.0),),
            delta=0.2,
        )
    )
    return out


_CHAIN_ACCEPTED = {
    "licq": {"holds"},
    "mfcq": {"holds"},
    "crcq": {"undetermined"},
    "rcrcq": {"undetermined"},
    "ssonc": {"holds-certified"},
}


def rank_scan() -> list[Instance]:
    # chain-10 is left out: it alone took half of a pass, so a run held
    # only two samples of each instance
    return [
        Instance(f"chain-{n}", f"chain-{n}", chain_text(n), _CHAIN_ACCEPTED)
        for n in (7, 8, 9)
    ]


def ssonc_facial() -> list[Instance]:
    return [
        Instance(f"fanfree-{K}", f"fanfree-{K}", fanfree_text(K), {"ssonc": {"fails"}})
        for K in (9, 10)
    ]


def ssonc_zero_cone() -> list[Instance]:
    # the true answer is "holds"; today's sampled fallback says "undetermined"
    accepted = {"ssonc": {"undetermined", "holds-certified"}}
    return [Instance("fan-3", "fan-3", fan_text(3), accepted)]


# Why each workload exists:
WORKLOADS = {
    # Real small-problem traffic.  Arc tracing (Newton + grad_hess) and
    # the rank scans dominate; multiplier enumeration and SSONC are near
    # zero, so this bypasses cone and rank-scan changes.  The explicit
    # directions exercise the second arc pass in cli.run.
    "fixtures": fixtures,
    # Clean CRCQ/RCRCQ scans over 2^(n-1)-1 subsets: numerical_rank is
    # called tens of thousands of times per analysis, and multiplier and
    # cone work is trivial (one vertex, LICQ holds).
    "rank-scan": rank_scan,
    # 25-30 multiplier vertices, each certified by facial enumeration over
    # 2^(K+1) faces; the rank scans exit early with a certificate.
    "ssonc-facial": ssonc_facial,
    # A {0} strong critical cone: facial enumeration finds no face and
    # SSONC falls into the sampled fallback, which is nearly all the time.
    # Kept apart so that this one call does not swamp the facial path.
    "ssonc-zero-cone": ssonc_zero_cone,
}


def instances(workload: str) -> list[Instance]:
    try:
        return WORKLOADS[workload]()
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; available: {', '.join(WORKLOADS)}"
        ) from None


def accepted_failures(instance: Instance, report: dict) -> list[str]:
    """Verdicts of ``report`` outside the instance's accepted sets."""
    bad = []
    for name, allowed in sorted(instance.accepted.items()):
        node = report
        for key in VERDICT_PATHS[name]:
            try:
                node = node[key]
            except (KeyError, IndexError, TypeError):
                node = None
                break
        if node not in allowed:
            bad.append(f"{instance.name}: {name}={node!r}, expected one of {sorted(allowed)}")
    return bad
