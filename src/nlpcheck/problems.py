"""Built-in problem fixtures, compiled into the package.

Each fixture is stored in the problem text format, so the CLI and the
library load them exactly like user files (``builtin:NAME``).
"""

from __future__ import annotations

from nlpcheck.model import Problem, load_problem

__all__ = ["BUILTINS", "builtin_names", "builtin_source", "builtin_problem"]

BUILTINS: dict[str, str] = {
    # two unit disks tangent at the origin from opposite sides: the first
    # inequality keeps the upper disk, the second the points outside the
    # lower one, so the feasible set is the whole upper disk.  Both
    # constraint gradients are (0, -2) at the origin, the linearized cone
    # is {d2 >= 0}, and the multipliers form the segment mu1 + mu2 = 1/2
    "paper-example-1": """\
vars 2
objective x2
ineq x1^2 + (x2 - 1)^2 - 1
ineq 1 - x1^2 - (x2 + 1)^2
point 0 0
""",
    # region between a parabola and the horizontal axis; both constraint
    # gradients point straight down at the origin, so their rank drops there
    "paper-example-2": """\
vars 2
objective x2
ineq x1^2 - x2
ineq -x2
point 0 0
""",
    # unit circle as an equality constraint, minimizing -x1; the candidate
    # (1, 0) is the minimizer with a unique multiplier
    "circle": """\
vars 2
objective -x1
eq x1^2 + x2^2 - 1
point 1 0
""",
}


def builtin_names() -> list[str]:
    return sorted(BUILTINS)


def builtin_source(name: str) -> str:
    try:
        return BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; available: {', '.join(builtin_names())}"
        ) from None


def builtin_problem(name: str) -> Problem:
    return load_problem(builtin_source(name))
