"""Outside-in span tracing of nlpcheck's public functions.

``Tracer`` wraps each traced function in every nlpcheck namespace that
binds it.  ``from``-imports copy the function object into the importing
module at import time (``cq.numerical_rank``, ``cli.evaluate_point``), so
wrapping only the defining module would miss those callers.  The wrappers
record call counts and wall time; self time is a span's duration minus the
time covered by the spans it directly encloses.  Leaving the ``with``
block restores every original binding.
"""

from __future__ import annotations

import time
import types
from dataclasses import dataclass

# Traced functions, named "<defining module>.<function>".
SPANS = (
    "model.load_problem",
    "model.feasibility",
    "model.evaluate_point",
    "cq.check_licq",
    "cq.check_mfcq",
    "cq.check_crcq",
    "cq.check_rcrcq",
    "cq.summarize_acq",
    "kkt.solve_multipliers",
    "kkt.check_ssonc",
    "cones.linearized_cone",
    "cones.sample_directions",
    "cones.min_quadratic_on_cone",
    "arc.arc_for_direction",
    "arc.build_chart",
    "arc.trace_arc",
    "arc.verify_arc",
    "linalg.numerical_rank",
    "linalg.nullspace_basis",
    "linalg.newton_solve",
    "linalg.simplex_lp",
    "linalg.nnls",
    "linalg.min_eig_sym",
    "expr.grad_hess",
    "expr.evaluate",
    "cli.run",
    "cli.report_to_json",
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Context manager that installs the span wrappers and restores them.

    ``stats`` maps span name to ``SpanStats``; ``binding_calls`` counts the
    calls made through each (module, name) binding, so callers of a shared
    function (``cq.numerical_rank`` against ``kkt.numerical_rank``) can be
    told apart.
    """

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPANS}
        self.binding_calls: dict[str, int] = {}
        self._stack: list[float] = []  # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, binding: str, fn):
        stats = self.stats[span]
        stack = self._stack
        counts = self.binding_calls
        counts.setdefault(binding, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - child
                counts[binding] += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def __enter__(self) -> "Tracer":
        import nlpcheck  # the package imports every submodule

        modules = {
            name: mod for name, mod in vars(nlpcheck).items() if isinstance(mod, types.ModuleType)
        }
        try:
            for span in SPANS:
                home, attr = span.split(".")
                original = getattr(modules[home], attr)
                for mod_name, mod in modules.items():
                    if getattr(mod, attr, None) is original:
                        binding = f"{mod_name}.{attr}"
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, self._wrap(span, binding, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
