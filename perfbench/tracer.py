"""Spans and counters for the traced benchmark run, recorded from outside.

The tracer replaces the module attributes that callers look up at call time
(``hffs.cli.solve_full``, ``hffs.lbbd.solve_master``, ``hffs.full_model.solve``,
``hffs.engine.check_assignment``, ...) with wrappers that record one span per
call: name, start, end, parent span and, for a few calls, the arguments or
result the per-layer counters need.  Nothing under ``src/`` is changed, and
``uninstall`` puts every original back, so untraced passes in the same
process run the plain code.

A span's layer is the part of its name before the first dot.  A layer's self
time is the summed duration of its spans minus the time their direct child
spans cover, so the self times of all layers add up to the root spans
(the ``cli.main`` calls).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    context: str  # the module the call was looked up from
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module looked up from, attribute, span name, keep the arguments, keep the result)
_PATCHES = (
    ("cli", "main", "cli.main", False, False),
    ("cli", "generate", "instance_gen.generate", False, False),
    ("cli", "solve_full", "full_model.solve_full", False, False),
    ("cli", "run", "lbbd.run", False, True),
    ("cli", "gaps", "lbbd.gaps", False, False),
    ("cli", "best_lb", "bounds.best_lb", False, False),
    ("cli", "instance_from_json", "model.instance_from_json", False, False),
    ("cli", "instance_to_json", "model.instance_to_json", False, False),
    ("cli", "schedule_from_json", "model.schedule_from_json", False, False),
    ("cli", "schedule_to_json", "model.schedule_to_json", False, False),
    ("cli", "validate_instance", "model.validate_instance", False, False),
    ("cli", "validate_schedule", "model.validate_schedule", False, False),
    ("full_model", "best_lb", "bounds.best_lb", False, False),
    ("full_model", "serial_schedule", "model.serial_schedule", False, False),
    ("full_model", "validate_instance", "model.validate_instance", False, False),
    ("full_model", "validate_schedule", "model.validate_schedule", False, False),
    ("full_model", "build_full", "full_model.build_full", False, False),
    ("full_model", "solve", "engine.solve", True, True),
    ("lbbd", "best_lb", "bounds.best_lb", False, False),
    ("lbbd", "validate_instance", "model.validate_instance", False, False),
    ("lbbd", "solve_master", "master.solve_master", False, True),
    ("lbbd", "solve_sub", "subproblem.solve_sub", False, True),
    ("lbbd", "BendersCut", "lbbd.BendersCut", False, False),
    ("master", "validate_instance", "model.validate_instance", False, False),
    ("master", "serial_schedule", "model.serial_schedule", False, False),
    ("master", "build_master", "master.build_master", False, False),
    ("master", "check_assignment", "engine.check_assignment", False, False),
    ("master", "solve", "engine.solve", True, True),
    ("subproblem", "validate_instance", "model.validate_instance", False, False),
    ("subproblem", "validate_schedule", "model.validate_schedule", False, False),
    ("subproblem", "serial_schedule", "model.serial_schedule", False, False),
    ("subproblem", "build_sub", "subproblem.build_sub", False, False),
    ("subproblem", "solve", "engine.solve", True, True),
    ("engine", "check_assignment", "engine.check_assignment", False, False),
    ("bounds", "lb8_malleable", "bounds.lb8_malleable", False, False),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, modules: dict) -> None:
        self._modules = modules  # short module name -> module object
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[Span] = []

    def install(self) -> None:
        for ctx, attr, name, keep_args, keep_result in _PATCHES:
            module = self._modules[ctx]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, ctx, keep_args, keep_result))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, ctx: str, keep_args: bool, keep_result: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, ctx)
            if keep_args:
                span.args, span.kwargs = args, kwargs
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if keep_result:
                span.result = result
            return result

        return traced

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                kids[span.parent].append(i)
        return kids

    def self_times(self) -> dict[str, float]:
        """Self time per layer, summed over all recorded spans."""
        kids = self.children()
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            own = span.duration - sum(self.spans[c].duration for c in kids[i])
            out[span.layer] = out.get(span.layer, 0.0) + own
        return out
