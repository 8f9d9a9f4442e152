"""In-memory span tracer that wraps library functions from the outside.

A patch names a module attribute (``evoris.policy.attention_branch``) and a
span label.  ``install`` swaps each attribute for a timing wrapper and
``remove`` puts the original objects back, so an untraced run executes the
library exactly as shipped.  Spans are kept as (label, parent, start, end)
records; a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Patch:
    """Wrap ``module.attr``; ``label`` is a string or a function of the call
    arguments, ``after(result, args, kwargs)`` runs once the span has closed."""

    module: object
    attr: str
    label: object
    after: object = None


class Tracer:
    def __init__(self, patches):
        self.patches = list(patches)
        self.spans: list = []
        self._stack: list[int] = []
        self._originals: list = []

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        for p in self.patches:
            original = getattr(p.module, p.attr)
            self._originals.append((p.module, p.attr, original))
            setattr(p.module, p.attr, self._wrap(original, p.label, p.after))

    def remove(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, original, label, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = label if isinstance(label, str) else label(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = original
        return wrapper


def self_times(spans) -> list[float]:
    """Per-span duration minus the summed durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans) -> dict[str, tuple[int, float]]:
    """label -> (calls, total self seconds)."""
    out: dict[str, list] = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {k: (v[0], v[1]) for k, v in out.items()}
