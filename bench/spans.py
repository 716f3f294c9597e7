"""Layer timing from outside the package.

A Tracer replaces the public functions of each module, at the names their
callers look up, with wrappers that record one span per call: name, start,
end and parent span. protocol, shots and cli bind their imports with
``from ... import``, so the wrappers go on those bindings; statecore and
meter reach ``gram_matrix`` and ``cross_gram`` through the meter module, so
those are wrapped on the module. A binding the package no longer has is
skipped and named in ``Tracer.skipped``; its metrics read 0 calls. Spans
are kept in flat arrays in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name). A span name is "<layer>.<function>".
WRAPS = (
    ("hardyions.cli", "main", "cli.main"),
    ("hardyions.cli", "run_ideal", "protocol.run_ideal"),
    ("hardyions.cli", "run_weak_gaussian", "protocol.run_weak_gaussian"),
    ("hardyions.cli", "run_third_ion", "protocol.run_third_ion"),
    ("hardyions.cli", "run_strong_comparison", "protocol.run_strong_comparison"),
    ("hardyions.cli", "run_experiment_mc", "shots.run_experiment_mc"),
    ("hardyions.protocol", "run_ideal", "protocol.run_ideal"),
    ("hardyions.protocol", "intermediate_state", "protocol.intermediate_state"),
    ("hardyions.protocol", "weak_values_postselected", "protocol.weak_values_postselected"),
    ("hardyions.protocol", "beamsplitter", "pulses.beamsplitter"),
    ("hardyions.protocol", "annihilation_pulse", "pulses.annihilation_pulse"),
    ("hardyions.protocol", "light_shift_meter", "pulses.light_shift_meter"),
    ("hardyions.protocol", "partial_ccnot", "pulses.partial_ccnot"),
    ("hardyions.protocol", "strong_measurement", "pulses.strong_measurement"),
    ("hardyions.protocol", "apply_unitary", "statecore.apply_unitary"),
    ("hardyions.protocol", "project_internal", "statecore.project_internal"),
    ("hardyions.protocol", "internal_probabilities", "statecore.internal_probabilities"),
    ("hardyions.protocol", "gaussian_mean_x", "meter.gaussian_mean_x"),
    ("hardyions.protocol", "gaussian_second_moment", "meter.gaussian_second_moment"),
    ("hardyions.meter", "gram_matrix", "meter.gram_matrix"),
    ("hardyions.meter", "cross_gram", "meter.cross_gram"),
    ("hardyions.shots", "run_weak_gaussian", "protocol.run_weak_gaussian"),
    ("hardyions.shots", "internal_probabilities", "statecore.internal_probabilities"),
    ("hardyions.shots", "to_grid", "meter.to_grid"),
    ("hardyions.shots", "prepare_experiment", "shots.prepare_experiment"),
    ("hardyions.shots", "draw_batch", "shots.draw_batch"),
    ("hardyions.shots", "merge_shot_totals", "shots.merge_shot_totals"),
)

LAYERS = ("cli", "protocol", "pulses", "statecore", "meter", "shots")


class Tracer:
    """Spans and boundary counters of the traced commands of one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.shots_drawn = 0
        self.shots_accepted = 0
        self.kept_bytes = 0
        self.skipped: set[str] = set()

    def _wrap(self, fn, name: str):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            self._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args, result) -> None:
        if name == "shots.draw_batch":
            self.shots_drawn += args[2]
            self.shots_accepted += len(result[1])
        elif name == "shots.run_experiment_mc" and isinstance(result, tuple):
            # computed from the sizes of the arrays kept for the per-shot writer
            self.kept_bytes += result[1].nbytes + result[2].nbytes

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in WRAPS that exists for the duration of the block, then restore it."""
        saved = []
        try:
            for module_name, attr, name in WRAPS:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.skipped.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time."""
        n = len(self.start)
        if n == 0:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        calls = np.bincount(ids, minlength=len(self.names))
        total = np.bincount(ids, weights=dur, minlength=len(self.names))
        own = np.bincount(ids, weights=self_time, minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write the spans as CSV: name, start, end, parent (row index, -1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n"
                )
