"""In-memory span tracer for the public functions of the ``scren`` modules.

The tracer wraps every public function defined in a layer module and rebinds
the wrapper under every ``scren`` module attribute that refers to the
original.  Calls are looked up through module globals at call time, so calls
inside a module, calls from lambdas and closures, and the deferred import in
``tangle.n_tangle_pure`` all reach the wrapper.  Private helpers (leading
underscore) are not wrapped: their time, including the roof objective
closure, lands in the self time of the public caller.

Each span records its key (``layer.function``), parent span, workload call,
start, end, the exception class it raised (if any) and, for ``RoofResult``
returns, ``(starts, converged)``.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
from collections import Counter
from time import perf_counter

# Layers are the package's modules; ``guards`` is only a check and gets no spans.
LAYERS = ("states", "negativity", "roof", "tangle", "monogamy", "wclass", "suites", "cli")
ROOF_KEY = "roof.roof_minimize"

# Span fields, stored as small lists for speed.
KEY, PARENT, CALL, START, END, RAISED, ROOF = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.call = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, roof_result_type):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, stack[-1] if stack else -1, self.call, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter()
                span[RAISED] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = perf_counter()
            if isinstance(result, roof_result_type):
                span[ROOF] = (result.starts, result.converged)
            return result

        return traced

    def install(self) -> None:
        """Rebind every public layer function to its traced wrapper."""
        package = importlib.import_module("scren")
        modules = [package] + [
            importlib.import_module(f"scren.{name}") for name in LAYERS + ("guards",)
        ]
        roof_result_type = importlib.import_module("scren.roof").RoofResult
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj, roof_result_type)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Dump every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, delimiter="\t", lineterminator="\n")
            out.writerow(["index", "key", "parent", "call", "start_s", "end_s", "raised", "roof"])
            for index, span in enumerate(self.spans):
                out.writerow([index, *span[:RAISED], span[RAISED] or "", span[ROOF] or ""])

    def layer_metrics(self, counted_calls: int, items: int) -> dict[str, float]:
        """Per-layer figures from the recorded spans.

        Counts and ratios cover spans of the first ``counted_calls`` workload
        calls, a fixed prefix, so they repeat exactly run to run.  Self times
        are seconds per item over all ``items`` traced.  Times are raw, not
        scaled to the reference speed.
        """
        n = len(self.spans)
        child_time = [0.0] * n
        roof_depth = [0] * n
        for i, span in enumerate(self.spans):
            parent = span[PARENT]
            depth = roof_depth[parent] if parent >= 0 else 0
            roof_depth[i] = depth + (span[KEY] == ROOF_KEY)
            if parent >= 0:
                child_time[parent] += span[END] - span[START]

        calls: Counter = Counter()
        self_s: Counter = Counter()
        roofs = early = unconverged = raised = 0
        depth1_time = []
        depth_calls: Counter = Counter()
        counted_spans = 0
        for i, span in enumerate(self.spans):
            key = span[KEY]
            duration = span[END] - span[START]
            own = duration - child_time[i]
            self_s[key.split(".")[0]] += own
            self_s[key] += own
            if key == ROOF_KEY and roof_depth[i] == 1:
                depth1_time.append(duration)
            if span[CALL] >= counted_calls:
                continue
            counted_spans += 1
            calls[key] += 1
            if key != ROOF_KEY:
                continue
            depth_calls[roof_depth[i]] += 1
            if span[RAISED] == "ConjectureViolation":
                raised += 1
            elif span[ROOF] is not None:
                roofs += 1
                early += span[ROOF][0] == 0
                unconverged += not span[ROOF][1]

        metrics = {f"{layer}.self_s": self_s[layer] / items for layer in LAYERS}
        metrics["roof.hjw_ensemble.self_s"] = self_s["roof.hjw_ensemble"] / items
        metrics["roof.s_per_roof"] = sum(depth1_time) / max(1, len(depth1_time))
        metrics["roof.unconverged_ratio"] = unconverged / max(1, roofs)
        metrics["roof.early_exit_ratio"] = early / max(1, roofs)
        metrics["roof.raised"] = raised
        for depth in (1, 2, 3):
            metrics[f"roof.calls_depth{depth}"] = depth_calls[depth]
        for key in (
            "tangle.one_tangle",
            "tangle.wootters_tangle",
            "states.reduced_density",
            "monogamy.sm_report",
            "negativity.negativity_pure",
            "roof.haar_unitary",
            "roof.hjw_ensemble",
        ):
            metrics[f"{key}.calls"] = calls[key]
        metrics["trace.spans"] = counted_spans
        return metrics
