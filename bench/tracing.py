"""Per-layer spans around tunelz's public functions, placed from outside.

``Tracer.installed()`` replaces each layer function at every module
attribute that holds it (``tunelz.corpus.normalize`` as well as
``tunelz.notation.normalize``), so calls the program makes through an
imported name are timed too.  The program itself is not edited.

A span is (layer, start, end, parent span, repetition).  Spans stay in
memory until ``write`` saves them.  A layer's self time is its span's
duration minus the durations of its child spans.  The program is single
threaded and has no queues, so time spent waiting is zero by
construction and is not reported.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import types
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from generate import REJECT_KINDS

LAYERS = (
    "cli.main",
    "corpus.ingest_json_dump",
    "corpus.ingest_abc_files",
    "corpus.analyze",
    "corpus.aggregate",
    "corpus.reports_to_csv",
    "notation.parse_abc",
    "notation.normalize",
    "notation.expand_body",
    "lz.compress_lz77",
    "lz.compress_lz78",
    "lz.decompress",
    "lz.stream_to_text",
    "lz.stream_from_text",
    "lz.stream_to_json",
    "lz.stream_from_json",
    "baseline.estimate_baseline",
    "baseline.normalize_ratio",
)
# Where a NormalizationError leaves the notation layer for the caller.
_REJECTING = ("notation.parse_abc", "notation.normalize")
_COMPRESSORS = ("lz.compress_lz77", "lz.compress_lz78")

PER_LAYER = tuple(
    [
        m
        for layer in LAYERS
        for m in (
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.p50_us", "us", "lower"),
            (f"{layer}.p90_us", "us", "lower"),
        )
    ]
    + [
        ("notation.normalize.accepted_ratio", "ratio", "higher"),
        ("notation.normalize.quavers_out", "count", "higher"),
    ]
    + [(f"notation.rejects.{kind}", "count", "lower") for kind in REJECT_KINDS]
    + [
        ("lz.compress_lz77.tokens_per_symbol", "ratio", "lower"),
        ("lz.compress_lz78.tokens_per_symbol", "ratio", "lower"),
        ("lz.compress_lz77.us_per_symbol", "us", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


class Tracer:
    """Records spans and counts for the layers while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: list[dict[str, int]] = []  # one dict per repetition
        self.rep = -1
        self._stack: list[int] = []
        self._rejection = sys.modules["tunelz.notation"].NormalizationError

    def begin_rep(self) -> None:
        self.rep += 1
        self.counts.append({})

    def _count(self, key: str, amount: int = 1) -> None:
        counts = self.counts[self.rep]
        counts[key] = counts.get(key, 0) + amount

    def _wrap(self, layer_index: int, fn):
        layer = LAYERS[layer_index]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._rejection as err:
                if layer in _REJECTING:
                    self._count(f"rejects.{err.kind.value}")
                raise
            finally:
                spans[index] = (layer_index, start, perf_counter(), parent, self.rep)
                stack.pop()
            if layer == "notation.normalize":
                self._count("accepted")
                self._count("quavers_out", len(result.symbols))
            elif layer in _COMPRESSORS:
                self._count(f"{layer}.tokens", len(result.tokens))
                self._count(f"{layer}.symbols", result.source_length)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every module attribute holding a layer function for its wrapper."""
        wrappers = {}
        for i, layer in enumerate(LAYERS):
            module, name = layer.split(".")
            fn = getattr(sys.modules[f"tunelz.{module}"], name)
            wrappers[fn] = self._wrap(i, fn)
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "tunelz" and not modname.startswith("tunelz."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; per-repetition values are medians over repetitions."""
        reps = self.rep + 1
        own = self.self_times()
        calls = [[0] * len(LAYERS) for _ in range(reps)]
        selfs = [[0.0] * len(LAYERS) for _ in range(reps)]
        durations: list[list[float]] = [[] for _ in LAYERS]
        for (layer, start, end, _, rep), s in zip(self.spans, own):
            calls[rep][layer] += 1
            selfs[rep][layer] += s
            durations[layer].append((end - start) * 1e6)
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = statistics.median(c[i] for c in calls)
            out[f"{layer}.self_s"] = statistics.median(s[i] for s in selfs)
            out[f"{layer}.p50_us"] = percentile(durations[i], 0.5)
            out[f"{layer}.p90_us"] = percentile(durations[i], 0.9)

        def per_rep(key):
            return statistics.median(c.get(key, 0) for c in self.counts)

        def total(key):
            return sum(c.get(key, 0) for c in self.counts)

        rejected = sum(total(f"rejects.{kind}") for kind in REJECT_KINDS)
        attempts = total("accepted") + rejected
        out["notation.normalize.accepted_ratio"] = total("accepted") / attempts if attempts else 0.0
        out["notation.normalize.quavers_out"] = per_rep("quavers_out")
        for kind in REJECT_KINDS:
            out[f"notation.rejects.{kind}"] = per_rep(f"rejects.{kind}")
        for layer in _COMPRESSORS:
            symbols = total(f"{layer}.symbols")
            out[f"{layer}.tokens_per_symbol"] = (
                total(f"{layer}.tokens") / symbols if symbols else 0.0
            )
        symbols = total("lz.compress_lz77.symbols")
        lz77 = LAYERS.index("lz.compress_lz77")
        lz77_self = sum(s[lz77] for s in selfs)
        out["lz.compress_lz77.us_per_symbol"] = lz77_self / symbols * 1e6 if symbols else 0.0
        return out

    def rep_self_totals(self) -> list[float]:
        totals = [0.0] * (self.rep + 1)
        for span, s in zip(self.spans, self.self_times()):
            totals[span[4]] += s
        return totals

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "layers": list(LAYERS),
            "columns": ["layer", "start_s", "end_s", "parent", "rep"],
            "spans": [
                [layer, round(start - origin, 7), round(end - origin, 7), parent, rep]
                for layer, start, end, parent, rep in self.spans
            ],
            "counts": self.counts,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
