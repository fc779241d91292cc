"""Per-layer spans for the traced run.

polyrep's modules call each other's public functions through module
globals, looked up at call time. `installed` replaces every global that
names a traced function with a wrapper, in every loaded polyrep module, and
puts the originals back on exit; no file under src/ changes.

A span records its duration and subtracts it from its parent's self time,
so a layer's self time is its duration minus the time its traced callees
cover. Counters only count calls: they wrap functions called in hot loops
(one collision test, one color), whose time stays in their caller's self
time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


def _distinct_colors(args, result):
    scene = args[0]
    colors = set()
    for mark in (*scene.marks, *scene.decorations):
        for attr in ("color", "fill", "stroke"):
            c = getattr(mark, attr, None)
            if c is not None:
                colors.add(c)
    return {"colors": len(colors)}


def _complete_pairs(args, result):
    return {"tones": sum(1 for x, y in zip(args[0], args[1]) if x is not None and y is not None)}


# span name -> (module, function, size hook or None). A size hook maps the
# call's positional arguments and result to counts added under the span.
SPANS = {
    "cli.main": ("polyrep.cli", "main", None),
    "chartspec.parse_spec": ("polyrep.chartspec", "parse_spec", None),
    "chartspec.load_dataset": ("polyrep.chartspec", "load_dataset", None),
    "dataset.parse_csv": ("polyrep.dataset", "parse_csv", lambda a, r: {"rows": r.n_rows}),
    "stats.bar_counts": ("polyrep.stats", "bar_counts", None),
    "stats.histogram": ("polyrep.stats", "histogram", None),
    "stats.box_stats": ("polyrep.stats", "box_stats", None),
    "stats.linear_fit": ("polyrep.stats", "linear_fit", None),
    "stats.nice_ticks": ("polyrep.stats", "nice_ticks", None),
    "scene.layout": ("polyrep.scene", "layout", lambda a, r: {"marks": len(r.marks)}),
    "verbalize.auto_alt": ("polyrep.verbalize", "auto_alt", None),
    "svgout.emit_svg": ("polyrep.svgout", "emit_svg", None),
    "svgout.cvd_grid": ("polyrep.svgout", "cvd_grid", _distinct_colors),
    "tactile.tactualize": (
        "polyrep.tactile", "tactualize",
        lambda a, r: {"pages": 1, "strokes": len(r.strokes), "dots": len(r.dots)},
    ),
    "tactile.emit_pdf": ("polyrep.tactile", "emit_pdf", None),
    "braille.to_braille": ("polyrep.braille", "to_braille", None),
    "pdfwrite.build_pdf": ("polyrep.pdfwrite", "build_pdf", lambda a, r: {"bytes": len(r)}),
    "sonify.sonify_points": ("polyrep.sonify", "sonify_points", _complete_pairs),
    "sonify.sonify_sweep": ("polyrep.sonify", "sonify_sweep", None),
    "sonify.write_wav": ("polyrep.sonify", "write_wav", None),
}

COUNTERS = {
    "color.simulate_cvd": ("polyrep.color", "simulate_cvd"),
    "tactile.dot_touches_stroke": ("polyrep.tactile", "dot_touches_stroke"),
}


class Tracer:
    """Self time (ns), calls and size counts per span name."""

    def __init__(self):
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[int]] = []  # per open span: ns its children cover

    def span(self, name, fn, hook=None):
        stack, self_ns, calls, counts = self._stack, self.self_ns, self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0]
            stack.append(children)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_ns[name] += dur - children[0]
                calls[name] += 1
            if hook is not None:
                for key, n in hook(args, result).items():
                    counts[f"{name}.{key}"] += n
            return result

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every traced polyrep function through `tracer` while open."""
    wrappers = {}
    for name, (module, func, hook) in SPANS.items():
        fn = getattr(importlib.import_module(module), func)
        wrappers[id(fn)] = (fn, tracer.span(name, fn, hook))
    for name, (module, func) in COUNTERS.items():
        fn = getattr(importlib.import_module(module), func)
        wrappers[id(fn)] = (fn, tracer.counter(name, fn))
    patched = []
    modules = [m for n, m in list(sys.modules.items()) if n == "polyrep" or n.startswith("polyrep.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
