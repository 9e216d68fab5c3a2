"""Spans and counts for the traced run, recorded from outside the library.

``instrument(recorder)`` replaces public functions at the module attribute
their caller resolves (``autovec.enumerate_ball`` is the name
``build_automorphic_field`` looks up, ``surgery.find_zeros`` the one
``numeric_connected_sum`` looks up) with wrappers that open one span per
call, and restores the originals on exit.  Field callables the benchmark
hands to the library go through ``CountingField``, which adds one to the
``evals`` count of the innermost open span.

A span's self time is its duration minus the part of it covered by its
child spans; counts are summed over a span's subtree.
"""

from __future__ import annotations

import contextlib
import time

from surfaceflows import autovec, flowlab, heegaard, surgery

# Per-layer metrics: name -> unit.  Values are per pass (the median over
# the traced passes of a run).
LAYER_METRICS = {
    "moebius.enumerate_ball.calls": "count",
    "moebius.enumerate_ball.s": "s",
    "moebius.enumerate_ball.elements": "count",
    "moebius.enumerate_ball.us_per_element": "us",
    "autovec.field_eval.calls": "count",
    "autovec.field_eval.fail": "count",
    "autovec.field_eval.s": "s",
    "autovec.field_eval.terms": "count",
    "autovec.field_eval.ns_per_term": "ns",
    "autovec.build_automorphic_field.self_s": "s",
    "autovec.equivariance_report.self_s": "s",
    "flowlab.find_zeros.calls": "count",
    "flowlab.find_zeros.evals": "count",
    "flowlab.find_zeros.self_s": "s",
    "flowlab.winding_index.calls": "count",
    "flowlab.winding_index.fail": "count",
    "flowlab.winding_index.evals": "count",
    "flowlab.winding_index.self_s": "s",
    "flowlab.integrate.calls": "count",
    "flowlab.integrate.steps": "count",
    "flowlab.integrate.evals_per_step": "evals/step",
    "flowlab.integrate.s": "s",
    "flowlab.rectify.s": "s",
    "flowlab.rectify.evals": "count",
    "flowlab.covariance_check.s": "s",
    "flowlab.covariance_check.evals": "count",
    "flowlab.zero_yield": "ratio",
    "surgery.numeric_connected_sum.calls": "count",
    "surgery.numeric_connected_sum.fail": "count",
    "surgery.numeric_connected_sum.self_s": "s",
    "heegaard.compose_word.letters": "count",
    "heegaard.compose_word.s": "s",
    "heegaard.compose_word.us_per_letter": "us",
    "heegaard.smith_diagonal.s": "s",
    "heegaard.h1_from_gluing.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Span:
    __slots__ = ("name", "start", "end", "failed", "counts", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.end = start
        self.failed = False
        self.counts: dict[str, int] = {}
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps every span of one pass in memory, nested by call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        span = Span(name, self.clock())
        (self._stack[-1].children if self._stack else self.roots).append(span)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, failed: bool = False) -> None:
        span.end = self.clock()
        span.failed = failed
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, key: str, n: int = 1) -> None:
        if self._stack:
            counts = self._stack[-1].counts
            counts[key] = counts.get(key, 0) + n


def self_time(span: Span) -> float:
    """Duration minus the union of the child spans, clipped to the span."""
    covered = 0.0
    cursor = span.start
    for child in sorted(span.children, key=lambda c: c.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def subtree_count(span: Span, key: str) -> int:
    return span.counts.get(key, 0) + sum(subtree_count(c, key) for c in span.children)


class CountingField:
    """Field callable that counts its evaluations on the innermost span."""

    __slots__ = ("field", "recorder")

    def __init__(self, field, recorder: Recorder):
        self.field = field
        self.recorder = recorder

    def __call__(self, z):
        self.recorder.count("evals")
        return self.field(z)


# ---------------------------------------------------------------------------
# wrappers


def _elements(span, args, result):
    span.counts["elements"] = len(result)


def _terms(span, args, result):
    span.counts["terms"] = 2 * len(args[0].ball)  # numerator and denominator series


def _scan(span, args, result):
    span.counts["kept"] = len(result.zeros)
    span.counts["dropped"] = len(result.dropped)


def _steps(span, args, result):
    span.counts["steps"] = len(result.times) - 1


def _letters(span, args, result):
    span.counts["letters"] = len(args[0])


# (module, attribute, span name, hook run on the result).  Top-level calls
# the benchmark makes and the inner calls named in the layer metrics.
PATCHES = (
    (autovec, "build_automorphic_field", "autovec.build_automorphic_field", None),
    (autovec, "equivariance_report", "autovec.equivariance_report", None),
    (autovec, "enumerate_ball", "moebius.enumerate_ball", _elements),
    (autovec, "field_eval", "autovec.field_eval", _terms),
    (flowlab, "find_zeros", "flowlab.find_zeros", _scan),
    (flowlab, "winding_index", "flowlab.winding_index", None),
    (flowlab, "poincare_hopf_check", "flowlab.poincare_hopf_check", None),
    (flowlab, "integrate", "flowlab.integrate", _steps),
    (flowlab, "rectify", "flowlab.rectify", None),
    (flowlab, "covariance_check", "flowlab.covariance_check", None),
    (surgery, "numeric_connected_sum", "surgery.numeric_connected_sum", None),
    (surgery, "find_zeros", "flowlab.find_zeros", _scan),
    (surgery, "winding_index", "flowlab.winding_index", None),
    (heegaard, "parse_twist_word", "heegaard.parse_twist_word", None),
    (heegaard, "compose_word", "heegaard.compose_word", _letters),
    (heegaard, "h1_from_gluing", "heegaard.h1_from_gluing", None),
    (heegaard, "smith_diagonal", "heegaard.smith_diagonal", None),
)


def traced(recorder: Recorder, name: str, fn, hook=None):
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            recorder.close(span, failed)
        if hook is not None:
            hook(span, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def instrument(recorder: Recorder):
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in PATCHES]
    try:
        for (module, attr, name, hook), (_, _, fn) in zip(PATCHES, saved):
            setattr(module, attr, traced(recorder, name, fn, hook))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _outermost(recorder: Recorder, name: str) -> list[Span]:
    """Spans called ``name`` that have no ancestor of the same name."""
    found = []

    def walk(span, inside):
        hit = span.name == name
        if hit and not inside:
            found.append(span)
        for child in span.children:
            walk(child, inside or hit)

    for root in recorder.roots:
        walk(root, False)
    return found


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Every metric of LAYER_METRICS except trace.overhead_ratio."""
    by_name: dict[str, list[Span]] = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def calls(name):
        return len(spans(name))

    def fails(name):
        return sum(s.failed for s in spans(name))

    def total_s(name):
        return sum(s.duration for s in _outermost(recorder, name))

    def self_s(name):
        return sum(self_time(s) for s in spans(name))

    def count(name, key):
        return sum(subtree_count(s, key) for s in _outermost(recorder, name))

    def per(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    ball_s, elements = total_s("moebius.enumerate_ball"), count("moebius.enumerate_ball", "elements")
    eval_s, terms = total_s("autovec.field_eval"), count("autovec.field_eval", "terms")
    steps = count("flowlab.integrate", "steps")
    kept, dropped = count("flowlab.find_zeros", "kept"), count("flowlab.find_zeros", "dropped")
    word_s, letters = total_s("heegaard.compose_word"), count("heegaard.compose_word", "letters")
    return {
        "moebius.enumerate_ball.calls": calls("moebius.enumerate_ball"),
        "moebius.enumerate_ball.s": ball_s,
        "moebius.enumerate_ball.elements": elements,
        "moebius.enumerate_ball.us_per_element": per(ball_s, elements, 1e6),
        "autovec.field_eval.calls": calls("autovec.field_eval"),
        "autovec.field_eval.fail": fails("autovec.field_eval"),
        "autovec.field_eval.s": eval_s,
        "autovec.field_eval.terms": terms,
        "autovec.field_eval.ns_per_term": per(eval_s, terms, 1e9),
        "autovec.build_automorphic_field.self_s": self_s("autovec.build_automorphic_field"),
        "autovec.equivariance_report.self_s": self_s("autovec.equivariance_report"),
        "flowlab.find_zeros.calls": calls("flowlab.find_zeros"),
        "flowlab.find_zeros.evals": count("flowlab.find_zeros", "evals"),
        "flowlab.find_zeros.self_s": self_s("flowlab.find_zeros"),
        "flowlab.winding_index.calls": calls("flowlab.winding_index"),
        "flowlab.winding_index.fail": fails("flowlab.winding_index"),
        "flowlab.winding_index.evals": count("flowlab.winding_index", "evals"),
        "flowlab.winding_index.self_s": self_s("flowlab.winding_index"),
        "flowlab.integrate.calls": calls("flowlab.integrate"),
        "flowlab.integrate.steps": steps,
        "flowlab.integrate.evals_per_step": per(count("flowlab.integrate", "evals"), steps),
        "flowlab.integrate.s": total_s("flowlab.integrate"),
        "flowlab.rectify.s": total_s("flowlab.rectify"),
        "flowlab.rectify.evals": count("flowlab.rectify", "evals"),
        "flowlab.covariance_check.s": total_s("flowlab.covariance_check"),
        "flowlab.covariance_check.evals": count("flowlab.covariance_check", "evals"),
        "flowlab.zero_yield": per(kept, kept + dropped),
        "surgery.numeric_connected_sum.calls": calls("surgery.numeric_connected_sum"),
        "surgery.numeric_connected_sum.fail": fails("surgery.numeric_connected_sum"),
        "surgery.numeric_connected_sum.self_s": self_s("surgery.numeric_connected_sum"),
        "heegaard.compose_word.letters": letters,
        "heegaard.compose_word.s": word_s,
        "heegaard.compose_word.us_per_letter": per(word_s, letters, 1e6),
        "heegaard.smith_diagonal.s": total_s("heegaard.smith_diagonal"),
        "heegaard.h1_from_gluing.self_s": self_s("heegaard.h1_from_gluing"),
    }


def bypass_errors(workload: str, recorder: Recorder) -> list[str]:
    """Layers a workload must not touch, and a completeness check of the wrappers.

    The completeness check compares two independent counts: evaluations of
    the demo field handed to ``find_zeros`` (CountingField) and
    ``autovec.field_eval`` spans inside ``find_zeros``.  A wrapper that
    misses calls makes them differ.
    """
    names = {s.name for s in recorder.spans}
    layers = {name.split(".")[0] for name in names}
    errors = []
    if workload in ("planar-flows", "twist-h1"):
        errors += [f"{workload} called {layer}" for layer in ("moebius", "autovec")
                   if layer in layers]
    if workload == "twist-h1" and "flowlab" in layers:
        errors.append("twist-h1 called flowlab")
    if workload == "demo-genus2":
        scans = _outermost(recorder, "flowlab.find_zeros")
        handed = sum(subtree_count(s, "evals") for s in scans)
        inner = sum(_count_spans(s, "autovec.field_eval") for s in scans)
        if handed != inner:
            errors.append(f"find_zeros made {handed} field calls but {inner} field_eval spans")
    return errors


def _count_spans(span: Span, name: str) -> int:
    return sum((c.name == name) + _count_spans(c, name) for c in span.children)
