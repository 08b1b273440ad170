"""
Spans around the library's layer boundaries, installed from outside the
library.

Each boundary is a module attribute that some caller looks up at call time,
so a wrapper placed on that attribute sees every call made through it.  Names
that a module imported by name (``criteria`` imports ``link_data`` and
``maximum_matching``) are patched on the importing module, because that is
where its functions look them up.

A span is ``(layer, start, end, parent, tag)``: ``parent`` is the index of the
enclosing span or -1, ``tag`` an optional label read off the result (how a
gls decision was proved, whether the strong-matching search succeeded).
Spans stay in memory and are reduced to per-layer numbers at the end.
"""

from __future__ import annotations

import functools
import time

# (module, attribute, layer, tag of the result)
BOUNDARIES = [
    ("criteria", "is_balanced", "criteria.balanced", None),
    ("criteria", "has_forbidden_type", "criteria.pattern", None),
    ("criteria", "kl_criterion", "criteria.kl_one", None),
    ("criteria", "gls_check", "criteria.gls", lambda out: out[1].method),
    ("criteria", "find_strong_matching", "criteria.gls.search", lambda out: out is not None),
    ("criteria", "link_data", "multiseg.link_data", None),
    ("criteria", "maximum_matching", "matching.maximum_matching", None),
    ("multiseg", "link_data", "multiseg.link_data", None),
    ("multiseg", "maximum_matching", "matching.maximum_matching", None),
    ("multiseg", "involution", "multiseg.transform", None),
    ("multiseg", "dual", "multiseg.transform", None),
    ("multiseg", "left_derivative", "multiseg.transform", None),
    ("multiseg", "right_derivative", "multiseg.transform", None),
    ("perm", "smooth_pair_data", "perm.smooth_pair_data", None),
    ("biseq", "factorize", "biseq.factorize", None),
    ("biseq", "sigma0", "biseq.sigma0", None),
    ("klpoly", "kl_at_one", "klpoly.kl_at_one", None),
    ("klidentity", "verify_klidnt", "klidentity.verify_klidnt", None),
]

# layers whose span durations are kept for percentiles
TIMED_LAYERS = ("criteria.kl_one", "criteria.gls", "klidentity.verify_klidnt")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, tag=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (layer, start, clock(), parent, "error")
                raise
            finally:
                stack.pop()
            spans[sid] = (layer, start, clock(), parent, tag(out) if tag else None)
            return out

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every boundary; ``modules`` maps short names to module objects."""
        for mod, attr, layer, tag in BOUNDARIES:
            setattr(modules[mod], attr, self.wrap(layer, getattr(modules[mod], attr), tag))

    def summary(self) -> dict:
        """
        Per layer: ``calls`` and ``busy_s`` over the outermost spans of the
        layer (a span nested in a span of its own layer is part of that one),
        ``self_s`` (duration minus the time covered by direct children), counts
        per tag, and for the layers in ``TIMED_LAYERS`` the outermost
        durations.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for sid, (layer, start, end, parent, tag) in enumerate(spans):
            rec = out.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "tags": {}})
            rec["self_s"] += (end - start) - child_time[sid]
            p = parent
            while p >= 0 and spans[p][0] != layer:
                p = spans[p][3]
            if p >= 0:
                continue
            rec["calls"] += 1
            rec["busy_s"] += end - start
            if layer in TIMED_LAYERS:
                rec.setdefault("durations", []).append(end - start)
            if tag is not None:
                key = str(tag)
                rec["tags"][key] = rec["tags"].get(key, 0) + 1
                if key == "rank":
                    rec["rank_s"] = rec.get("rank_s", 0.0) + (end - start)
        return out

