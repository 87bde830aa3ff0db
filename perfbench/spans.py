"""Self times and tiling of Chrome trace-event spans.

A span's children are the spans recorded on the same thread (OCaml domain)
inside its interval; its self time is its duration minus theirs.  Every
cell span must then be tiled exactly by its own self time (the remainder no
stage claims, reported as ``harness.cell_other_ms``) plus the self times of
the spans nested in it.
"""

# Clock rounding in the trace's microsecond floats; far below any span.
EPS_US = 0.01


class Span:
    __slots__ = ("name", "ts", "dur", "tid", "rid", "children", "parent")

    def __init__(self, event):
        self.name = event["name"]
        self.ts = float(event["ts"])
        self.dur = float(event["dur"])
        self.tid = event.get("tid", 0)
        self.rid = (event.get("args") or {}).get("rid")
        self.children = []
        self.parent = None

    @property
    def end(self):
        return self.ts + self.dur

    @property
    def self_time(self):
        return self.dur - sum(c.dur for c in self.children)


class TilingError(Exception):
    pass


def load(trace):
    """Nest the complete ("X") events of a trace document; returns every span."""
    spans = [Span(e) for e in trace.get("traceEvents", []) if e.get("ph") == "X"]
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    for group in by_tid.values():
        group.sort(key=lambda s: (s.ts, -s.dur))
        stack = []
        for s in group:
            while stack and s.ts >= stack[-1].end - EPS_US:
                stack.pop()
            if stack:
                parent = stack[-1]
                if s.end > parent.end + EPS_US:
                    raise TilingError(
                        f"{s.name} at {s.ts:.3f}us overlaps the end of {parent.name}")
                s.parent = parent
                parent.children.append(s)
            stack.append(s)
    return spans


def descendants(span):
    out, todo = [], list(span.children)
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(s.children)
    return out


def check_tiling(spans):
    """Each cell span equals its self time plus the self times of everything
    nested in it; raises TilingError otherwise."""
    for s in spans:
        if not s.name.startswith("cell:"):
            continue
        total = s.self_time + sum(d.self_time for d in descendants(s))
        if s.self_time < -EPS_US or abs(total - s.dur) > EPS_US + 1e-9 * s.dur:
            raise TilingError(
                f"{s.name}: self {s.self_time:.3f}us + nested "
                f"{total - s.self_time:.3f}us != span {s.dur:.3f}us")


def breakdown(spans, main_tid=0):
    """Sums over one trace, in milliseconds: the self time of every stage by
    stage name, the outermost cells' spans, the cells' own remainder, and the
    outermost cells that ran on the main domain."""
    cells = [s for s in spans if s.name.startswith("cell:")]
    top = [c for c in cells
           if not any(a.name.startswith("cell:") for a in ancestors(c))]
    stage_ms = {}
    for s in spans:
        if s.name.startswith("stage:"):
            key = s.name[len("stage:"):]
            stage_ms[key] = stage_ms.get(key, 0.0) + s.self_time / 1e3
    return {
        "cells": len(cells),
        "cell_ms": sum(c.dur for c in top) / 1e3,
        "cell_other_ms": sum(c.self_time for c in cells) / 1e3,
        "stage_ms": stage_ms,
        "main_cell_ms": sum(c.dur for c in top if c.tid == main_tid) / 1e3,
    }


def ancestors(span):
    p = span.parent
    while p is not None:
        yield p
        p = p.parent
