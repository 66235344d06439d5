"""Spans taken from outside the program, around calls into each layer.

`Tracer.install` swaps module attributes of `mapclean` for timing wrappers
(the program's own files are untouched) and `uninstall` puts the originals
back, so untraced runs execute unmodified code. Spans live in memory as
(name, start, end, parent, frame) records and are written out at exit.
Attributes a later version of the program no longer has are skipped; the
accounting check then shows the time they used to cover as unaccounted.
"""

from __future__ import annotations

import gc
import json
import types
from time import perf_counter

import mapclean.ground
import mapclean.io
import mapclean.removal

# (module, attribute, span name): the layer entry points a frame passes through
WRAPPED = (
    (mapclean.removal, "process_frame", "removal.process_frame"),
    (mapclean.removal, "segment_ground_mask", "ground.segment"),
    (mapclean.ground, "build_range_image", "ground.project"),
    (mapclean.ground, "extract_candidates", "ground.walk"),
    (mapclean.ground, "fit_ground_model", "ground.fit"),
    (mapclean.io, "read_scan", "io.read_scan"),
)
# spans whose durations, with the FrameReport splits, must cover `process`
ACCOUNTED = ("ground.segment", "voxmap.map", "removal.rules",
             "runtime.gc_collect", "runtime.gc_freeze")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, frame]
        self.counts = {}         # counter name -> running total
        self.frame = -1
        self._stack = []
        self._saved = []
        self._gc_start = None

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> int:
        # build the record before taking its index: allocating it may run a
        # collection whose callback appends a runtime.gc span first
        rec = [name, 0.0, None, self._stack[-1] if self._stack else -1, self.frame]
        self.spans.append(rec)
        sid = len(self.spans) - 1
        self._stack.append(sid)
        rec[1] = perf_counter()
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> None:
        """A span known only from its bounds, e.g. a FrameReport split."""
        self.spans.append([name, start, end, parent, self.frame])

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.add("runtime.gc", self._gc_start, perf_counter(),
                     self._stack[-1] if self._stack else -1)
            self._gc_start = None

    # -- patching -------------------------------------------------------------

    def _after_walk(self, args, mask):
        img = args[0]
        self.count("ground.in_fov", int((img.point_rows >= 0).sum()))
        self.count("ground.candidates", int(mask.sum()))

    def _after_fit(self, args, result):
        self.count("ground.fit_input", int(args[1].sum()))
        self.count("ground.ground", int(result[0].sum()))

    def install(self) -> None:
        hooks = {"ground.walk": self._after_walk, "ground.fit": self._after_fit}
        for module, attr, name in WRAPPED:
            if hasattr(module, attr):
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, hooks.get(name)))
        if getattr(mapclean.removal, "gc", None) is gc:
            self._saved.append((mapclean.removal, "gc", gc))
            mapclean.removal.gc = types.SimpleNamespace(
                collect=self.wrap("runtime.gc_collect", gc.collect),
                freeze=self.wrap("runtime.gc_freeze", gc.freeze))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- output ---------------------------------------------------------------

    def dump(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, frame) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "frame": frame,
                                     "self": selfs[sid]}) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for sid, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(sid)
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[sid]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def add_report_splits(tracer: Tracer, first_span: int, reports) -> None:
    """Attach FrameReport map/removal splits as children of process_frame.

    The splits follow segmentation: from the end of the ground.segment span
    when one was recorded, otherwise from the start of process_frame plus
    seg_ms (the label-given mask path). Spans are clipped to their parent.
    """
    by_frame = {}
    for sid in range(first_span, len(tracer.spans)):
        name, start, end, parent, frame = tracer.spans[sid]
        if name in ("removal.process_frame", "ground.segment"):
            by_frame.setdefault(frame, {})[name] = sid
    for rep in reports:
        ids = by_frame.get(rep.frame, {})
        pf = ids.get("removal.process_frame")
        if pf is None:
            continue
        pf_start, pf_end = tracer.spans[pf][1:3]
        seg = ids.get("ground.segment")
        t = tracer.spans[seg][2] if seg is not None else pf_start + rep.seg_ms / 1e3
        tracer.frame = rep.frame
        for name, ms in (("voxmap.map", rep.map_ms), ("removal.rules", rep.removal_ms)):
            lo, hi = min(t, pf_end), min(t + ms / 1e3, pf_end)
            tracer.add(name, lo, hi, pf)
            t = hi


def accounting(spans) -> tuple:
    """(accounted seconds, process wall seconds) over all `process` spans."""
    wall = sum(s[2] - s[1] for s in spans if s[0] == "process")
    covered = sum(s[2] - s[1] for s in spans if s[0] in ACCOUNTED)
    return covered, wall


def root_names(spans) -> list:
    """Name of the outermost span enclosing each span (its own name at the top)."""
    out = []
    for name, _, _, parent, _ in spans:
        out.append(name if parent < 0 else out[parent])
    return out


def self_ms_per_frame(spans, frames: int) -> dict:
    """Self time per span name, in milliseconds per frame."""
    out = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        out[name] = out.get(name, 0.0) + 1e3 * own / max(frames, 1)
    return out
