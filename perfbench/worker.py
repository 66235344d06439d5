"""The measured process: one workload, one closed-loop caller, a fresh interpreter.

`run.py` starts this after the inputs and the oracle are cached. It replays
the workload's frames through `OnlinePipeline.process` the way a SLAM
front-end would, one synchronous call per frame, and prints one JSON object
of raw measurements as its last line. Every pipeline it builds is checked
against the oracle after its frames, off the clock.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mapclean import io as mio  # noqa: E402
from mapclean.evaluation import score  # noqa: E402
from mapclean.removal import OnlinePipeline  # noqa: E402
from mapclean.voxmap import export_static_map  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NUMPY_DOMAIN = 389047  # tracemalloc domain numpy files its data buffers under
BATCHES = 3            # run_s is the median of this many batches, the first one cold
EXPORTS_PER_PASS = 3   # export_ms is the median over passes of this many exports each


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def voxel_count(pipe) -> int:
    st = pipe.state
    return len(st.ground) + len(st.nonground) + len(st.dynamic)


def gate_mismatches(classification: dict, oracle: dict) -> int:
    """Voxels whose class differs from the oracle's; 0 means the run is correct."""
    return sum(1 for k in classification.keys() | oracle.keys()
               if classification.get(k) != oracle.get(k))


class Worker:
    def __init__(self, workload: str, seed: int):
        self.entry = workloads.Entry(workload, seed)
        self.kwargs = workloads.pipeline_kwargs(self.entry.scenario)
        self.oracle = self.entry.oracle()
        self.frames = self.entry.frames()
        self.attempted = 0
        self.failed = 0
        self.mismatched_pipelines = 0
        self.errors = []

    def check(self, pipe) -> None:
        """Oracle gate: a mismatching pipeline fails every frame it processed."""
        bad = gate_mismatches(pipe.classification(), self.oracle)
        if bad:
            self.mismatched_pipelines += 1
            self.failed += len(pipe.reports)
            self.errors.append(f"{bad} voxels differ from the oracle")

    def frame_loop(self, pipe, frames, samples, tracer=None) -> float:
        """One process() call per frame; returns the loop's wall seconds."""
        start = perf_counter()
        for f, scan, pose, mask in frames:
            if tracer is not None:
                tracer.frame = f
                before = voxel_count(pipe)
                sid = tracer.begin("process")
            t0 = perf_counter()
            try:
                pipe.process(scan, pose, f, ground_mask=mask)
            except Exception as exc:  # a frame that raises is a failed operation
                self.failed += 1
                self.errors.append(f"frame {f}: {exc!r}")
            samples.append((perf_counter() - t0) * 1e3)
            if tracer is not None:
                tracer.end(sid)
                tracer.count("voxmap.new_voxels", voxel_count(pipe) - before)
            self.attempted += 1
        return perf_counter() - start

    def batch(self) -> dict:
        """One batch of what `mapclean run` does: load, process, export, write.

        Only the file-replay workload has files to load and a map to write;
        on the others, which stand for a live caller, the batch is process
        plus export. Also measures map_mb and returns the exported map.
        """
        replay = self.entry.workload == workloads.FILE_REPLAY
        out_file = self.entry.dir / "static_map.pcd"
        t0 = perf_counter()
        if replay:
            frames = [(f, cloud, pose, None) for f, cloud, pose in self.entry.read_sequence()]
        else:
            frames = self.frames
        pipe = OnlinePipeline(**self.kwargs)
        rss0 = rss_bytes()
        self.frame_loop(pipe, frames, [])
        rss1 = rss_bytes()
        static_map = export_static_map(pipe.state)
        t2 = perf_counter()
        if replay:
            mio.write_map(out_file, static_map, "ascii-pcd")
        t3 = perf_counter()
        out_file.unlink(missing_ok=True)
        self.check(pipe)
        return {"run_s": t3 - t0, "map_mb": (rss1 - rss0) / 2**20,
                "write_map_s": t3 - t2 if replay else 0.0, "static_map": static_map}

    def quality(self, static_map) -> dict:
        """Voxel-wise PR/RR/F1 of an exported map against the simulator labels."""
        q = score(static_map, *self.entry.ground_truth())
        return {"pr_pct": 100.0 * q.pr, "rr_pct": 100.0 * q.rr, "f1": q.f1,
                "static_voxels": q.static_voxels_total,
                "dynamic_voxels": q.dynamic_voxels_total}

    def rep(self, samples, tracer=None, exports=1) -> tuple:
        """Fresh pipeline over all frames, then exports; returns (loop s, export times, pipe)."""
        pipe = OnlinePipeline(**self.kwargs)
        first = len(tracer.spans) if tracer is not None else 0
        loop_s = self.frame_loop(pipe, self.frames, samples, tracer)
        export = export_static_map if tracer is None else tracer.wrap(
            "voxmap.export", export_static_map)
        export_s = []
        for _ in range(exports):
            t = perf_counter()
            export(pipe.state)
            export_s.append(perf_counter() - t)
        if tracer is not None:
            tracing.add_report_splits(tracer, first, pipe.reports)
        self.check(pipe)
        return loop_s, export_s, pipe

    def measure(self, seconds: float) -> dict:
        batches = [self.batch() for _ in range(BATCHES)]
        cold = batches[0]            # memory and quality come from the cold batch
        out = {"map_mb": cold["map_mb"], "write_map_s": cold["write_map_s"],
               "run_s": stats.median([b["run_s"] for b in batches])}
        out.update(self.quality(cold["static_map"]))
        del batches, cold
        samples, exports = [], []
        loop_total = 0.0
        while loop_total + sum(exports) / 1e3 < seconds or len(samples) < stats.MIN_SAMPLES:
            loop_s, export_s, pipe = self.rep(samples, exports=EXPORTS_PER_PASS)
            del pipe
            loop_total += loop_s
            exports += [1e3 * t for t in export_s]
        value, pct, beyond = stats.tail(samples)
        out.update({"frame_ms.p50": stats.median(samples), "frame_ms.tail": value,
                    "tail_percentile": pct, "tail_beyond": beyond, "samples": len(samples),
                    "frames_per_s": len(samples) / loop_total,
                    "export_ms": stats.median(exports), "reps": len(exports) // EXPORTS_PER_PASS,
                    "frame_samples_ms": samples})
        return out

    def trace(self, seconds: float, dump_dir: Path) -> dict:
        batch_tracer = tracing.Tracer()
        batch_tracer.install()
        batch = self.batch()
        batch_tracer.uninstall()
        io_reads = [s[2] - s[1] for s in batch_tracer.spans if s[0] == "io.read_scan"]

        # alternate untraced and traced reps so drift hits both alike
        tracer = tracing.Tracer()
        fps = {False: [0, 0.0], True: [0, 0.0]}
        reports = []
        while min(fps[False][1], fps[True][1]) < seconds / 2:
            for traced in (False, True):
                if traced:
                    tracer.install()
                loop_s, _, pipe = self.rep([], tracer if traced else None)
                if traced:
                    tracer.uninstall()
                    reports.extend(pipe.reports)
                    st = pipe.state
                    final = {"voxmap.voxels_ground": len(st.ground),
                             "voxmap.voxels_nonground": len(st.nonground),
                             "voxmap.voxels_dynamic": len(st.dynamic),
                             "voxmap.points": sum(m.total_points() for m in
                                                  (st.ground, st.nonground, st.dynamic))}
                del pipe
                fps[traced][0] += len(self.frames)
                fps[traced][1] += loop_s
        tag = f"{self.entry.workload}-s{self.entry.seed}"
        batch_tracer.dump(dump_dir / f"{tag}-batch.jsonl")
        tracer.dump(dump_dir / f"{tag}-frames.jsonl")

        out = layer_metrics(tracer.spans, tracer.counts, reports)
        out.update(final)
        out.update(self.memory_pass())
        covered, wall = tracing.accounting(tracer.spans)
        rate = {k: n / s for k, (n, s) in fps.items()}
        out.update({
            "io.read_scan_ms": 1e3 * stats.median(io_reads),
            "io.write_map_s": batch["write_map_s"],
            "trace.overhead_pct": 100.0 * (1.0 - rate[True] / rate[False]),
            "trace.coverage_pct": 100.0 * covered / wall,
            "self_ms_per_frame": tracing.self_ms_per_frame(tracer.spans, len(reports)),
        })
        return out

    def memory_pass(self) -> dict:
        """Bytes the map holds, from a separate tracemalloc run over all frames."""
        gc.collect()
        tracemalloc.start()
        pipe = OnlinePipeline(**self.kwargs)
        self.frame_loop(pipe, self.frames, [])
        total = tracemalloc.get_traced_memory()[0]
        snap = tracemalloc.take_snapshot()
        tracemalloc.stop()
        arrays = sum(s.size for s in snap.filter_traces(
            [tracemalloc.DomainFilter(True, NUMPY_DOMAIN)]).statistics("filename"))
        st = pipe.state
        points = sum(m.total_points() for m in (st.ground, st.nonground, st.dynamic))
        self.check(pipe)
        return {"voxmap.bytes_per_voxel": (total - arrays) / voxel_count(pipe),
                "voxmap.bytes_per_point": arrays / points}


def layer_metrics(spans, counts, reports) -> dict:
    """Per-frame layer figures from the traced reps' spans, counters and reports.

    Spans and reports pair up in order: each traced frame has one `process`
    span and, unless it raised, one FrameReport.
    """
    frames = len(reports)

    def p50_ms(name):
        return 1e3 * stats.median([s[2] - s[1] for s in spans if s[0] == name])

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    roots = tracing.root_names(spans)
    gc_in_process = [s[2] - s[1] for sid, s in enumerate(spans)
                     if s[0] == "runtime.gc" and roots[sid] == "process"]
    walls = [s[2] - s[1] for s in spans if s[0] == "process"]
    marks = sum(r.appeared_dynamic + r.disappeared_dynamic for r in reports)
    return {
        "ground.project_ms": p50_ms("ground.project"),
        "ground.walk_ms": p50_ms("ground.walk"),
        "ground.fit_ms": p50_ms("ground.fit"),
        "ground.candidate_frac": ratio("ground.candidates", "ground.in_fov"),
        "ground.ground_frac": ratio("ground.ground", "ground.fit_input"),
        "voxmap.insert_ms": stats.median([r.map_ms for r in reports]),
        "voxmap.new_voxels": counts.get("voxmap.new_voxels", 0) / frames,
        "removal.rules_ms": stats.median([r.removal_ms for r in reports]),
        "removal.appeared": stats.mean([r.appeared_dynamic for r in reports]),
        "removal.disappeared": stats.mean([r.disappeared_dynamic for r in reports]),
        "removal.restored": stats.mean([r.restored for r in reports]),
        "removal.restore_ratio": sum(r.restored for r in reports) / marks if marks else 0.0,
        "removal.unreported_ms": stats.mean([1e3 * w - r.total_ms
                                             for w, r in zip(walls, reports)]),
        "runtime.gc_ms": 1e3 * sum(gc_in_process) / frames,
        "runtime.gc_collections": len(gc_in_process) / frames,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    worker = Worker(args.workload, args.seed)
    if args.trace:
        dump_dir = workloads.CACHE_DIR / "traces"
        dump_dir.mkdir(parents=True, exist_ok=True)
        out = worker.trace(args.seconds, dump_dir)
    else:
        out = worker.measure(args.seconds)
    out.update({"attempted": worker.attempted, "failed": worker.failed,
                "mismatched_pipelines": worker.mismatched_pipelines,
                "errors": worker.errors[:20], "frames": len(worker.frames),
                "points_per_frame": stats.mean([len(fr[1]) for fr in worker.frames])})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
