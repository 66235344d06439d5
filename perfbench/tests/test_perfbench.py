"""Tests of the benchmark itself: tail rule, span arithmetic, oracle gate, cache.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import mapclean.ground  # noqa: E402
import mapclean.removal  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from mapclean.removal import OnlinePipeline, RemovalConfig  # noqa: E402
from mapclean.simulate import (Box, DynamicObject, Scenario, SensorModel,  # noqa: E402
                               ground_cfg_for, oracle_classify, render_sequence)


def tiny_scene(seed=0, frames=14):
    rng = np.random.default_rng(seed)
    return Scenario(
        name="tiny", frames=frames,
        sensor=SensorModel(position=[0, 0, 1.7], rows=12, cols=90, max_range=30.0),
        static_objects=[Box([8.03, 3.07, 1.03], [2, 2, 2])],
        dynamic_objects=[DynamicObject(size=[1.6, 1.2, 1.0],
                                       start=[-9.03 + rng.uniform(-1, 1), 1.07, 0.53],
                                       velocity=[0.6, 0, 0], visible=(4, frames - 1))])


# -- tail percentile ----------------------------------------------------------

def test_tail_is_p90_with_at_least_ten_samples_beyond():
    assert stats.tail(list(range(1, 101))) == (90, 90, 10)
    rng = np.random.default_rng(3)
    for n in (stats.MIN_SAMPLES, 157, 600):
        samples = rng.normal(size=n).tolist()
        value, pct, beyond = stats.tail(samples)
        assert pct == 90
        assert beyond == sum(s > value for s in samples) >= stats.MIN_BEYOND
        assert sum(s <= value for s in samples) >= 0.9 * n


def test_tail_is_insensitive_to_a_burst_of_ten_slow_samples():
    steady = [10.0] * 400 + [12.0] * 100
    burst = steady[:-10] + [40.0] * 10
    assert stats.tail(steady)[0] == stats.tail(burst)[0] == 12.0


def test_tail_of_one_sample_is_that_sample():
    assert stats.tail([3.0])[0] == 3.0


# -- span arithmetic ------------------------------------------------------------

def span(name, start, end, parent=-1, frame=0):
    return [name, start, end, parent, frame]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [span("process", 0.0, 10.0),
             span("a", 1.0, 3.0, 0), span("b", 2.0, 5.0, 0),   # overlap 2..3
             span("c", 8.0, 12.0, 0),                          # runs past parent
             span("d", 1.5, 2.0, 1)]                           # grandchild
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])


def test_root_names_and_accounting():
    spans = [span("process", 0.0, 1.0), span("ground.segment", 0.0, 0.4, 0),
             span("runtime.gc", 0.1, 0.2, 1), span("voxmap.map", 0.4, 0.7, 0),
             span("removal.rules", 0.7, 0.9, 0), span("voxmap.export", 1.0, 2.0),
             span("runtime.gc", 1.2, 1.3, 5)]
    assert tracing.root_names(spans) == ["process", "process", "process", "process",
                                         "process", "voxmap.export", "voxmap.export"]
    covered, wall = tracing.accounting(spans)
    assert (covered, wall) == pytest.approx((0.9, 1.0))


def test_report_splits_follow_segmentation_and_stay_in_parent():
    tracer = tracing.Tracer()
    tracer.spans = [span("process", 0.0, 0.100, frame=3),
                    span("removal.process_frame", 0.001, 0.099, 0, frame=3),
                    span("ground.segment", 0.002, 0.040, 1, frame=3)]
    report = SimpleNamespace(frame=3, seg_ms=38.0, map_ms=30.0, removal_ms=40.0)
    tracing.add_report_splits(tracer, 0, [report])
    (_, m0, m1, mp, _), (_, r0, r1, rp, _) = tracer.spans[3:]
    assert (mp, rp) == (1, 1)
    assert (m0, m1) == pytest.approx((0.040, 0.070))
    assert (r0, r1) == pytest.approx((0.070, 0.099))   # clipped at process_frame's end


def test_tracer_wraps_layers_and_restores_them():
    originals = (mapclean.removal.process_frame, mapclean.ground.fit_ground_model,
                 mapclean.removal.gc)
    sc = tiny_scene()
    frames = render_sequence(sc)
    tracer = tracing.Tracer()
    pipe = OnlinePipeline(ground_cfg=ground_cfg_for(sc), gc_freeze_interval=4)
    tracer.install()
    try:
        for f, fr in enumerate(frames):
            tracer.frame = f
            sid = tracer.begin("process")
            pipe.process(fr.scan, fr.pose, f)
            tracer.end(sid)
    finally:
        tracer.uninstall()
    assert (mapclean.removal.process_frame, mapclean.ground.fit_ground_model,
            mapclean.removal.gc) == originals
    tracing.add_report_splits(tracer, 0, pipe.reports)
    names = [s[0] for s in tracer.spans]
    for name in ("removal.process_frame", "ground.segment", "ground.project",
                 "ground.walk", "ground.fit", "voxmap.map", "removal.rules"):
        assert names.count(name) == len(frames), name
    assert names.count("runtime.gc_collect") == len(frames) // 4
    assert 0 < tracer.counts["ground.candidates"] <= tracer.counts["ground.in_fov"]
    assert all(s[2] >= s[1] for s in tracer.spans)


# -- oracle gate ------------------------------------------------------------------

@pytest.fixture(scope="module")
def gated_run():
    sc = tiny_scene()
    frames = render_sequence(sc)
    pipe = OnlinePipeline(ground_cfg=ground_cfg_for(sc))
    for f, fr in enumerate(frames):
        pipe.process(fr.scan, fr.pose, f)
    oracle = oracle_classify(frames, RemovalConfig(), ground_truth_segmentation=False,
                             ground_cfg=ground_cfg_for(sc))
    return pipe, oracle


def test_gate_accepts_pipeline_matching_oracle(gated_run):
    pipe, oracle = gated_run
    assert "dynamic" in oracle.values()
    assert worker.gate_mismatches(pipe.classification(), oracle) == 0


def test_gate_rejects_corrupted_classification(gated_run):
    pipe, oracle = gated_run
    mine = pipe.classification()
    key = next(k for k, v in mine.items() if v == "dynamic")
    flipped = {**mine, key: "static"}
    assert worker.gate_mismatches(flipped, oracle) == 1
    missing = {k: v for k, v in mine.items() if k != key}
    assert worker.gate_mismatches(missing, oracle) == 1
    extra = {**mine, (10**5, 0, 0): "static"}
    assert worker.gate_mismatches(extra, oracle) == 1


def test_failed_gate_fails_every_frame_of_that_pipeline(gated_run):
    pipe, oracle = gated_run
    w = object.__new__(worker.Worker)
    w.oracle, w.failed, w.mismatched_pipelines, w.errors = oracle, 0, 0, []
    w.check(pipe)
    assert (w.failed, w.mismatched_pipelines) == (0, 0)
    corrupted = pipe.classification()
    corrupted[next(k for k, v in corrupted.items() if v == "static")] = "dynamic"
    bad_copy = SimpleNamespace(classification=lambda: corrupted, reports=pipe.reports)
    w.check(bad_copy)
    assert (w.failed, w.mismatched_pipelines) == (len(pipe.reports), 1)


# -- cache ------------------------------------------------------------------------

def test_cache_hits_then_rerenders_on_corruption(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CACHE_DIR", tmp_path)
    monkeypatch.setitem(workloads.SCENES, "street-stationary", lambda seed: tiny_scene(seed))
    entry = workloads.Entry("street-stationary", 5)
    assert entry.prepare() == {"input_cache": "miss", "oracle_cache": "miss",
                               "render_s": pytest.approx(0, abs=60),
                               "oracle_s": pytest.approx(0, abs=60)}
    assert entry.prepare() == {"input_cache": "hit", "oracle_cache": "hit"}
    oracle = entry.oracle()
    assert oracle == oracle_classify(render_sequence(tiny_scene(5)), RemovalConfig(),
                                     ground_truth_segmentation=False,
                                     ground_cfg=ground_cfg_for(tiny_scene(5)))

    data = bytearray((entry.dir / "frames.npz").read_bytes())
    data[-100] ^= 0xFF
    (entry.dir / "frames.npz").write_bytes(bytes(data))
    assert entry.prepare()["input_cache"] == "miss"
    assert entry.oracle() == oracle


def test_same_seed_same_inputs_other_seed_same_amount_of_work():
    for build in workloads.SCENES.values():
        a, b, c = build(7), build(7), build(8)
        assert repr(a) == repr(b)
        assert repr(a) != repr(c)
        assert (len(a.static_objects), len(a.dynamic_objects), a.frames, repr(a.sensor)) == \
            (len(c.static_objects), len(c.dynamic_objects), c.frames, repr(c.sensor))
