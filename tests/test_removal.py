import copy

import numpy as np
import pytest

from conftest import rendered
from mapclean.errors import ContractError, MapCleanError
from mapclean.ground import build_range_image, extract_candidates, fit_ground_model
from mapclean.io import PointCloud, range_mask, transform_to_world
from mapclean.removal import (OnlinePipeline, RemovalConfig, _downward,
                              _restore, _upward, process_frame)
from mapclean.simulate import (DynamicObject, Scenario, SensorModel, ground_cfg_for,
                               ground_mask_from_labels, render_sequence)
from mapclean.voxmap import (DYNAMIC, GROUND, NONGROUND, MapState,
                             cells_in_range, pack_key, unpack_key, unpack_keys,
                             voxel_keys)

VOX = 0.2
CFG = RemovalConfig()


CLASS = {"ground": GROUND, "nonground": NONGROUND, "dynamic": DYNAMIC}


def insert_keys(state, submap, keys, f, n_points=1):
    """n_points points in each of the given cells of a submap, at frame f."""
    table = state.ground_table if submap == "ground" else state.object_table
    packed = np.repeat([pack_key(k) for k in keys], n_points).astype(np.int64)
    table.insert(packed, np.zeros((len(packed), 3)), f, CLASS[submap])


def seed_voxel(state, submap, key, frames, n_points=1):
    """Insert n_points into one voxel of a submap at each of the given frames."""
    for f in sorted(set(frames)):
        insert_keys(state, submap, [key], f, n_points)


def _ids(table, keys):
    ids = table.find(np.array([pack_key(k) for k in keys], dtype=np.int64))
    return ids[ids >= 0]


def _keys(table, ids):
    return sorted(unpack_key(int(pk)) for pk in table.key[ids])


def downward(state, keys, cfg=CFG):
    """Appear rule over the touched non-ground keys; returns the marked keys."""
    obj = state.object_table
    ids = _ids(obj, keys)
    ids = ids[obj.cls[ids] == NONGROUND]
    steps = cells_in_range(cfg.vertical_range, state.voxel_size)
    return _keys(obj, _downward(state, ids, steps, cfg.tau_ret))


def upward(state, ground_keys, cfg=CFG):
    """Disappear rule over the touched ground keys; returns the marked keys."""
    steps = cells_in_range(cfg.vertical_range, state.voxel_size)
    marked = _upward(state, _ids(state.ground_table, ground_keys), steps, cfg.tau_ret)
    return _keys(state.object_table, marked)


def restore(state, dynamic_keys, cfg=CFG):
    """Restoration over the touched dynamic keys; returns the restored keys."""
    steps = cells_in_range(cfg.vertical_range, state.voxel_size)
    restored = _restore(state, _ids(state.object_table, dynamic_keys), steps, cfg.tau_res)
    return _keys(state.object_table, restored)


# -- appear rule -------------------------------------------------------------

def test_downward_marks_late_object_over_old_ground():
    state = MapState(voxel_size=VOX)
    seed_voxel(state, "ground", (0, 0, 0), [2])
    seed_voxel(state, "nonground", (0, 0, 4), [12])   # 12 - 2 = 10 > 7
    marked = downward(state, [(0, 0, 4)])
    assert marked == [(0, 0, 4)]
    assert (0, 0, 4) in state.dynamic
    assert (0, 0, 4) not in state.nonground


def test_downward_simultaneous_appearance_not_marked():
    state = MapState(voxel_size=VOX)
    seed_voxel(state, "ground", (0, 0, 0), [0])
    seed_voxel(state, "nonground", (0, 0, 3), [0])
    assert downward(state, [(0, 0, 3)]) == []


def test_downward_gap_exactly_tau_not_marked():
    state = MapState(voxel_size=VOX)
    seed_voxel(state, "ground", (0, 0, 0), [0])
    seed_voxel(state, "nonground", (0, 0, 3), [7])    # 7 - 0 == tau_ret
    assert downward(state, [(0, 0, 3)]) == []
    seed_voxel(state, "nonground", (1, 0, 3), [8])    # 8 - 0 > tau_ret
    assert downward(state, [(1, 0, 3)]) == []  # no ground below
    seed_voxel(state, "ground", (1, 0, 0), [0])
    # ground below appeared later than the object: still compares mins
    assert downward(state, [(1, 0, 3)]) == [(1, 0, 3)]


def test_downward_no_ground_below_untouched():
    state = MapState(voxel_size=VOX)
    seed_voxel(state, "nonground", (0, 0, 40), [50])
    assert downward(state, [(0, 0, 40)]) == []
    assert (0, 0, 40) in state.nonground


def test_downward_uses_first_ground_below():
    state = MapState(voxel_size=VOX)
    seed_voxel(state, "ground", (0, 0, 2), [10])   # nearer, newer
    seed_voxel(state, "ground", (0, 0, 0), [0])    # farther, older
    seed_voxel(state, "nonground", (0, 0, 4), [12])
    # first hit is (0,0,2): 12 - 10 = 2 <= 7, so not marked even though the
    # deeper voxel would satisfy the gap
    assert downward(state, [(0, 0, 4)]) == []


# -- disappear rule ----------------------------------------------------------

def test_upward_marks_stale_voxel():
    state = MapState(voxel_size=VOX)
    seed_voxel(state, "ground", (0, 0, 0), [0, 30])
    seed_voxel(state, "nonground", (0, 0, 2), [0, 10])   # 30 - 10 = 20 > 7
    marked = upward(state, [(0, 0, 0)])
    assert marked == [(0, 0, 2)]
    assert (0, 0, 2) in state.dynamic


def test_upward_co_observed_never_marked():
    state = MapState(voxel_size=VOX)
    for f in range(20):
        seed_voxel(state, "ground", (0, 0, 0), [f])
        seed_voxel(state, "nonground", (0, 0, 2), [f])
    assert upward(state, [(0, 0, 0)]) == []


def test_upward_checks_all_voxels_above():
    state = MapState(voxel_size=VOX)
    seed_voxel(state, "ground", (0, 0, 0), [0, 40])
    seed_voxel(state, "nonground", (0, 0, 1), [0, 39])   # gap 1: stays
    seed_voxel(state, "nonground", (0, 0, 9), [0, 10])   # gap 30: marked
    seed_voxel(state, "nonground", (0, 0, 15), [0, 10])  # gap 30: marked (step 15)
    seed_voxel(state, "nonground", (0, 0, 16), [0, 10])  # out of range: stays
    marked = upward(state, [(0, 0, 0)])
    assert marked == [(0, 0, 9), (0, 0, 15)]


# -- restoration -------------------------------------------------------------

def test_restoration_similar_counts_restores():
    state = MapState(voxel_size=VOX)
    seed_voxel(state, "ground", (0, 0, 0), range(50))
    seed_voxel(state, "dynamic", (0, 0, 3), range(10, 50))   # |50 - 40| = 10 < 15
    restored = restore(state, [(0, 0, 3)])
    assert restored == [(0, 0, 3)]
    assert (0, 0, 3) in state.nonground


def test_restoration_dissimilar_counts_stay():
    state = MapState(voxel_size=VOX)
    seed_voxel(state, "ground", (0, 0, 0), range(50))
    seed_voxel(state, "dynamic", (0, 0, 3), [1, 2, 3])       # |50 - 3| = 47 >= 15
    assert restore(state, [(0, 0, 3)]) == []
    assert (0, 0, 3) in state.dynamic


def test_restoration_difference_exactly_tau_stays():
    state = MapState(voxel_size=VOX)
    seed_voxel(state, "ground", (0, 0, 0), range(30))
    seed_voxel(state, "dynamic", (0, 0, 3), range(15, 30))   # |30 - 15| == 15
    assert restore(state, [(0, 0, 3)]) == []


def test_restoration_absolute_difference():
    state = MapState(voxel_size=VOX)
    seed_voxel(state, "ground", (0, 0, 0), range(5))
    seed_voxel(state, "dynamic", (0, 0, 3), range(12))       # |5 - 12| = 7 < 15
    assert restore(state, [(0, 0, 3)]) == [(0, 0, 3)]


# -- brute-force equivalence on arbitrary map states --------------------------
#
# A random state is drawn as a plain model, submap -> {key: set of frames},
# and the brute-force rules read only that model.

def _first_ground_below(model, key, steps):
    i, j, k = key
    return next(((i, j, k - s) for s in range(1, steps + 1)
                 if (i, j, k - s) in model["ground"]), None)


def brute_downward(model, u_keys, cfg):
    steps = cells_in_range(cfg.vertical_range, VOX)
    marked = set()
    for key in set(u_keys):
        if key in model["dynamic"] or key not in model["nonground"]:
            continue
        gkey = _first_ground_below(model, key, steps)
        if gkey is None:
            continue
        if min(model["nonground"][key]) - min(model["ground"][gkey]) > cfg.tau_ret:
            marked.add(key)
    return marked


def brute_upward(model, g_keys, cfg):
    steps = cells_in_range(cfg.vertical_range, VOX)
    marked = set()
    for gkey in set(g_keys):
        if gkey not in model["ground"]:
            continue
        gmax = max(model["ground"][gkey])
        i, j, k = gkey
        for s in range(1, steps + 1):
            key = (i, j, k + s)
            if key in model["nonground"]:
                if gmax - max(model["nonground"][key]) > cfg.tau_ret:
                    marked.add(key)
    return marked


def random_model(rng, n_voxels=400):
    model = {"ground": {}, "nonground": {}, "dynamic": {}}
    for _ in range(n_voxels):
        key = (int(rng.integers(-4, 4)), int(rng.integers(-4, 4)),
               int(rng.integers(-10, 25)))
        frames = set(rng.integers(0, 60, size=rng.integers(1, 6)).tolist())
        which = rng.random()
        if which < 0.4:
            model["ground"].setdefault(key, set()).update(frames)
        elif key in model["dynamic"] or key in model["nonground"]:
            continue
        elif which < 0.8:
            model["nonground"][key] = frames
        else:
            model["dynamic"][key] = frames
    return model


def state_of(model):
    """The map state holding the model, built one frame at a time."""
    state = MapState(voxel_size=VOX)
    for f in range(60):
        for submap, voxels in model.items():
            insert_keys(state, submap, [k for k, frames in voxels.items() if f in frames], f)
    return state


@pytest.mark.parametrize("seed", range(5))
def test_retrieval_matches_brute_force_on_random_states(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    state = state_of(model)
    u_keys = [k for k in model["nonground"] if rng.random() < 0.5] + [(0, 0, 50)]
    g_keys = [k for k in model["ground"] if rng.random() < 0.5]

    expect_down = brute_downward(model, u_keys, CFG)
    assert set(downward(state, u_keys)) == expect_down

    # brute result must discount voxels the appear rule already moved
    expect_up = brute_upward(model, g_keys, CFG) - expect_down
    assert set(upward(state, g_keys)) == expect_up


@pytest.mark.parametrize("seed", range(3))
def test_raising_tau_shrinks_marked_set(seed):
    rng = np.random.default_rng(100 + seed)
    model = random_model(rng)
    base = state_of(model)
    prev = None
    for tau in (1, 3, 7, 15, 31):
        state = copy.deepcopy(base)
        cfg = RemovalConfig(tau_ret=tau)
        marked = set(downward(state, list(model["nonground"]), cfg))
        marked |= set(upward(state, list(model["ground"]), cfg))
        if prev is not None:
            assert marked <= prev
        prev = marked


# -- frame pipeline ----------------------------------------------------------

def small_scene(dynamic=None, frames=40):
    return Scenario(
        frames=frames,
        sensor=SensorModel(position=[0, 0, 1.7], rows=16, cols=100, max_range=25.0),
        dynamic_objects=dynamic or [])


def run_frames(frames, cfg=None):
    pipe = OnlinePipeline(voxel_size=VOX, removal_cfg=cfg or CFG)
    for f, fr in enumerate(frames):
        pipe.process(fr.scan, fr.pose, f,
                     ground_mask=ground_mask_from_labels(fr.labels))
    return pipe


def test_static_scene_marks_nothing():
    frames = render_sequence(small_scene())
    pipe = run_frames(frames)
    assert sum(r.appeared_dynamic + r.disappeared_dynamic
               for r in pipe.reports) == 0
    assert len(pipe.state.dynamic) == 0


def test_late_object_lands_in_dynamic_by_deadline():
    obj = DynamicObject(size=[1.0, 1.0, 1.0], start=[5.0, 0.0, 0.9],
                        velocity=[0.3, 0.0, 0.0], visible=(20, 39))
    frames = render_sequence(small_scene([obj]))
    pipe = OnlinePipeline(voxel_size=VOX, removal_cfg=CFG)
    for f, fr in enumerate(frames[:29]):
        pipe.process(fr.scan, fr.pose, f,
                     ground_mask=ground_mask_from_labels(fr.labels))
    # object entered at 20 over ground seen since 0: dynamic by frame 28
    assert len(pipe.state.dynamic) > 0


def test_departed_object_swept_after_gap():
    obj = DynamicObject(size=[1.5, 1.5, 1.0], start=[5.0, 0.0, 0.9],
                        velocity=[0.0, 0.0, 0.0], visible=(0, 10))
    frames = render_sequence(small_scene([obj]))
    pipe = run_frames(frames)
    first_marked = next((r.frame for r in pipe.reports
                         if r.disappeared_dynamic > 0), None)
    assert first_marked is not None
    # the revealed ground needs tau_ret frames of lead over the stale voxels
    assert first_marked > 10 + CFG.tau_ret


def test_conservation_and_disjointness_each_frame():
    obj = DynamicObject(size=[1.0, 1.0, 1.0], start=[4.0, 1.0, 0.9],
                        velocity=[0.25, 0.0, 0.0], visible=(10, 35))
    frames = render_sequence(small_scene([obj]))
    pipe = OnlinePipeline(voxel_size=VOX, removal_cfg=CFG)
    inserted = 0
    for f, fr in enumerate(frames):
        pipe.process(fr.scan, fr.pose, f,
                     ground_mask=ground_mask_from_labels(fr.labels))
        inserted += len(fr.scan)
        state = pipe.state
        total = (state.ground.total_points() + state.nonground.total_points()
                 + state.dynamic.total_points())
        assert total == inserted
        for table in (state.ground_table, state.object_table):
            assert len(np.unique(table.key)) == len(table)   # one row per key


def test_frames_must_increase():
    frames = render_sequence(small_scene(frames=2))
    state = MapState(voxel_size=VOX)
    process_frame(frames[0].scan, frames[0].pose, 5, state,
                  ground_mask=ground_mask_from_labels(frames[0].labels))
    before = state.ground.total_points()
    with pytest.raises(ContractError):
        process_frame(frames[1].scan, frames[1].pose, 5, state,
                      ground_mask=ground_mask_from_labels(frames[1].labels))
    assert state.ground.total_points() == before  # no mutation happened


def test_ground_mask_length_checked():
    frames = render_sequence(small_scene(frames=1))
    state = MapState(voxel_size=VOX)
    with pytest.raises(ContractError):
        process_frame(frames[0].scan, frames[0].pose, 0, state,
                      ground_mask=np.zeros(3, dtype=bool))


def test_report_counts_match_key_lists():
    obj = DynamicObject(size=[1.0, 1.0, 1.0], start=[4.0, 1.0, 0.9],
                        velocity=[0.3, 0.0, 0.0], visible=(12, 30))
    frames = render_sequence(small_scene([obj]))
    pipe = run_frames(frames)
    for r in pipe.reports:
        assert r.appeared_dynamic == len(r.appeared_keys)
        assert r.disappeared_dynamic == len(r.disappeared_keys)
        assert r.restored == len(r.restored_keys)
        assert r.seg_ms >= 0 and r.total_ms >= 0


def test_points_only_accrue_current_frame_index():
    frames = render_sequence(small_scene(frames=3))
    pipe = run_frames(frames)
    seen = {"ground": {}, "object": {}}
    for f, fr in enumerate(frames):
        world = fr.scan.xyz @ fr.pose.rotation.T + fr.pose.translation
        ground = ground_mask_from_labels(fr.labels)
        for name, sel in (("ground", ground), ("object", ~ground)):
            for key in map(tuple, voxel_keys(world[sel], VOX).tolist()):
                seen[name].setdefault(key, set()).add(f)
    for name, table in (("ground", pipe.state.ground_table),
                        ("object", pipe.state.object_table)):
        got = {tuple(k): stats for k, *stats in zip(
            unpack_keys(table.key).tolist(), table.first.tolist(),
            table.last.tolist(), table.count.tolist())}
        assert got == {k: [min(fs), max(fs), len(fs)] for k, fs in seen[name].items()}


# -- atomic frames -------------------------------------------------------------

def snapshot(state):
    """Copies of everything the map holds."""
    out = [state.last_frame]
    for t in (state.ground_table, state.object_table):
        out += [a.copy() for a in (t.key, t.first, t.last, t.count, t.cls,
                                   t._sorted, t._ids, *t.points())]
    return out


def assert_unchanged(before, state):
    after = snapshot(state)
    assert after[0] == before[0]
    for a, b in zip(before[1:], after[1:]):
        np.testing.assert_array_equal(a, b)


def started_pipeline():
    """A pipeline two frames in, and the third frame of its scene."""
    obj = DynamicObject(size=[1.0, 1.0, 1.0], start=[4.0, 1.0, 0.9],
                        velocity=[0.25, 0.0, 0.0], visible=(0, 2))
    frames = render_sequence(small_scene([obj], frames=3))
    pipe = run_frames(frames[:2])
    return pipe, frames[2]


def test_integer_ground_mask_rejected_and_state_unchanged():
    pipe, fr = started_pipeline()
    before = snapshot(pipe.state)
    mask = ground_mask_from_labels(fr.labels)
    with pytest.raises(ContractError):
        pipe.process(fr.scan, fr.pose, 2, ground_mask=mask.astype(int))
    assert_unchanged(before, pipe.state)
    pipe.process(fr.scan, fr.pose, 2, ground_mask=mask)   # a retry counts once
    for table in (pipe.state.ground_table, pipe.state.object_table):
        assert len(table) and (table.count <= 3).all()


@pytest.mark.parametrize("labels", [True, False])
def test_nan_point_rejected_and_state_unchanged(labels):
    pipe, fr = started_pipeline()
    before = snapshot(pipe.state)
    xyz = fr.scan.xyz.copy()
    xyz[len(xyz) // 2] = [np.nan, 0.0, 0.0]
    mask = ground_mask_from_labels(fr.labels) if labels else None
    with pytest.raises(ContractError):
        pipe.process(PointCloud(xyz), fr.pose, 2, ground_mask=mask)
    assert_unchanged(before, pipe.state)


def test_frame_index_beyond_int32_rejected_and_state_unchanged():
    pipe, fr = started_pipeline()
    before = snapshot(pipe.state)
    with pytest.raises(ContractError):
        pipe.process(fr.scan, fr.pose, 2**31, ground_mask=ground_mask_from_labels(fr.labels))
    assert_unchanged(before, pipe.state)


def test_cell_outside_grid_rejected_and_state_unchanged():
    pipe, fr = started_pipeline()
    before = snapshot(pipe.state)
    xyz = fr.scan.xyz.copy()
    xyz[-1] = [0.0, 0.0, 0.2 * (1 << 20) + 1.0]   # one cell above the packable range
    with pytest.raises(MapCleanError):
        pipe.process(PointCloud(xyz), fr.pose, 2,
                     ground_mask=ground_mask_from_labels(fr.labels))
    assert_unchanged(before, pipe.state)


def test_float32_cloud_computes_as_its_float64_widening():
    """Math reads points as float64, so a float32 cloud gives the same range
    image, candidates, GroundModel, world points, tables and reports as the
    same points widened to float64."""
    sc, frames = rendered("suddenly-appear")
    cfg = ground_cfg_for(sc)
    narrow_pipe = OnlinePipeline(VOX, ground_cfg=cfg)
    wide_pipe = OnlinePipeline(VOX, ground_cfg=cfg)
    for f, fr in enumerate(frames):
        xyz = fr.scan.xyz.astype(np.float32)
        narrow, wide = PointCloud(xyz), PointCloud(xyz.astype(np.float64))
        assert narrow.xyz.dtype == np.float32
        imgs = [build_range_image(c, cfg.rows, cfg.cols, cfg.fov_up_deg, cfg.fov_down_deg)
                for c in (narrow, wide)]
        for name in ("point_index", "point_rows", "point_cols"):
            np.testing.assert_array_equal(getattr(imgs[0], name), getattr(imgs[1], name))
        cand = extract_candidates(imgs[0], narrow, cfg.angle_threshold_deg)
        np.testing.assert_array_equal(
            cand, extract_candidates(imgs[1], wide, cfg.angle_threshold_deg))
        (mask, model), (wide_mask, wide_model) = (fit_ground_model(c, cand, cfg)
                                                  for c in (narrow, wide))
        np.testing.assert_array_equal(mask, wide_mask)
        for name in ("normals", "offsets", "has_plane"):
            got, want = getattr(model, name), getattr(wide_model, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert model.normals.dtype == np.float64
        world = transform_to_world(narrow, fr.pose).xyz
        assert world.dtype == np.float64
        np.testing.assert_array_equal(world, transform_to_world(wide, fr.pose).xyz)
        np.testing.assert_array_equal(range_mask(narrow.xyz, 1.0, 30.0),
                                      range_mask(wide.xyz, 1.0, 30.0))
        got, want = narrow_pipe.process(narrow, fr.pose, f), wide_pipe.process(wide, fr.pose, f)
        for name in ("frame", "appeared_dynamic", "disappeared_dynamic", "restored",
                     "appeared_keys", "disappeared_keys", "restored_keys"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert_unchanged(snapshot(wide_pipe.state), narrow_pipe.state)
    assert narrow_pipe.classification() == wide_pipe.classification()
