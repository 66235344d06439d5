import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mapclean.errors import ContractError
from mapclean.removal import OnlinePipeline
from mapclean.voxmap import (DYNAMIC, GROUND, NONGROUND, MapState, VoxelTable,
                             cells_in_range, dump_csv, export_dynamic_map,
                             export_static_map, pack_key, pack_keys, unpack_key,
                             unpack_keys, voxel_keys)

EDGE = 1 << 20   # grid indices live in [-EDGE, EDGE)


def insert_points(table, pts, f, voxel_size=0.2, cls=NONGROUND):
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    return table.insert(pack_keys(voxel_keys(pts, voxel_size)), pts, f, cls)


def insert_keys(table, keys, f, n_points=1, cls=NONGROUND):
    """n_points points in each given cell (coordinates don't matter here)."""
    packed = np.repeat([pack_key(k) for k in keys], n_points).astype(np.int64)
    return table.insert(packed, np.zeros((len(packed), 3)), f, cls)


def row(table, key):
    """(first, last, count, points) of one voxel."""
    vid = table.find(np.array([pack_key(key)]))[0]
    assert vid >= 0, key
    _, point_vid = table.points()
    return (int(table.first[vid]), int(table.last[vid]), int(table.count[vid]),
            int(np.count_nonzero(point_vid == vid)))


def keys_of(table, ids):
    return [unpack_key(int(pk)) for pk in table.key[ids]]


class Shadow:
    """Independent model of the map: key -> set of frames, points and class.

    Ground points are also kept whole, in insertion order: the ground table
    stores no per-point voxel id, so it is audited as one buffer.
    """

    def __init__(self):
        self.frames = {GROUND: {}, "object": {}}
        self.points = {GROUND: {}, "object": {}}
        self.cls = {}                      # object key -> NONGROUND / DYNAMIC
        self.ground_xyz = [np.zeros((0, 3), np.float32)]

    def add(self, table, key, f):
        self.frames[table].setdefault(key, set()).add(f)
        self.points[table][key] = self.points[table].get(key, 0) + 1
        if table == "object":
            self.cls.setdefault(key, NONGROUND)


def audit(state, shadow):
    """Full recheck of every row, the key index, conservation and classes."""
    for name, table in ((GROUND, state.ground_table), ("object", state.object_table)):
        frames, points = shadow.frames[name], shadow.points[name]
        assert len(table) == len(frames)
        assert len(np.unique(table.key)) == len(table)
        np.testing.assert_array_equal(table._sorted, np.sort(table.key))
        np.testing.assert_array_equal(table.key[table._ids], table._sorted)
        point_xyz, point_vid = table.points()
        if name == GROUND:
            assert len(point_vid) == 0
            assert len(point_xyz) == sum(points.values())
            np.testing.assert_array_equal(point_xyz, np.concatenate(shadow.ground_xyz))
        else:
            per_voxel = np.bincount(point_vid, minlength=len(table))
        for vid, key in enumerate(unpack_keys(table.key).tolist()):
            fs = frames[tuple(key)]
            assert table.first[vid] == min(fs)
            assert table.last[vid] == max(fs)
            assert table.count[vid] == len(fs)
            if name != GROUND:
                assert per_voxel[vid] == points[tuple(key)]
    total = (state.ground.total_points() + state.nonground.total_points()
             + state.dynamic.total_points())
    assert total == sum(sum(p.values()) for p in shadow.points.values())
    for key, cls in shadow.cls.items():
        assert (key in state.dynamic) == (cls == DYNAMIC)
        assert (key in state.nonground) == (cls == NONGROUND)


def test_voxel_key_examples():
    pts = [(0.45, -0.13, 1.98), (0.0, 0.0, 0.0), (0.2, 0.2, 0.2)]
    assert voxel_keys(pts, 0.2).tolist() == [[2, -1, 9], [0, 0, 0], [1, 1, 1]]


def test_voxel_key_half_open_cells():
    rng = np.random.default_rng(0)
    s = 0.2
    cells = rng.integers(-50, 50, (200, 3))
    offs = rng.uniform(0.05, 0.95, (200, 3))  # stay clear of float boundaries
    pts = (cells + offs) * s
    keys = voxel_keys(pts, s)
    np.testing.assert_array_equal(keys, cells)


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(100):
        key = tuple(int(v) for v in rng.integers(-(1 << 19), 1 << 19, 3))
        assert unpack_key(pack_key(key)) == key
    keys = rng.integers(-EDGE, EDGE, (1000, 3))
    keys[:3] = [[-EDGE] * 3, [EDGE - 1] * 3, [0, -EDGE, EDGE - 1]]
    packed = pack_keys(keys)
    np.testing.assert_array_equal(unpack_keys(packed), keys)
    assert [pack_key(tuple(k)) for k in keys.tolist()] == packed.tolist()


def test_pack_keys_rejects_cells_outside_range():
    for bad in ([0, 0, EDGE], [-EDGE - 1, 0, 0]):
        with pytest.raises(ContractError):
            pack_keys(np.array([[0, 0, 0], bad]))


def test_pack_key_rejects_cells_outside_range():
    for bad in ((0, 0, EDGE), (-EDGE - 1, 0, 0), (0, EDGE, 0), (2 * EDGE, 0, 0)):
        with pytest.raises(ContractError):
            pack_key(bad)
    assert unpack_key(pack_key((-EDGE, EDGE - 1, -EDGE))) == (-EDGE, EDGE - 1, -EDGE)


def test_contains_is_false_outside_range():
    state = MapState(voxel_size=0.2)
    insert_keys(state.object_table, [(0, 1, -EDGE)], 0)
    assert (0, 1, -EDGE) in state.nonground
    # (0, 0, EDGE) would pack to the same int64 as (0, 1, -EDGE)
    assert (0, 0, EDGE) not in state.nonground
    assert (2 * EDGE, 0, 0) not in state.nonground


@pytest.mark.parametrize("bad", [-0.2, 0.0, math.nan, math.inf, True, "0.2", None])
def test_map_rejects_bad_voxel_size(bad):
    with pytest.raises(ContractError):
        MapState(voxel_size=bad)
    with pytest.raises(ContractError):
        OnlinePipeline(voxel_size=bad)


def test_cells_in_range():
    assert cells_in_range(3.0, 0.2) == 15
    assert cells_in_range(3.0, 1.0) == 3
    assert cells_in_range(0.19, 0.2) == 0


def test_insert_set_semantics():
    table = VoxelTable()
    insert_points(table, [(0.1, 0.1, 0.1), (0.11, 0.12, 0.13)], 4)
    assert row(table, (0, 0, 0)) == (4, 4, 1, 2)


def test_insert_min_max():
    table = VoxelTable()
    insert_points(table, (0.1, 0.1, 0.1), 3)
    insert_points(table, (0.1, 0.1, 0.1), 9)
    assert row(table, (0, 0, 0))[:3] == (3, 9, 2)


def test_insert_cached_stats_match_recompute():
    rng = np.random.default_rng(2)
    table, shadow = VoxelTable(), {}
    for f in range(50):
        pts = rng.uniform(-2, 2, (int(rng.integers(0, 40)), 3))
        insert_points(table, pts, f, voxel_size=0.5)
        for key in map(tuple, voxel_keys(pts, 0.5).tolist()):
            shadow.setdefault(key, set()).add(f)
    assert len(table) == len(shadow)
    for key, fs in shadow.items():
        assert row(table, key)[:3] == (min(fs), max(fs), len(fs))


def test_insert_block_equals_repeated_single():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 0.6, (60, 3))    # 27 voxels at s=0.2
    table = VoxelTable()
    ids = insert_points(table, pts, 7)
    keys = voxel_keys(pts, 0.2)
    single = {}
    for key, p in zip(map(tuple, keys.tolist()), pts):
        single.setdefault(key, []).append(p)
    assert keys_of(table, ids) == sorted(single)   # one id per key, key order
    xyz, vid = table.points()
    for key, group in single.items():
        assert row(table, key)[:3] == (7, 7, 1)
        mine = xyz[vid == table.find(np.array([pack_key(key)]))[0]]
        np.testing.assert_array_equal(mine, np.asarray(group, dtype=np.float32))


def test_ground_below_first_hit():
    table = VoxelTable()
    insert_keys(table, [(0, 0, 4)], 0, cls=GROUND)
    got = table.below(np.array([pack_key((0, 0, 5))]), 15)
    assert keys_of(table, got) == [(0, 0, 4)]


def test_ground_below_none_in_range():
    table = VoxelTable()
    assert table.below(np.array([pack_key((0, 0, 5))]), 15).tolist() == [-1]
    insert_keys(table, [(0, 0, -20), (0, 0, 5), (0, -1, 4)], 0, cls=GROUND)
    # neither (0, 0, 5) itself nor the neighbouring column's cell counts
    assert table.below(np.array([pack_key((0, 0, 5))]), 15).tolist() == [-1]


def test_ground_below_nearest_wins():
    table = VoxelTable()
    insert_keys(table, [(0, 0, 3), (0, 0, -2)], 0, cls=GROUND)   # steps 2 and 7
    got = table.below(np.array([pack_key((0, 0, 5))]), 15)
    assert keys_of(table, got) == [(0, 0, 3)]


def test_voxels_above_empty():
    ids, owner = VoxelTable().above(np.array([pack_key((0, 0, 0))]), 15)
    assert len(ids) == len(owner) == 0


def test_voxels_above_all_in_order():
    table = VoxelTable()
    insert_keys(table, [(0, 0, 1), (0, 0, 12), (0, 0, 16)], 0)   # 16 out of range
    insert_keys(table, [(0, 1, 2)], 1)
    ids, owner = table.above(np.array([pack_key((0, 0, 0)), pack_key((0, 1, 0))]), 15)
    assert keys_of(table, ids) == [(0, 0, 1), (0, 0, 12), (0, 1, 2)]
    assert owner.tolist() == [0, 0, 1]


def test_column_queries_match_brute_force():
    rng = np.random.default_rng(4)
    ground, nonground = VoxelTable(), VoxelTable()
    ground_keys, nonground_keys = set(), set()
    # columns at the packing edge check that no query leaks into the next column
    cols = [(-3, -3), (-3, -2), (0, EDGE - 1), (1, -EDGE), (2, 2)]
    for f in range(30):
        keys = set()
        for _ in range(10):
            i, j = cols[int(rng.integers(0, len(cols)))]
            k = int(rng.choice([rng.integers(-20, 20), rng.integers(-EDGE, -EDGE + 20),
                                rng.integers(EDGE - 20, EDGE)]))
            keys.add((i, j, k))
        to_ground = {k for k in keys if rng.random() < 0.5}
        insert_keys(ground, sorted(to_ground), f, cls=GROUND)
        insert_keys(nonground, sorted(keys - to_ground), f)
        ground_keys |= to_ground
        nonground_keys |= keys - to_ground
    queries = []
    for _ in range(300):
        i, j = cols[int(rng.integers(0, len(cols)))]
        queries.append((i, j, int(rng.choice([rng.integers(-25, 25),
                                               rng.integers(-EDGE, -EDGE + 25),
                                               rng.integers(EDGE - 25, EDGE)]))))
    packed = np.array([pack_key(q) for q in queries])
    below = ground.below(packed, 15)
    above, owner = nonground.above(packed, 15)
    for n, (i, j, k) in enumerate(queries):
        expect_below = next(((i, j, k - s) for s in range(1, 16)
                             if (i, j, k - s) in ground_keys), None)
        got_below = keys_of(ground, below[n:n + 1]) if below[n] >= 0 else [None]
        assert got_below == [expect_below]
        expect_above = [(i, j, k + s) for s in range(1, 16) if (i, j, k + s) in nonground_keys]
        assert keys_of(nonground, above[owner == n]) == expect_above


def test_move_voxel_basic():
    state = MapState(voxel_size=0.2)
    ids = insert_keys(state.object_table, [(1, 2, 3)], 0, n_points=5)
    state.object_table.cls[ids] = DYNAMIC      # a move flips the class byte
    assert (1, 2, 3) not in state.nonground
    assert (1, 2, 3) in state.dynamic
    assert state.dynamic.total_points() == 5
    assert len(export_dynamic_map(state)) == 5
    assert row(state.object_table, (1, 2, 3)) == (0, 0, 1, 5)


def test_export_static_map_counts():
    state = MapState(voxel_size=0.2)
    insert_keys(state.ground_table, [(0, 0, 0)], 0, n_points=10, cls=GROUND)
    insert_keys(state.object_table, [(0, 0, 1)], 0, n_points=5)
    dyn = insert_keys(state.object_table, [(0, 0, 2)], 1, n_points=3)
    state.object_table.cls[dyn] = DYNAMIC
    assert len(export_static_map(state)) == 15
    assert len(export_dynamic_map(state)) == 3
    empty = MapState(voxel_size=0.2)
    assert len(export_static_map(empty)) == 0
    assert len(export_dynamic_map(empty)) == 0


def test_dump_csv(tmp_path):
    state = MapState(voxel_size=0.2)
    insert_keys(state.ground_table, [(1, -2, 0)], 5, n_points=2, cls=GROUND)
    insert_keys(state.ground_table, [(1, -2, 0)], 8, cls=GROUND)
    dyn = insert_keys(state.object_table, [(0, 0, 3)], 9)
    state.object_table.cls[dyn] = DYNAMIC
    path = tmp_path / "voxels.csv"
    dump_csv(state, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "submap,i,j,k,count,min_frame,max_frame"
    assert lines[1:] == ["ground,1,-2,0,2,5,8", "dynamic,0,0,3,1,9,9"]


def test_random_operation_stream_invariants():
    rng = np.random.default_rng(6)
    state, shadow = MapState(voxel_size=0.5), Shadow()
    obj = state.object_table
    f = 0
    for step in range(3000):
        op = rng.random()
        if op < 0.6:
            f += int(rng.integers(1, 3))
            pts = rng.uniform(-3, 3, (int(rng.integers(1, 6)), 3))
            name = GROUND if rng.random() < 0.4 else "object"
            table = state.ground_table if name == GROUND else obj
            insert_points(table, pts, f, voxel_size=0.5,
                          cls=GROUND if name == GROUND else NONGROUND)
            for key in map(tuple, voxel_keys(pts, 0.5).tolist()):
                shadow.add(name, key, f)
            if name == GROUND:
                shadow.ground_xyz.append(pts.astype(np.float32))
        else:
            src, dst = (state.nonground, DYNAMIC) if op < 0.8 else (state.dynamic, NONGROUND)
            ids = src.ids()
            if len(ids):
                vid = ids[int(rng.integers(0, len(ids)))]
                obj.cls[vid] = dst
                shadow.cls[unpack_key(int(obj.key[vid]))] = dst
        if step % 500 == 0:
            audit(state, shadow)
    audit(state, shadow)


def _insert_reference(table, keys, xyz, f, cls):
    """VoxelTable.insert as one np.unique over every key, for comparison."""
    uniq, inv = np.unique(keys, return_inverse=True)
    pos, ids = table._match(uniq)
    old = ids[ids >= 0]
    table.last[old] = f
    table.count[old] += 1
    new = ids < 0
    n_new = int(np.count_nonzero(new))
    if n_new:
        ids[new] = np.arange(len(table.key), len(table.key) + n_new)
        table.key = np.concatenate([table.key, uniq[new]])
        table.first = np.concatenate([table.first, np.full(n_new, f, np.int32)])
        table.last = np.concatenate([table.last, np.full(n_new, f, np.int32)])
        table.count = np.concatenate([table.count, np.ones(n_new, np.int32)])
        table.cls = np.concatenate([table.cls, np.full(n_new, cls, np.uint8)])
        table._sorted = np.insert(table._sorted, pos[new], uniq[new])
        table._ids = np.insert(table._ids, pos[new], ids[new])
    if len(keys):
        table._xyz.append(np.asarray(xyz, dtype=np.float32))
        if cls != GROUND:
            table._vid.append(ids[inv].astype(np.int32))
    return ids


ENDS = [(-EDGE, -EDGE, -EDGE), (EDGE - 1, EDGE - 1, EDGE - 1),
        (-EDGE, EDGE - 1, -EDGE), (EDGE - 1, -EDGE, EDGE - 1)]
CELLS = st.one_of(st.tuples(*[st.integers(-2, 2)] * 3), st.sampled_from(ENDS))
# a frame is a list of (cell, run length): scan order's runs of equal keys
FRAMES = st.lists(st.tuples(CELLS, st.integers(1, 30)), max_size=10)
STREAMS = st.lists(st.tuples(st.booleans(), st.sampled_from([NONGROUND, DYNAMIC]),
                             FRAMES), max_size=12)


@given(stream=STREAMS)
@example(stream=[(True, NONGROUND, []), (False, NONGROUND, [])])                # empty frames
@example(stream=[(True, NONGROUND, [((1, 2, 3), 1)]),
                 (False, NONGROUND, [((1, 2, 3), 1)])])                         # one key
@example(stream=[(g, NONGROUND, [((0, 0, 0), 500)]) for g in (True, False)])   # all equal
@example(stream=[(g, NONGROUND, [((0, 0, 1), 2000), ((0, 0, 0), 3000)])
                 for g in (True, False)])                                        # long runs
@example(stream=[(g, DYNAMIC, [(c, 2) for c in [(1, 0, 0), (0, 0, 0)] * 4])
                 for g in (True, False)])                                        # repeats apart
@example(stream=[(g, NONGROUND, [(c, 3) for c in ENDS + ENDS[::-1]])
                 for g in (True, False)] * 2)                                    # range ends
def test_insert_matches_np_unique_reference(stream):
    """Run-collapsed grouping builds the very tables one np.unique builds."""
    tables = {g: (VoxelTable(), VoxelTable()) for g in (True, False)}
    n_points = 0
    for f, (to_ground, cls, runs) in enumerate(stream):
        keys = np.array([pack_key(c) for c, n in runs for _ in range(n)], np.int64)
        xyz = np.arange(3 * len(keys), dtype=np.float64).reshape(-1, 3) + 3 * n_points
        n_points += len(keys)
        cls = GROUND if to_ground else cls
        table, reference = tables[to_ground]
        np.testing.assert_array_equal(table.insert(keys, xyz, f, cls),
                                      _insert_reference(reference, keys, xyz, f, cls))
    for table, reference in tables.values():
        for column in ("key", "first", "last", "count", "cls", "_sorted", "_ids"):
            got, want = getattr(table, column), getattr(reference, column)
            assert got.dtype == want.dtype, column
            np.testing.assert_array_equal(got, want, err_msg=column)
        for got, want in zip(table.points(), reference.points()):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def _export_reference(state):
    """The float64 exports, by boolean masks: (static, dynamic) points."""
    ground_xyz = state.ground.points()
    obj_xyz, vid = state.object_table.points()
    cls = state.object_table.cls[vid]
    keep = cls == NONGROUND
    n = len(ground_xyz)
    static = np.empty((n + int(np.count_nonzero(keep)), 3))
    static[:n] = ground_xyz
    static[n:] = obj_xyz[keep]
    return static, np.asarray(obj_xyz[cls == DYNAMIC], dtype=np.float64)


# a frame: ground cells, object cells, and which object voxels then turn dynamic
EXPORT_FRAMES = st.lists(st.tuples(st.lists(CELLS, max_size=12), st.lists(CELLS, max_size=12),
                                   st.lists(st.booleans(), max_size=12)), max_size=5)


@given(frames=EXPORT_FRAMES)
@example(frames=[])                                                        # empty state
@example(frames=[([], [(0, 0, 0), (1, 0, 0), (0, 0, 0)], [True] * 2)])    # all dynamic
@example(frames=[([(0, 0, 0)] * 3, [], [])])                               # ground only
def test_exports_are_reference_rows_narrowed_to_float32(frames):
    """Both exports hold float32 rows equal, in order, to the float64 reference."""
    state = MapState(voxel_size=0.2)
    n_points = 0
    for f, (ground_cells, object_cells, to_dynamic) in enumerate(frames):
        for table, cells, cls in ((state.ground_table, ground_cells, GROUND),
                                  (state.object_table, object_cells, NONGROUND)):
            keys = np.array([pack_key(c) for c in cells], np.int64)
            # coordinates that float32 cannot hold exactly
            xyz = (np.arange(3 * len(keys)).reshape(-1, 3) + 3 * n_points) / 3.0
            n_points += len(keys)
            ids = table.insert(keys, xyz, f, cls)
        flip = ids[:len(to_dynamic)][np.array(to_dynamic[:len(ids)], bool)]
        state.object_table.cls[flip] = DYNAMIC
    want_static, want_dynamic = _export_reference(state)
    for got, want in ((export_static_map(state).xyz, want_static),
                      (export_dynamic_map(state).xyz, want_dynamic)):
        assert got.dtype == np.float32 and want.dtype == np.float64
        np.testing.assert_array_equal(got, want.astype(np.float32))
    assert len(want_dynamic) == state.dynamic.total_points()
