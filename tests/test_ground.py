import math

import numpy as np
import pytest
from conftest import rendered
from hypothesis import given
from hypothesis import strategies as st

from mapclean.errors import ContractError
from mapclean.ground import (GroundSegConfig, _fit_plane, _project_numpy,
                             _walk_numpy, build_range_image, extract_candidates,
                             fit_ground_model, segment_ground_mask)
from mapclean.io import PointCloud
from mapclean.simulate import (Box, GroundPlane, Scenario, SensorModel,
                               ground_cfg_for, render_sequence)


def flat_ground_frame(rows=24, cols=120, h=1.7):
    sc = Scenario(frames=1, ground=GroundPlane(),
                  sensor=SensorModel(position=[0, 0, h], rows=rows, cols=cols,
                                     max_range=40.0))
    return sc, render_sequence(sc)[0]


def street_frame():
    sc = Scenario(
        frames=1, ground=GroundPlane(),
        sensor=SensorModel(position=[0, 0, 1.7], rows=24, cols=160, max_range=35.0),
        static_objects=[Box([8, 3, 1.0], [2, 2, 2]), Box([-6, -5, 1.25], [1.5, 2, 2.5]),
                        Box([5, -8, 0.75], [2, 1, 1.5])])
    return sc, render_sequence(sc)[0]


def wall_scene():
    """A ground strip inside the vertical FOV plus a vertical wall behind it."""
    y = np.linspace(-1.5, 1.5, 40)
    gx = np.linspace(4.0, 12.0, 24)
    ground = np.array([[x, yy, -1.7] for x in gx for yy in y])
    wall_z = np.linspace(-1.5, 1.5, 30)
    wall = np.array([[13.0, yy, zz] for yy in y for zz in wall_z])
    return ground, wall, wall_z


def refine(cloud, candidates, cfg):
    """(ground, non-ground) clouds from the plane fit over the given candidates."""
    mask, _ = fit_ground_model(cloud, candidates, cfg)
    return cloud.select(mask), cloud.select(~mask)


# -- sequential reference ----------------------------------------------------
# Plain per-point and per-cell loops, and the per-sector plane fit in its
# plainest form, that define the semantics the vectorised kernels in
# mapclean.ground must reproduce entry for entry.

def _project_reference(xyz, rows, cols, fov_up_deg, fov_down_deg):
    n = xyz.shape[0]
    ranges_img = np.zeros((rows, cols), dtype=np.float64)
    index_img = np.full((rows, cols), -1, dtype=np.int64)
    prow = np.full(n, -1, dtype=np.int64)
    pcol = np.full(n, -1, dtype=np.int64)
    span = fov_up_deg - fov_down_deg
    for i in range(n):
        x, y, z = xyz[i, 0], xyz[i, 1], xyz[i, 2]
        r = math.sqrt(x * x + y * y + z * z)
        if r <= 1e-9:
            continue
        s = z / r
        if s > 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        elev = math.degrees(math.asin(s))
        row = int(math.floor((elev - fov_down_deg) / span * rows))
        if row == rows:
            row = rows - 1  # elevation exactly at the top edge
        if row < 0 or row >= rows:
            continue
        col = int(math.floor((math.atan2(y, x) + math.pi)
                             / (2.0 * math.pi) * cols))
        if col < 0:
            col = 0
        elif col >= cols:
            col = cols - 1
        prow[i] = row
        pcol[i] = col
        if index_img[row, col] < 0 or r < ranges_img[row, col]:
            ranges_img[row, col] = r
            index_img[row, col] = i
    return ranges_img, index_img, prow, pcol


def _walk_reference(index_img, xyz, tan_thr):
    rows, cols = index_img.shape
    cand = np.zeros((rows, cols), dtype=np.bool_)
    for c in range(cols):
        prev = -1
        prev_row = -1
        bottom_row = -1
        for row in range(rows):
            i = index_img[row, c]
            if i < 0:
                continue
            if prev < 0:
                bottom_row = row
            else:
                dz = abs(xyz[i, 2] - xyz[prev, 2])
                dx = xyz[i, 0] - xyz[prev, 0]
                dy = xyz[i, 1] - xyz[prev, 1]
                if dz < tan_thr * math.hypot(dx, dy):
                    cand[row, c] = True
                    if prev_row == bottom_row:
                        cand[bottom_row, c] = True
                else:
                    break  # once exceeded, nothing above may be marked
            prev = i
            prev_row = row
    return cand


def _fit_reference(xyz, candidates, cfg):
    """(ground mask, normals, offsets, has_plane) of the per-sector plane fit."""
    n_sect = cfg.sectors_x * cfg.sectors_y
    normals = np.full((n_sect, 3), np.nan)
    offsets = np.full(n_sect, np.nan)
    has_plane = np.zeros(n_sect, dtype=bool)
    ground = np.zeros(len(xyz), dtype=bool)
    cand_idx = np.nonzero(candidates)[0]
    if len(cand_idx) == 0:
        return ground, normals, offsets, has_plane
    half = cfg.footprint / 2.0
    ix = np.clip(np.floor((xyz[cand_idx, 0] + half) / (cfg.footprint / cfg.sectors_x)),
                 0, cfg.sectors_x - 1).astype(np.int64)
    iy = np.clip(np.floor((xyz[cand_idx, 1] + half) / (cfg.footprint / cfg.sectors_y)),
                 0, cfg.sectors_y - 1).astype(np.int64)
    sect_cand = ix * cfg.sectors_y + iy

    poisoned = set()
    for sid in range(n_sect):
        idx = cand_idx[sect_cand == sid]
        if len(idx) < cfg.min_sector_candidates:
            continue
        pts = xyz[idx]
        if len(pts) > cfg.max_fit_points:
            pts = pts[:: len(pts) // cfg.max_fit_points + 1]
        k = max(3, int(np.ceil(cfg.seed_fraction * len(pts))))
        work = pts[np.argpartition(pts[:, 2], k - 1)[:k]]
        plane = None
        for _ in range(cfg.iterations):
            fit = _fit_plane(work)
            if fit is None:
                plane = None
                poisoned.add(sid)
                break
            plane = fit
            dist = np.abs(pts @ plane[0] - plane[1])
            work = pts[dist < cfg.plane_dist_threshold]
            if len(work) < 3:
                break
        if plane is not None:
            normals[sid] = plane[0]
            offsets[sid] = plane[1]
            has_plane[sid] = True

    # neighbor fallback for under-populated sectors (not degenerate ones)
    fitted = np.nonzero(has_plane)[0]
    if len(fitted):
        fx, fy = fitted // cfg.sectors_y, fitted % cfg.sectors_y
        for sid in np.unique(sect_cand):
            if has_plane[sid] or sid in poisoned:
                continue
            gx, gy = sid // cfg.sectors_y, sid % cfg.sectors_y
            d2 = (fx - gx) ** 2 + (fy - gy) ** 2
            src = fitted[np.argmin(d2)]
            normals[sid] = normals[src]
            offsets[sid] = offsets[src]
            has_plane[sid] = True

    usable = has_plane[sect_cand]
    idx = cand_idx[usable]
    if len(idx):
        sid = sect_cand[usable]
        dist = np.abs(np.einsum("ij,ij->i", xyz[idx], normals[sid]) - offsets[sid])
        ground[idx] = dist <= cfg.plane_dist_threshold
    return ground, normals, offsets, has_plane


def assert_kernels_match(xyz, cfg, tan_thrs):
    """Every kernel equals its reference on one scan, entry for entry.

    The walk runs at each threshold tangent in tan_thrs; the fit runs on the
    candidates of the configured angle.
    """
    ref = _project_reference(xyz, cfg.rows, cfg.cols, cfg.fov_up_deg, cfg.fov_down_deg)
    got = _project_numpy(xyz, cfg.rows, cfg.cols, cfg.fov_up_deg, cfg.fov_down_deg)
    for want, have in zip(ref[1:], got):
        assert have.dtype == np.int32
        np.testing.assert_array_equal(have, want)
    index_img = ref[1]
    for tan_thr in tan_thrs:
        np.testing.assert_array_equal(_walk_numpy(index_img, xyz, tan_thr),
                                      _walk_reference(index_img, xyz, tan_thr))
    cloud = PointCloud(xyz)
    img = build_range_image(cloud, cfg.rows, cfg.cols, cfg.fov_up_deg, cfg.fov_down_deg)
    cand = extract_candidates(img, cloud, cfg.angle_threshold_deg)
    # the fit also runs with every point a candidate, which fills more sectors
    for fit_input in (cand, np.ones(len(xyz), dtype=bool)):
        ground, model = fit_ground_model(cloud, fit_input, cfg)
        want = _fit_reference(xyz, fit_input, cfg)
        np.testing.assert_array_equal(ground, want[0])
        np.testing.assert_array_equal(model.normals, want[1])
        np.testing.assert_array_equal(model.offsets, want[2])
        np.testing.assert_array_equal(model.has_plane, want[3])
    np.testing.assert_array_equal(segment_ground_mask(cloud, cfg),
                                  _fit_reference(xyz, cand, cfg)[0])
    return index_img, cand


def _tied_ranges_scan():
    """Exact range ties inside one cell of a coarse 24x8 image.

    (8, 1), (7, 4), (4, 7) and (1, 8) share x^2 + y^2 = 65 exactly; the first
    two fall in one azimuth cell and the last two in the next. Duplicates,
    the origin and a nearer point in the same direction come along.
    """
    tied = np.array([[8.0, 1.0, -1.0], [7.0, 4.0, -1.0], [4.0, 7.0, -1.0],
                     [1.0, 8.0, -1.0]])
    column = np.array([[8.0, 1.0, -1.6], [8.0, 1.0, -0.5], [8.0, 1.0, 0.1],
                       [4.0, 0.5, -0.5], [0.0, 0.0, 0.0]])
    return np.vstack([tied, column, tied[::-1], tied])


def _exact_steps_scan():
    """One image column (y = 0): a flat step, then one rising exactly 45 degrees."""
    return np.array([[4.0, 0.0, -1.7], [6.0, 0.0, -1.7], [7.0, 0.0, -0.7]])


def _sparse_columns_scan():
    """Most image columns empty, some with a single return."""
    sc, frame = street_frame()
    az = np.arctan2(frame.scan.xyz[:, 1], frame.scan.xyz[:, 0])
    lone = np.radians([-150.0, -100.0, -45.0, 120.0])
    singles = np.column_stack([10 * np.cos(lone), 10 * np.sin(lone), np.full(4, -1.7)])
    return np.vstack([frame.scan.xyz[(az > 0.3) & (az < 0.9)], singles])


REFERENCE_CASES = {
    "street": (lambda: street_frame()[1].scan.xyz, 24, 160),
    "wall": (lambda: np.vstack(wall_scene()[:2]), 32, 180),
    "ties": (_tied_ranges_scan, 24, 8),
    "steps": (_exact_steps_scan, 24, 160),
    "sparse": (_sparse_columns_scan, 24, 160),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_kernels_match_sequential_reference(case):
    make, rows, cols = REFERENCE_CASES[case]
    xyz = make()
    # tan_thr 1.0 puts the 45-degree step exactly on the threshold
    index_img, _ = assert_kernels_match(
        xyz, GroundSegConfig(rows=rows, cols=cols, min_sector_candidates=3),
        (math.tan(math.radians(2.0)), math.tan(math.radians(10.0)), 1.0))
    per_col = (index_img >= 0).sum(axis=0)
    if case == "sparse":
        assert (per_col == 0).sum() > cols // 2 and (per_col == 1).any()
    if case == "ties":  # the lowest index of a tie wins its cell
        _, _, prow, pcol = _project_reference(xyz, rows, cols, 2.0, -24.8)
        assert pcol[0] == pcol[1] != pcol[2] == pcol[3] and len(set(prow[:4])) == 1
        assert index_img[prow[0], pcol[0]] == 7  # the nearer point, same direction
        assert index_img[prow[2], pcol[2]] == 2


SCENARIOS = ["continuous-mover", "crowd", "pedestrian-crossing", "static-street",
             "suddenly-appear", "suddenly-disappear"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_kernels_match_reference_on_scenarios(name):
    sc, frames = rendered(name)
    cfg = ground_cfg_for(sc)
    tan_thr = math.tan(math.radians(cfg.angle_threshold_deg))
    for f in sorted({0, len(frames) // 2, len(frames) - 1}):
        assert_kernels_match(frames[f].scan.xyz, cfg, (tan_thr,))


# Hypothesis scans are built on a 0.5 m lattice so that ranges tie exactly,
# steps rise exactly at 45 degrees (tan 1.0) and planes are exact.
HALF = st.integers(-24, 24).map(lambda v: v / 2)


@st.composite
def lattice_scans(draw):
    parts = []
    # ground: patches of lattice planes under the sensor, and loose points
    for _ in range(draw(st.integers(0, 2))):
        x0, y0 = draw(HALF), draw(HALF)
        nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        gx, gy = np.meshgrid(x0 + np.arange(nx) / 2, y0 + np.arange(ny) / 2)
        slope = draw(st.sampled_from([0.0, 0.5]))
        parts.append(np.column_stack([gx.ravel(), gy.ravel(),
                                      slope * gx.ravel() - draw(st.sampled_from([1.5, 2.0]))]))
    loose = draw(st.lists(st.tuples(HALF, HALF), max_size=6))
    parts.append(np.array([(x, y, -1.5) for x, y in loose]).reshape(-1, 3))
    # walls, stairs rising exactly 45 degrees and collinear runs
    for _ in range(draw(st.integers(0, 3))):
        x, y, z = draw(HALF), draw(HALF), draw(st.sampled_from([-2.0, -1.5, -1.0]))
        n = draw(st.integers(2, 10))
        k = np.arange(n) / 2
        kind = draw(st.sampled_from(["wall", "stairs", "line"]))
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (-1, 1)]))
        if kind == "wall":
            pts = np.column_stack([np.full(n, x), np.full(n, y), z + k])
        elif kind == "stairs":
            pts = np.column_stack([x + dx * k, y + dy * k, z + k * math.hypot(dx, dy)])
        else:
            pts = np.column_stack([x + dx * k, y + dy * k, np.full(n, z)])
        parts.append(pts)
    xyz = np.vstack(parts)
    # exact range ties: repeats, mirror images (x, y) -> (y, x), the origin
    if len(xyz) and draw(st.booleans()):
        pick = draw(st.lists(st.integers(0, len(xyz) - 1), max_size=8))
        xyz = np.vstack([xyz, xyz[pick], xyz[pick][:, [1, 0, 2]]])
    if draw(st.booleans()):
        xyz = np.vstack([xyz, np.zeros((1, 3))])
    order = draw(st.permutations(range(len(xyz))))
    return xyz[list(order)].reshape(-1, 3)


@given(xyz=lattice_scans(),
       rows=st.integers(2, 24), cols=st.integers(2, 48),
       sectors=st.integers(1, 4), footprint=st.sampled_from([8.0, 16.0, 40.0]),
       min_cands=st.integers(3, 12), max_fit=st.integers(3, 40),
       iterations=st.integers(1, 4), angle=st.sampled_from([5.0, 10.0, 45.0]))
def test_kernels_match_reference_on_random_scans(xyz, rows, cols, sectors, footprint,
                                                 min_cands, max_fit, iterations, angle):
    cfg = GroundSegConfig(rows=rows, cols=cols, fov_up_deg=10.0, fov_down_deg=-60.0,
                          angle_threshold_deg=angle, sectors_x=sectors,
                          sectors_y=sectors, footprint=footprint,
                          min_sector_candidates=min_cands, max_fit_points=max_fit,
                          iterations=iterations)
    assert_kernels_match(xyz, cfg, (math.tan(math.radians(angle)), 1.0))


# -- range image -------------------------------------------------------------

def test_range_image_single_point():
    cloud = PointCloud(np.array([[10.0, 0.0, 0.0]]))
    img = build_range_image(cloud, 16, 32)
    occupied = img.point_index >= 0
    assert occupied.sum() == 1
    assert img.point_index[occupied][0] == 0
    assert img.point_rows[0] >= 0 and img.point_cols[0] >= 0


def test_range_image_near_point_wins():
    # same direction, ranges 5 and 9
    cloud = PointCloud(np.array([[5.0, 0.0, 0.0], [9.0, 0.0, 0.0]]))
    img = build_range_image(cloud, 16, 32)
    occupied = img.point_index >= 0
    assert occupied.sum() == 1
    assert img.point_index[occupied][0] == 0


def test_range_image_cell_range_matches_norm():
    sc, frame = street_frame()
    img = build_range_image(frame.scan, 24, 160)
    # every in-FOV point's cell holds a point at least as near as it
    norms = np.linalg.norm(frame.scan.xyz, axis=1)
    inside = np.nonzero(img.point_rows >= 0)[0]
    owner = img.point_index[img.point_rows[inside], img.point_cols[inside]]
    assert (owner >= 0).all()
    assert (norms[owner] <= norms[inside]).all()


def test_range_image_point_in_at_most_one_cell():
    sc, frame = street_frame()
    img = build_range_image(frame.scan, 24, 160)
    idx = img.point_index[img.point_index >= 0]
    assert len(idx) == len(np.unique(idx))


def test_range_image_lower_rows_occupied_on_flat_ground():
    sc, frame = flat_ground_frame()
    img = build_range_image(frame.scan, 24, 120)
    # rows whose beams reach the ground inside max_range
    el = np.radians(-24.8 + (np.arange(24) + 0.5) * 26.8 / 24)
    hits = el < np.arctan2(-1.7, 40.0)
    occ = (img.point_index >= 0)[hits]
    assert occ.mean() >= 0.9


def test_range_image_requires_min_dims():
    with pytest.raises(ContractError):
        build_range_image(PointCloud(np.zeros((1, 3))), 1, 10)


# -- candidate extraction ----------------------------------------------------

def test_candidates_flat_ground_bottom_cells():
    sc, frame = flat_ground_frame()
    img = build_range_image(frame.scan, 24, 120)
    cand = extract_candidates(img, frame.scan, 10.0)
    occ = img.point_index >= 0
    cand_cells = np.zeros_like(occ)
    pr, pc = img.point_rows, img.point_cols
    cand_cells[pr[cand], pc[cand]] = True
    for c in range(120):
        col_rows = np.nonzero(occ[:, c])[0]
        if len(col_rows) >= 2:
            assert cand_cells[col_rows[0], c]


def test_candidates_wall_excluded():
    ground, wall, wall_z = wall_scene()
    cloud = PointCloud(np.vstack([ground, wall]))
    img = build_range_image(cloud, 32, 180)
    cand = extract_candidates(img, cloud, 10.0)
    n_ground = len(ground)
    # steps within the wall are near-90 degrees, so nothing above the seam
    # row at the wall base may pass the walk
    wall_cand = cand[n_ground:]
    wall_pts = cloud.xyz[n_ground:]
    assert not wall_cand[wall_pts[:, 2] > wall_z[0] + 1e-9].any()
    assert cand[:n_ground].sum() > 0.5 * n_ground


def test_candidates_recall_on_boxes_scene():
    sc, frame = street_frame()
    img = build_range_image(frame.scan, 24, 160)
    cand = extract_candidates(img, frame.scan, 10.0)
    true_ground = frame.labels == 0
    recall = (cand & true_ground).sum() / true_ground.sum()
    assert recall >= 0.95


# -- PCA refinement ----------------------------------------------------------

def test_refine_exact_plane_keeps_everything():
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-20, 20, 500),
                           rng.uniform(-20, 20, 500),
                           np.zeros(500)])
    cloud = PointCloud(pts)
    g, u = refine(cloud, np.ones(500, dtype=bool), GroundSegConfig())
    assert len(g) == 500
    assert len(u) == 0


def test_refine_excludes_outlier():
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(-20, 20, 400),
                           rng.uniform(-20, 20, 400),
                           np.zeros(400)])
    pts = np.vstack([pts, [[1.0, 1.0, 5.0]]])
    cloud = PointCloud(pts)
    g, u = refine(cloud, np.ones(401, dtype=bool), GroundSegConfig())
    assert len(u) == 1
    assert u.xyz[0, 2] == pytest.approx(5.0)


def test_refine_degenerate_collinear_is_no_ground():
    pts = np.column_stack([np.linspace(0, 10, 50), np.zeros(50), np.zeros(50)])
    cloud = PointCloud(pts)
    g, u = refine(cloud, np.ones(50, dtype=bool), GroundSegConfig())
    assert len(g) == 0


def test_refine_sloped_scene_iou():
    sc = Scenario(
        frames=1, ground=GroundPlane(slope_x=np.tan(np.radians(5.0))),
        sensor=SensorModel(position=[0, 0, 1.7], rows=24, cols=160, max_range=30.0),
        static_objects=[Box([8, 3, 1.3], [2, 2, 2])])
    frame = render_sequence(sc)[0]
    cfg = ground_cfg_for(sc)
    mask = segment_ground_mask(frame.scan, cfg)
    true_g = frame.labels == 0
    iou = (mask & true_g).sum() / (mask | true_g).sum()
    assert iou >= 0.9


def test_sector_with_exactly_min_candidates_fits_its_own_plane():
    # sector 0 (x < 0) holds exactly min_sector_candidates flat points, its
    # neighbour a tilted plane it must not borrow
    flat = np.array([[-1.0 - i % 5, 1.0 + i // 5, -1.5] for i in range(10)])
    gx, gy = np.meshgrid(np.arange(1.0, 11.0), np.arange(-5.0, 5.0))
    tilted = np.column_stack([gx.ravel(), gy.ravel(), 0.5 * gx.ravel() - 1.5])
    xyz = np.vstack([flat, tilted])
    cfg = GroundSegConfig(sectors_x=2, sectors_y=1, footprint=40.0,
                          min_sector_candidates=10, seed_fraction=1.0)
    everything = np.ones(len(xyz), dtype=bool)
    ground, model = fit_ground_model(PointCloud(xyz), everything, cfg)
    assert model.normals[0][2] == pytest.approx(1.0, abs=1e-12)
    assert ground.all()
    np.testing.assert_array_equal(model.normals, _fit_reference(xyz, everything, cfg)[1])


def test_ground_points_respect_sector_planes():
    sc, frame = street_frame()
    cfg = ground_cfg_for(sc)
    img = build_range_image(frame.scan, cfg.rows, cfg.cols,
                            cfg.fov_up_deg, cfg.fov_down_deg)
    cand = extract_candidates(img, frame.scan, cfg.angle_threshold_deg)
    mask, model = fit_ground_model(frame.scan, cand, cfg)
    idx = np.nonzero(mask)[0]
    half = cfg.footprint / 2
    ix = np.clip((frame.scan.xyz[idx, 0] + half) // (cfg.footprint / cfg.sectors_x),
                 0, cfg.sectors_x - 1).astype(int)
    iy = np.clip((frame.scan.xyz[idx, 1] + half) // (cfg.footprint / cfg.sectors_y),
                 0, cfg.sectors_y - 1).astype(int)
    sid = ix * cfg.sectors_y + iy
    dist = np.abs(np.einsum("ij,ij->i", frame.scan.xyz[idx], model.normals[sid])
                  - model.offsets[sid])
    assert (dist <= cfg.plane_dist_threshold + 1e-12).all()
    # plane invariants: unit normals pointing up
    for s in np.nonzero(model.has_plane)[0]:
        assert np.linalg.norm(model.normals[s]) == pytest.approx(1.0, abs=1e-9)
        assert model.normals[s][2] > 0


# -- full segmentation -------------------------------------------------------

def test_segment_empty_scan():
    mask = segment_ground_mask(PointCloud(np.zeros((0, 3))), GroundSegConfig())
    assert mask.dtype == bool and mask.shape == (0,)


def test_segment_all_wall_scan():
    y = np.linspace(-3, 3, 60)
    z = np.linspace(-1.5, 1.5, 40)
    wall = np.array([[6.0, yy, zz] for yy in y for zz in z])
    cloud = PointCloud(wall)
    mask = segment_ground_mask(cloud, GroundSegConfig(rows=32, cols=180))
    assert mask.shape == (len(cloud),)
    assert not mask.any()


def test_segment_street_f1():
    sc, frame = street_frame()
    mask = segment_ground_mask(frame.scan, ground_cfg_for(sc))
    true_g = frame.labels == 0
    tp = (mask & true_g).sum()
    prec = tp / max(mask.sum(), 1)
    rec = tp / true_g.sum()
    f1 = 2 * prec * rec / (prec + rec)
    assert f1 >= 0.9


def test_segment_is_partition():
    sc, frame = street_frame()
    mask = segment_ground_mask(frame.scan, ground_cfg_for(sc))
    assert mask.dtype == bool and mask.shape == (len(frame.scan),)
    g, u = frame.scan.select(mask), frame.scan.select(~mask)
    assert len(g) + len(u) == len(frame.scan)


def test_segment_deterministic():
    sc, frame = street_frame()
    cfg = ground_cfg_for(sc)
    m1 = segment_ground_mask(frame.scan, cfg)
    m2 = segment_ground_mask(frame.scan, cfg)
    np.testing.assert_array_equal(m1, m2)
