"""Two-step ground segmentation: range-image candidate extraction, then
sector-wise PCA plane refinement.

Step one projects the scan into a beam/azimuth range image and walks each
column bottom-up, keeping cells while the inclination angle between
consecutive returns stays shallow. Step two fits a plane per x-y sector to
the surviving candidates (seeded from the lowest points, iterated with an
inlier threshold) and keeps candidates close to their sector plane.

The projection and the walk are vectorised numpy; tests/test_ground.py
keeps the per-point and per-cell loops they must match entry for entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, is_integer
from .io import PointCloud


@dataclass
class GroundSegConfig:
    rows: int = 64
    cols: int = 2048
    fov_up_deg: float = 2.0
    fov_down_deg: float = -24.8
    angle_threshold_deg: float = 10.0
    sectors_x: int = 4
    sectors_y: int = 4
    footprint: float = 160.0          # x-y extent of the sector grid, meters
    seed_fraction: float = 0.2
    iterations: int = 3
    plane_dist_threshold: float = 0.25
    min_sector_candidates: int = 10
    max_fit_points: int = 4000   # per-sector cap during plane iteration

    def __post_init__(self):
        if not all(is_integer(v) and v >= 2 for v in (self.rows, self.cols)):
            raise ContractError(
                f"rows and cols must be integers >= 2, got {self.rows!r}, {self.cols!r}")


@dataclass
class RangeImage:
    point_index: np.ndarray  # (rows, cols) int64, -1 where empty
    point_rows: np.ndarray   # (N,) row of every scan point, -1 outside FOV
    point_cols: np.ndarray   # (N,) col of every scan point, -1 outside FOV


@dataclass
class GroundModel:
    """Per-sector planes n . p = d over the x-y footprint grid."""

    normals: np.ndarray      # (S, 3); NaN rows where no plane
    offsets: np.ndarray      # (S,)
    has_plane: np.ndarray    # (S,) bool
    sectors_x: int
    sectors_y: int
    footprint: float


def _project_numpy(xyz, rows, cols, fov_up_deg, fov_down_deg):
    n = len(xyz)
    index_img = np.full((rows, cols), -1, dtype=np.int64)
    prow = np.full(n, -1, dtype=np.int64)
    pcol = np.full(n, -1, dtype=np.int64)

    r = np.linalg.norm(xyz, axis=1)
    ok = r > 1e-9
    elev = np.zeros(n)
    elev[ok] = np.degrees(np.arcsin(np.clip(xyz[ok, 2] / r[ok], -1.0, 1.0)))
    az = np.arctan2(xyz[:, 1], xyz[:, 0])  # (-pi, pi]

    span = fov_up_deg - fov_down_deg
    row = np.floor((elev - fov_down_deg) / span * rows).astype(np.int64)
    row[row == rows] = rows - 1  # elevation exactly at the top edge
    col = np.floor((az + np.pi) / (2.0 * np.pi) * cols).astype(np.int64)
    col = np.clip(col, 0, cols - 1)

    valid = ok & (row >= 0) & (row < rows)
    prow[valid] = row[valid]
    pcol[valid] = col[valid]

    # write far points first so the nearest survives; on exact range ties the
    # lowest point index wins
    vidx = np.nonzero(valid)[0]
    order = vidx[np.lexsort((-vidx, -r[vidx]))]
    index_img[row[order], col[order]] = order
    return index_img, prow, pcol


def build_range_image(scan: PointCloud, rows: int, cols: int,
                      fov_up_deg: float = 2.0,
                      fov_down_deg: float = -24.8) -> RangeImage:
    """Spherical projection; on cell collisions the nearer point wins."""
    if rows < 2 or cols < 2:
        raise ValueError("range image needs rows, cols >= 2")
    return RangeImage(*_project_numpy(scan.xyz, rows, cols,
                                      float(fov_up_deg), float(fov_down_deg)))


def _walk_numpy(index_img, xyz, tan_thr):
    rows, cols = index_img.shape
    occ = index_img >= 0
    idx = np.where(occ, index_img, 0)
    cx = xyz[:, 0][idx]
    cy = xyz[:, 1][idx]
    cz = xyz[:, 2][idx]
    row_no = np.where(occ, np.arange(rows)[:, None], -1)
    last_occ = np.maximum.accumulate(row_no, axis=0)
    prev = np.vstack([np.full((1, cols), -1, np.int64), last_occ[:-1]])
    has_prev = occ & (prev >= 0)

    prev_idx = np.clip(prev, 0, None)
    px = np.take_along_axis(cx, prev_idx, axis=0)
    py = np.take_along_axis(cy, prev_idx, axis=0)
    pz = np.take_along_axis(cz, prev_idx, axis=0)
    dz = np.abs(cz - pz)
    dxy = np.hypot(cx - px, cy - py)
    step_ok = dz < tan_thr * dxy

    # chain of shallow steps from the bottom; empty cells and the bottom-most
    # occupied cell pass through
    passthrough = np.where(has_prev, step_ok, True)
    chain = np.logical_and.accumulate(passthrough, axis=0)
    cand = occ & chain & has_prev

    # the bottom-most cell joins iff its step up to the second cell is shallow
    col_any = occ.any(axis=0)
    bottom = np.argmax(occ, axis=0)
    occ2 = occ.copy()
    occ2[bottom[col_any], np.nonzero(col_any)[0]] = False
    col_two = occ2.any(axis=0)
    second = np.argmax(occ2, axis=0)
    c2 = np.nonzero(col_two)[0]
    cand[bottom[c2], c2] = cand[second[c2], c2]
    return cand


def extract_candidates(img: RangeImage, scan: PointCloud,
                       angle_threshold_deg: float = 10.0) -> np.ndarray:
    """Per-point mask of ground candidates.

    In each image column, consecutive occupied cells are walked bottom-up;
    cells stay candidates while the step inclination atan2(|dz|, dxy) is
    below the threshold (compared via tangents), and marking stops at the
    first steep step. All scan points projecting into a candidate cell
    inherit candidacy.
    """
    n = len(scan)
    mask = np.zeros(n, dtype=bool)
    if n == 0 or not (img.point_index >= 0).any():
        return mask
    cand = _walk_numpy(img.point_index, scan.xyz,
                       math.tan(math.radians(angle_threshold_deg)))
    in_img = img.point_rows >= 0
    mask[in_img] = cand[img.point_rows[in_img], img.point_cols[in_img]]
    return mask


def _fit_plane(pts: np.ndarray):
    """Least-squares plane via covariance eigendecomposition.

    Returns (unit normal with positive z, offset) or None when the points
    span fewer than two directions or the plane is near-vertical.
    """
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered / len(pts)
    w, v = np.linalg.eigh(cov)
    if w[1] < 1e-9:
        return None
    normal = v[:, 0]
    if abs(normal[2]) < 1e-6:
        return None
    if normal[2] < 0:
        normal = -normal
    return normal, float(normal @ mean)


def _sector_ids(xyz: np.ndarray, cfg: GroundSegConfig) -> np.ndarray:
    half = cfg.footprint / 2.0
    ix = np.clip(np.floor((xyz[:, 0] + half) / (cfg.footprint / cfg.sectors_x)),
                 0, cfg.sectors_x - 1).astype(np.int64)
    iy = np.clip(np.floor((xyz[:, 1] + half) / (cfg.footprint / cfg.sectors_y)),
                 0, cfg.sectors_y - 1).astype(np.int64)
    return ix * cfg.sectors_y + iy


def fit_ground_model(scan: PointCloud, candidates: np.ndarray,
                     cfg: GroundSegConfig):
    """Fit per-sector planes to candidates and classify them.

    Returns (ground_mask, GroundModel). Sectors with too few candidates
    borrow the nearest fitted sector's plane; sectors whose candidates are
    degenerate (collinear or near-vertical) mark no ground.
    """
    n_sect = cfg.sectors_x * cfg.sectors_y
    normals = np.full((n_sect, 3), np.nan)
    offsets = np.full(n_sect, np.nan)
    has_plane = np.zeros(n_sect, dtype=bool)
    ground = np.zeros(len(scan), dtype=bool)

    xyz = scan.xyz
    cand_idx = np.nonzero(candidates)[0]
    if len(cand_idx) == 0:
        return ground, GroundModel(normals, offsets, has_plane,
                                   cfg.sectors_x, cfg.sectors_y, cfg.footprint)
    sect_cand = _sector_ids(xyz[cand_idx], cfg)

    # group candidate indices per sector in one radix pass
    order = np.argsort(sect_cand.astype(np.uint16), kind="stable")
    sorted_sid = sect_cand[order]
    uniq_sid, starts = np.unique(sorted_sid, return_index=True)
    bounds = np.append(starts[1:], len(order))
    groups = {int(s): cand_idx[order[lo:hi]]
              for s, lo, hi in zip(uniq_sid, starts, bounds)}

    poisoned = set()
    for sid in range(n_sect):
        idx = groups.get(sid, ())
        if len(idx) < cfg.min_sector_candidates:
            continue
        pts = xyz[idx]
        if len(pts) > cfg.max_fit_points:
            # plane fitting saturates quickly; an even subsample keeps the
            # iteration cost bounded while the final test sees every point
            pts = pts[:: len(pts) // cfg.max_fit_points + 1]
        k = max(3, int(np.ceil(cfg.seed_fraction * len(pts))))
        seeds = pts[np.argpartition(pts[:, 2], k - 1)[:k]]
        work = seeds
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
    return ground, GroundModel(normals, offsets, has_plane,
                               cfg.sectors_x, cfg.sectors_y, cfg.footprint)


def segment_ground_mask(scan: PointCloud, cfg: GroundSegConfig) -> np.ndarray:
    """Boolean ground mask over the scan (full two-step segmentation)."""
    if len(scan) == 0:
        return np.zeros(0, dtype=bool)
    img = build_range_image(scan, cfg.rows, cfg.cols,
                            cfg.fov_up_deg, cfg.fov_down_deg)
    cand = extract_candidates(img, scan, cfg.angle_threshold_deg)
    ground_mask, _ = fit_ground_model(scan, cand, cfg)
    return ground_mask
