"""Two-step ground segmentation: range-image candidate extraction, then
sector-wise PCA plane refinement.

Step one projects the scan into a beam/azimuth range image and walks each
column bottom-up, keeping cells while the inclination angle between
consecutive returns stays shallow. Step two fits a plane per x-y sector to
the surviving candidates (seeded from the lowest points, iterated with an
inlier threshold) and keeps candidates close to their sector plane.

Each step is a few whole-scan numpy passes over 1-D arrays: the projection
takes the nearest point per cell with two `minimum.at` passes (range, then
the lowest index among tied ranges); the walk takes the occupied cells in
column-major order, so each cell's predecessor is the cell below it, and
keeps a running count of steep steps per column; the fit sorts the
candidates by sector once and fits each sector's plane on a gathered
subsample. tests/test_ground.py keeps the per-point and per-cell loops and
the plain per-sector fit that the kernels must match entry for entry.
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
        # a plane is seeded from at least three points
        if not (is_integer(self.min_sector_candidates) and self.min_sector_candidates >= 3):
            raise ContractError("min_sector_candidates must be an integer >= 3, "
                                f"got {self.min_sector_candidates!r}")


@dataclass
class RangeImage:
    point_index: np.ndarray  # (rows, cols) int32, -1 where empty
    point_rows: np.ndarray   # (N,) int32 row of every scan point, -1 outside FOV
    point_cols: np.ndarray   # (N,) int32 col of every scan point, -1 outside FOV


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
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    r = x * x
    r += y * y
    r += z * z
    np.sqrt(r, out=r)    # bit-identical to np.linalg.norm(xyz, axis=1)
    ok = r > 1e-9

    # elevation -> row, then azimuth -> col, in place in one buffer
    buf = np.zeros(n)    # elevation 0 where r is ~0; such points stay out
    np.divide(z, r, out=buf, where=ok)
    np.clip(buf, -1.0, 1.0, out=buf)
    np.arcsin(buf, out=buf)
    np.degrees(buf, out=buf)
    buf -= fov_down_deg
    buf /= fov_up_deg - fov_down_deg
    buf *= rows
    np.floor(buf, out=buf)
    np.clip(buf, -1, rows + 1, out=buf)   # fits int32; outside stays outside
    prow = buf.astype(np.int32)
    prow[prow == rows] = rows - 1  # elevation exactly at the top edge
    np.arctan2(y, x, out=buf)      # (-pi, pi]
    buf += np.pi
    buf /= 2.0 * np.pi
    buf *= cols
    np.floor(buf, out=buf)
    pcol = buf.astype(np.int32)
    np.clip(pcol, 0, cols - 1, out=pcol)

    valid = ok & (prow >= 0) & (prow < rows)
    cell = prow * cols
    cell += pcol
    out = ~valid
    prow[out] = -1
    pcol[out] = -1
    cell[out] = rows * cols   # a spare slot past the image

    # the nearest point wins its cell; on exact range ties the lowest index
    best = np.full(rows * cols + 1, np.inf)
    np.minimum.at(best, cell, r)
    tied = np.flatnonzero(r == best[cell])
    index_img = np.full(rows * cols + 1, n, dtype=np.int32)
    np.minimum.at(index_img, cell[tied], tied.astype(np.int32))
    index_img = index_img[:-1]
    index_img[index_img == n] = -1
    return index_img.reshape(rows, cols), prow, pcol


def build_range_image(scan: PointCloud, rows: int, cols: int,
                      fov_up_deg: float = 2.0,
                      fov_down_deg: float = -24.8) -> RangeImage:
    """Spherical projection; on cell collisions the nearer point wins."""
    if rows < 2 or cols < 2:
        raise ContractError(f"range image needs rows, cols >= 2, got {rows}, {cols}")
    xyz = np.asarray(scan.xyz, dtype=np.float64)
    return RangeImage(*_project_numpy(xyz, rows, cols, float(fov_up_deg), float(fov_down_deg)))


def _walk_numpy(index_img, xyz, tan_thr):
    rows, cols = index_img.shape
    # occupied cells column by column, bottom-up: each cell's previous
    # occupied cell is its predecessor here when both share a column
    flat = index_img.T.ravel()
    occ = flat >= 0
    pos = np.flatnonzero(occ)
    pts = flat[pos].astype(np.intp)   # take() is slow with non-intp indices
    per_col = occ.reshape(cols, rows).sum(axis=1)
    per_col = per_col[per_col > 0]
    first = np.cumsum(per_col) - per_col   # each column's bottom-most cell

    dz = np.diff(xyz[:, 2].take(pts))
    np.abs(dz, out=dz)
    dx = np.diff(xyz[:, 0].take(pts))
    dy = np.diff(xyz[:, 1].take(pts))
    steep = ~(dz < tan_thr * np.hypot(dx, dy))   # NaN steps are steep too

    # a cell passes while its column holds no steep step from the bottom up
    # to it: a running count of steep steps, less the count at the column
    # start (which takes in the step from the column before)
    seen = np.zeros(len(pos), dtype=np.int32)
    np.cumsum(steep, out=seen[1:])
    cand = seen == np.repeat(seen[first], per_col)
    cand[first] = False
    # the bottom-most cell joins iff its step up to the second cell is shallow
    bottom = first[first < len(pos) - 1]
    cand[bottom] = cand[bottom + 1]

    out = np.zeros(rows * cols, dtype=bool)
    out[pos] = cand
    return out.reshape(cols, rows).T


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
    if n == 0 or not (img.point_index >= 0).any():
        return np.zeros(n, dtype=bool)
    cand = _walk_numpy(img.point_index, np.asarray(scan.xyz, dtype=np.float64),
                       math.tan(math.radians(angle_threshold_deg)))
    # cand is a view of a column-major buffer; points outside the image
    # (row and col -1) read some cell and are masked off after
    rows = cand.shape[0]
    mask = cand.T.ravel().take(img.point_cols * rows + img.point_rows)
    mask &= img.point_rows >= 0
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


def _sector_ids(x: np.ndarray, y: np.ndarray, cfg: GroundSegConfig) -> np.ndarray:
    """Sector of each point; overwrites the coordinate arrays x and y."""
    half = cfg.footprint / 2.0
    for v, n in ((x, cfg.sectors_x), (y, cfg.sectors_y)):
        v += half
        v /= cfg.footprint / n
        np.floor(v, out=v)
        np.clip(v, 0, n - 1, out=v)
    x *= cfg.sectors_y
    x += y
    return x.astype(np.intp)


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
    poisoned = np.zeros(n_sect, dtype=bool)
    ground = np.zeros(len(scan), dtype=bool)
    model = GroundModel(normals, offsets, has_plane,
                        cfg.sectors_x, cfg.sectors_y, cfg.footprint)

    xyz = np.asarray(scan.xyz, dtype=np.float64)
    cand_idx = np.flatnonzero(candidates)
    if len(cand_idx) == 0:
        return ground, model
    sect = _sector_ids(xyz[:, 0].take(cand_idx), xyz[:, 1].take(cand_idx), cfg)

    # candidate indices grouped by sector in one radix pass
    by_sector = cand_idx[np.argsort(sect.astype(np.uint16), kind="stable")]
    counts = np.bincount(sect, minlength=n_sect)
    ends = np.cumsum(counts)
    starts = ends - counts

    for sid in np.flatnonzero(counts >= cfg.min_sector_candidates):
        idx = by_sector[starts[sid]:ends[sid]]
        if len(idx) > cfg.max_fit_points:
            # plane fitting saturates quickly; an even subsample keeps the
            # iteration cost bounded while the final test sees every point
            idx = idx[:: len(idx) // cfg.max_fit_points + 1]
        pts = xyz.take(idx, axis=0)
        k = max(3, int(np.ceil(cfg.seed_fraction * len(pts))))
        work = pts[np.argpartition(pts[:, 2], k - 1)[:k]]
        plane, inliers = None, None
        for it in range(cfg.iterations):
            plane = _fit_plane(work)
            if plane is None:
                poisoned[sid] = True
                break
            if it == cfg.iterations - 1:
                break
            near = np.abs(pts @ plane[0] - plane[1]) < cfg.plane_dist_threshold
            if inliers is not None and np.array_equal(near, inliers):
                break   # the same inliers again: every later fit is this plane
            inliers = near
            work = pts[near]
            if len(work) < 3:
                break
        if plane is not None:
            normals[sid], offsets[sid] = plane
            has_plane[sid] = True

    # neighbor fallback for under-populated sectors (not degenerate ones)
    fitted = np.flatnonzero(has_plane)
    if len(fitted):
        fx, fy = fitted // cfg.sectors_y, fitted % cfg.sectors_y
        for sid in np.flatnonzero((counts > 0) & ~has_plane & ~poisoned):
            gx, gy = sid // cfg.sectors_y, sid % cfg.sectors_y
            src = fitted[np.argmin((fx - gx) ** 2 + (fy - gy) ** 2)]
            normals[sid] = normals[src]
            offsets[sid] = offsets[src]
            has_plane[sid] = True

    for sid in np.flatnonzero(has_plane & (counts > 0)):
        idx = by_sector[starts[sid]:ends[sid]]
        dist = np.einsum("ij,j->i", xyz.take(idx, axis=0), normals[sid])
        dist -= offsets[sid]
        ground[idx] = np.abs(dist, out=dist) <= cfg.plane_dist_threshold
    return ground, model


def segment_ground_mask(scan: PointCloud, cfg: GroundSegConfig) -> np.ndarray:
    """Boolean ground mask over the scan (full two-step segmentation)."""
    if len(scan) == 0:
        return np.zeros(0, dtype=bool)
    img = build_range_image(scan, cfg.rows, cfg.cols,
                            cfg.fov_up_deg, cfg.fov_down_deg)
    cand = extract_candidates(img, scan, cfg.angle_threshold_deg)
    ground_mask, _ = fit_ground_model(scan, cand, cfg)
    return ground_mask
