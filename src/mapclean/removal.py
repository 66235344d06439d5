"""Per-frame dynamic-voxel classification.

A non-ground voxel first observed much later than the ground voxel beneath
it appeared suddenly; one last observed much earlier than the ground beneath
it disappeared suddenly. Downward retrieval catches the first kind by
looking from each non-ground voxel of the current scan down its z-column to
the first ground voxel; upward retrieval catches the second by looking up
from each ground voxel of the current scan over all non-ground voxels in
range. Misclassified voxels whose total observation count stays close to
their ground voxel's count are restored.

Each rule is a handful of array operations over the voxel ids the current
scan touched (see voxmap for the tables they read).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, is_integer, is_number
from .ground import GroundSegConfig, segment_ground_mask
from .io import PointCloud, Pose
from .voxmap import (DYNAMIC, GROUND, NONGROUND, MapState, _distinct,
                     cells_in_range, pack_keys, unpack_keys, voxel_keys)


@dataclass
class RemovalConfig:
    tau_ret: int = 7             # frame-gap threshold for both retrievals
    tau_res: int = 15            # observation-count threshold for restoration
    vertical_range: float = 3.0  # meters searched along the z-column

    def __post_init__(self):
        if not (is_integer(self.tau_ret) and is_integer(self.tau_res)
                and is_number(self.vertical_range)
                and self.tau_ret >= 1 and self.tau_res >= 1 and self.vertical_range > 0):
            raise ContractError(
                "integer tau_ret, tau_res >= 1 and numeric vertical_range > 0 required, "
                f"got {self.tau_ret!r}, {self.tau_res!r}, {self.vertical_range!r}")


def _no_keys():
    return np.zeros(0, np.int64)


@dataclass
class FrameReport:
    """Per-frame counters and phase timings (milliseconds).

    The key arrays hold packed voxel keys (see voxmap.unpack_keys).
    """

    frame: int
    appeared_dynamic: int = 0
    disappeared_dynamic: int = 0
    restored: int = 0
    seg_ms: float = 0.0
    map_ms: float = 0.0
    removal_ms: float = 0.0
    total_ms: float = 0.0
    appeared_keys: np.ndarray = field(default_factory=_no_keys)
    disappeared_keys: np.ndarray = field(default_factory=_no_keys)
    restored_keys: np.ndarray = field(default_factory=_no_keys)

    def log_line(self) -> str:
        return (f"frame={self.frame} appeared={self.appeared_dynamic} "
                f"disappeared={self.disappeared_dynamic} restored={self.restored} "
                f"seg_ms={self.seg_ms:.2f} map_ms={self.map_ms:.2f} "
                f"removal_ms={self.removal_ms:.2f} total_ms={self.total_ms:.2f}")


def _with_ground_below(state: MapState, ids: np.ndarray, steps: int):
    """Object-table ids that have a ground voxel within steps below, and its id."""
    below = state.ground_table.below(state.object_table.key[ids], steps)
    found = below >= 0
    return ids[found], below[found]


def _downward(state: MapState, ids: np.ndarray, steps: int, tau_ret: int) -> np.ndarray:
    """Appear rule over non-ground voxel ids; marks them dynamic, returns the marked."""
    obj = state.object_table
    ids, ground = _with_ground_below(state, ids, steps)
    marked = ids[obj.first[ids] - state.ground_table.first[ground] > tau_ret]
    obj.cls[marked] = DYNAMIC
    return marked


def _upward(state: MapState, ground_ids: np.ndarray, steps: int, tau_ret: int) -> np.ndarray:
    """Disappear rule over ground voxel ids; marks stale non-ground voxels above them."""
    obj, gnd = state.object_table, state.ground_table
    ids, owner = obj.above(gnd.key[ground_ids], steps)
    stale = ((obj.cls[ids] == NONGROUND)
             & (gnd.last[ground_ids][owner] - obj.last[ids] > tau_ret))
    marked = _distinct(ids[stale])
    obj.cls[marked] = DYNAMIC
    return marked


def _restore(state: MapState, ids: np.ndarray, steps: int, tau_res: int) -> np.ndarray:
    """Count-similarity restoration over dynamic voxel ids hit this frame."""
    obj = state.object_table
    ids, ground = _with_ground_below(state, ids, steps)
    restored = ids[np.abs(state.ground_table.count[ground] - obj.count[ids]) < tau_res]
    obj.cls[restored] = NONGROUND
    return restored


def process_frame(scan: PointCloud, pose: Pose, f: int, state: MapState,
                  removal_cfg: RemovalConfig = None,
                  ground_cfg: GroundSegConfig = None,
                  ground_mask: np.ndarray = None) -> FrameReport:
    """Run one scan through segmentation, map insertion and classification.

    Phase order: segment -> transform to world -> insert (ground points to
    the ground submap; non-ground points to the non-ground submap, except
    points whose voxel already sits in the dynamic submap, which accrue
    there and queue that voxel for restoration) -> downward retrieval ->
    upward retrieval -> static restoration.

    ground_mask, when given, replaces the segmentation step (e.g. simulator
    labels or an external segmenter); it must be a bool array with one
    entry per point. The whole frame is checked and keyed before the map
    changes, so bad input raises ContractError and leaves the state as it
    was.
    """
    removal_cfg = removal_cfg or RemovalConfig()
    if not -2**31 <= f < 2**31:
        raise ContractError(f"frame index {f} does not fit the int32 frame columns")
    if state.last_frame is not None and f <= state.last_frame:
        raise ContractError(
            f"frame {f} not after previously processed frame {state.last_frame}")
    if ground_mask is not None:
        ground_mask = np.asarray(ground_mask)
        if ground_mask.dtype != bool:
            raise ContractError(f"ground_mask must be bool, not {ground_mask.dtype}")
        if ground_mask.shape != (len(scan),):
            raise ContractError("ground_mask length does not match scan")
    xyz = np.asarray(scan.xyz, dtype=np.float64)
    if not np.isfinite(xyz).all():
        raise ContractError("scan holds a non-finite point")
    steps = cells_in_range(removal_cfg.vertical_range, state.voxel_size)

    t0 = time.perf_counter()
    if ground_mask is None:
        ground_mask = segment_ground_mask(scan, ground_cfg or GroundSegConfig())
    t1 = time.perf_counter()

    world_xyz = xyz @ pose.rotation.T
    world_xyz += pose.translation
    keys = pack_keys(voxel_keys(world_xyz, state.voxel_size))
    world_xyz = world_xyz.astype(np.float32)   # what the map stores
    on, off = np.flatnonzero(ground_mask), np.flatnonzero(~ground_mask)
    ground_ids = state.ground_table.insert(keys.take(on), world_xyz.take(on, axis=0),
                                           f, GROUND)
    obj = state.object_table
    ids = obj.insert(keys.take(off), world_xyz.take(off, axis=0), f, NONGROUND)
    t2 = time.perf_counter()

    touched_dynamic = ids[obj.cls[ids] == DYNAMIC]
    appeared = _downward(state, ids[obj.cls[ids] == NONGROUND], steps, removal_cfg.tau_ret)
    disappeared = _upward(state, ground_ids, steps, removal_cfg.tau_ret)
    restored = _restore(state, touched_dynamic, steps, removal_cfg.tau_res)
    t3 = time.perf_counter()

    state.last_frame = f
    return FrameReport(
        frame=f,
        appeared_dynamic=len(appeared),
        disappeared_dynamic=len(disappeared),
        restored=len(restored),
        seg_ms=(t1 - t0) * 1e3,
        map_ms=(t2 - t1) * 1e3,
        removal_ms=(t3 - t2) * 1e3,
        total_ms=(t3 - t0) * 1e3,
        appeared_keys=obj.key[appeared],
        disappeared_keys=obj.key[disappeared],
        restored_keys=obj.key[restored],
    )


class OnlinePipeline:
    """Stateful wrapper around process_frame for sequence drivers.

    Tracks cumulative counters and every voxel that was ever restored, which
    the evaluation tooling needs to label voxels static/dynamic/restored.
    """

    def __init__(self, voxel_size: float = 0.2,
                 removal_cfg: RemovalConfig = None,
                 ground_cfg: GroundSegConfig = None):
        self.state = MapState(voxel_size=voxel_size)
        self.removal_cfg = removal_cfg or RemovalConfig()
        self.ground_cfg = ground_cfg or GroundSegConfig()
        self.reports = []
        self.restored_ever = set()   # packed keys

    def process(self, scan: PointCloud, pose: Pose, f: int,
                ground_mask: np.ndarray = None) -> FrameReport:
        report = process_frame(scan, pose, f, self.state,
                               self.removal_cfg, self.ground_cfg, ground_mask)
        self.restored_ever.update(report.restored_keys.tolist())
        self.reports.append(report)
        return report

    def classification(self) -> dict:
        """Final per-voxel label over non-ground and dynamic keys."""
        obj = self.state.object_table
        out = {}
        for key, pk, cls in zip(unpack_keys(obj.key).tolist(), obj.key.tolist(),
                                obj.cls.tolist()):
            out[tuple(key)] = ("dynamic" if cls == DYNAMIC else
                               "restored" if pk in self.restored_ever else "static")
        return out
