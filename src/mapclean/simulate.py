"""Synthetic LiDAR scenes with exact labels, plus a brute-force
classification oracle.

Scenes are a ground plane, axis-aligned static boxes and rigid moving boxes
with scripted linear trajectories and visibility windows. One ray is cast
per beam cell; the nearest hit wins and carries its surface's label. With
zero range noise, points lie exactly on the scripted surfaces.

Scenario files are YAML:

    name: crossing
    frames: 60
    seed: 7
    noise_sigma: 0.0
    ground: {height: 0.0, slope_x: 0.0, slope_y: 0.0}
    sensor:
      position: [0.0, 0.0, 1.7]
      velocity: [0.0, 0.0, 0.0]      # meters per frame
      yaw_rate_deg: 0.0              # degrees per frame
      rows: 24
      cols: 180
      fov_up_deg: 2.0
      fov_down_deg: -24.8
      max_range: 60.0
    static_objects:
      - {center: [12.0, 4.0, 1.0], size: [2.0, 2.0, 2.0]}
    dynamic_objects:
      - size: [1.6, 1.2, 1.0]
        start: [-12.0, 1.0, 0.9]     # center at the first visible frame
        velocity: [0.5, 0.0, 0.0]
        yaw_rate_deg: 0.0
        visible: [20, 59]            # inclusive frame interval

Point labels: 0 = ground, 1 = static structure, 2 + i = dynamic object i.
Exports use the common semantic conventions: ground 40, static 50, dynamic
252 with instance = object index + 1, so the file-based pipeline consumes
rendered sequences unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as mio
from .errors import ContractError
from .io import PointCloud, Pose
from .removal import RemovalConfig
from .voxmap import cells_in_range, voxel_keys

LABEL_GROUND = 0
LABEL_STATIC = 1
LABEL_DYNAMIC_BASE = 2

EXPORT_GROUND = 40
EXPORT_STATIC = 50
EXPORT_DYNAMIC = 252


@dataclass
class GroundPlane:
    height: float = 0.0
    slope_x: float = 0.0   # dz/dx
    slope_y: float = 0.0   # dz/dy

    def normal_offset(self):
        n = np.array([-self.slope_x, -self.slope_y, 1.0])
        n /= np.linalg.norm(n)
        return n, float(n @ np.array([0.0, 0.0, self.height]))


@dataclass
class Box:
    center: np.ndarray
    size: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.size = np.asarray(self.size, dtype=np.float64).reshape(3)


@dataclass
class DynamicObject:
    size: np.ndarray
    start: np.ndarray            # center position at frame visible[0]
    velocity: np.ndarray         # meters per frame
    visible: tuple               # inclusive (t0, t1)
    yaw_rate_deg: float = 0.0

    def __post_init__(self):
        self.size = np.asarray(self.size, dtype=np.float64).reshape(3)
        self.start = np.asarray(self.start, dtype=np.float64).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=np.float64).reshape(3)
        self.visible = (int(self.visible[0]), int(self.visible[1]))

    def visible_at(self, f: int) -> bool:
        return self.visible[0] <= f <= self.visible[1]

    def pose_at(self, f: int) -> Pose:
        dt = f - self.visible[0]
        yaw = math.radians(self.yaw_rate_deg * dt)
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return Pose(rot, self.start + self.velocity * dt)


@dataclass
class SensorModel:
    position: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.7]))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw_rate_deg: float = 0.0
    rows: int = 24
    cols: int = 180
    fov_up_deg: float = 2.0
    fov_down_deg: float = -24.8
    max_range: float = 60.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=np.float64).reshape(3)

    def pose_at(self, f: int) -> Pose:
        yaw = math.radians(self.yaw_rate_deg * f)
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return Pose(rot, self.position + self.velocity * f)

    def ray_directions(self) -> np.ndarray:
        """(rows*cols, 3) unit directions in the sensor frame."""
        el = np.radians(self.fov_down_deg
                        + (np.arange(self.rows) + 0.5)
                        * (self.fov_up_deg - self.fov_down_deg) / self.rows)
        az = -np.pi + (np.arange(self.cols) + 0.5) * 2.0 * np.pi / self.cols
        el_g, az_g = np.meshgrid(el, az, indexing="ij")
        d = np.stack([np.cos(el_g) * np.cos(az_g),
                      np.cos(el_g) * np.sin(az_g),
                      np.sin(el_g)], axis=-1)
        return d.reshape(-1, 3)


@dataclass
class Scenario:
    name: str = "scene"
    frames: int = 1
    ground: GroundPlane = field(default_factory=GroundPlane)
    sensor: SensorModel = field(default_factory=SensorModel)
    static_objects: list = field(default_factory=list)
    dynamic_objects: list = field(default_factory=list)
    noise_sigma: float = 0.0
    seed: int = 0

    def validate(self):
        problems = []
        if self.frames < 1:
            problems.append(f"frames must be >= 1, got {self.frames}")
        if self.sensor.rows < 2 or self.sensor.cols < 2:
            problems.append("sensor rows and cols must be >= 2")
        if self.sensor.fov_up_deg <= self.sensor.fov_down_deg:
            problems.append("fov_up_deg must exceed fov_down_deg")
        if self.sensor.max_range <= 0:
            problems.append("max_range must be positive")
        if self.noise_sigma < 0:
            problems.append("noise_sigma must be >= 0")
        for i, b in enumerate(self.static_objects):
            if (b.size <= 0).any():
                problems.append(f"static object {i} has non-positive extent")
        for i, d in enumerate(self.dynamic_objects):
            if (d.size <= 0).any():
                problems.append(f"dynamic object {i} has non-positive extent")
            t0, t1 = d.visible
            if not (0 <= t0 <= t1 < self.frames):
                problems.append(
                    f"dynamic object {i} visibility {d.visible} outside [0, {self.frames})")
        if problems:
            raise ContractError("invalid scenario:\n  " + "\n  ".join(problems))
        return self


@dataclass
class LabeledFrame:
    scan: PointCloud     # sensor frame
    pose: Pose
    labels: np.ndarray   # (N,) int: 0 ground, 1 static, 2+i dynamic object i


def _ray_box(origins, dirs, box: Box, pose: Pose = None):
    """Slab intersection; returns entry distance per ray (inf on miss)."""
    if pose is not None:
        o = (origins - pose.translation) @ pose.rotation
        d = dirs @ pose.rotation
    else:
        o, d = origins, dirs
    lo = box.center - box.size / 2.0
    hi = box.center + box.size / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        t1 = (lo - o) * inv
        t2 = (hi - o) * inv
    tmin = np.nanmax(np.minimum(t1, t2), axis=1)
    tmax = np.nanmin(np.maximum(t1, t2), axis=1)
    t = np.where((tmax >= tmin) & (tmax > 0), np.maximum(tmin, 1e-9), np.inf)
    return t


def render_frame(sc: Scenario, f: int) -> LabeledFrame:
    sensor_pose = sc.sensor.pose_at(f)
    dirs_sensor = sc.sensor.ray_directions()
    dirs = dirs_sensor @ sensor_pose.rotation.T
    origins = np.broadcast_to(sensor_pose.translation, dirs.shape)

    n, d_off = sc.ground.normal_offset()
    denom = dirs @ n
    with np.errstate(divide="ignore", invalid="ignore"):
        t_plane = (d_off - origins @ n) / denom
    hit = np.isfinite(t_plane) & (t_plane > 1e-9)
    best_t = np.where(hit, t_plane, np.inf)
    best_label = np.where(hit, LABEL_GROUND, -1)

    def consider(t, label):
        closer = t < best_t
        return np.where(closer, t, best_t), np.where(closer, label, best_label)

    for box in sc.static_objects:
        best_t, best_label = consider(_ray_box(origins, dirs, box), LABEL_STATIC)
    for i, obj in enumerate(sc.dynamic_objects):
        if not obj.visible_at(f):
            continue
        t = _ray_box(origins, dirs, Box(np.zeros(3), obj.size), obj.pose_at(f))
        best_t, best_label = consider(t, LABEL_DYNAMIC_BASE + i)

    keep = np.isfinite(best_t) & (best_t <= sc.sensor.max_range)
    t = best_t[keep]
    if sc.noise_sigma > 0:
        rng = np.random.default_rng(sc.seed * 1_000_003 + f)
        t = t + rng.normal(0.0, sc.noise_sigma, size=t.shape)
    pts_world = origins[keep] + t[:, None] * dirs[keep]
    pts_sensor = (pts_world - sensor_pose.translation) @ sensor_pose.rotation
    return LabeledFrame(PointCloud(pts_sensor), sensor_pose, best_label[keep])


def render_sequence(sc: Scenario) -> list:
    sc.validate()
    return [render_frame(sc, f) for f in range(sc.frames)]


def ground_mask_from_labels(labels: np.ndarray) -> np.ndarray:
    return labels == LABEL_GROUND


def ground_cfg_for(sc: Scenario, **overrides):
    """Segmentation config whose image grid matches the scenario's beams."""
    from .ground import GroundSegConfig
    kwargs = dict(rows=sc.sensor.rows, cols=sc.sensor.cols,
                  fov_up_deg=sc.sensor.fov_up_deg,
                  fov_down_deg=sc.sensor.fov_down_deg)
    kwargs.update(overrides)
    return GroundSegConfig(**kwargs)


def semantic_from_labels(labels: np.ndarray):
    """Map simulator labels to exported (semantic, instance) arrays."""
    semantic = np.full(len(labels), EXPORT_STATIC, dtype=np.uint16)
    semantic[labels == LABEL_GROUND] = EXPORT_GROUND
    dyn = labels >= LABEL_DYNAMIC_BASE
    semantic[dyn] = EXPORT_DYNAMIC
    instance = np.zeros(len(labels), dtype=np.uint16)
    instance[dyn] = labels[dyn] - LABEL_DYNAMIC_BASE + 1
    return semantic, instance


# --------------------------------------------------------------------------
# scenario files

def _require_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ContractError(f"unknown keys in {where}: {sorted(unknown)}")


def scenario_from_dict(data: dict) -> Scenario:
    _require_keys(data, {"name", "frames", "seed", "noise_sigma", "ground",
                         "sensor", "static_objects", "dynamic_objects"},
                  "scenario")
    ground = data.get("ground", {})
    _require_keys(ground, {"height", "slope_x", "slope_y"}, "ground")
    sensor = data.get("sensor", {})
    _require_keys(sensor, {"position", "velocity", "yaw_rate_deg", "rows",
                           "cols", "fov_up_deg", "fov_down_deg", "max_range"},
                  "sensor")
    statics = []
    for i, b in enumerate(data.get("static_objects") or []):
        _require_keys(b, {"center", "size"}, f"static_objects[{i}]")
        statics.append(Box(b["center"], b["size"]))
    dynamics = []
    for i, d in enumerate(data.get("dynamic_objects") or []):
        _require_keys(d, {"size", "start", "velocity", "visible", "yaw_rate_deg"},
                      f"dynamic_objects[{i}]")
        dynamics.append(DynamicObject(d["size"], d["start"], d["velocity"],
                                      tuple(d["visible"]),
                                      d.get("yaw_rate_deg", 0.0)))
    sc = Scenario(
        name=data.get("name", "scene"),
        frames=int(data.get("frames", 1)),
        ground=GroundPlane(**ground),
        sensor=SensorModel(**sensor),
        static_objects=statics,
        dynamic_objects=dynamics,
        noise_sigma=float(data.get("noise_sigma", 0.0)),
        seed=int(data.get("seed", 0)),
    )
    return sc.validate()


def load_scenario(path) -> Scenario:
    import yaml  # off the `import mapclean` path

    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ContractError(f"{path}: scenario file must hold a mapping")
    return scenario_from_dict(data)


def export_kitti(frames: list, out_dir) -> None:
    """Write velodyne/*.bin, labels/*.label and poses.txt for a sequence."""
    out = Path(out_dir)
    (out / "velodyne").mkdir(parents=True, exist_ok=True)
    (out / "labels").mkdir(parents=True, exist_ok=True)
    poses = []
    for i, fr in enumerate(frames):
        stem = f"{i:06d}"
        n = len(fr.scan)
        rec = np.zeros((n, 4), dtype="<f4")
        rec[:, :3] = fr.scan.xyz.astype(np.float32)
        rec.tofile(out / "velodyne" / f"{stem}.bin")
        semantic, instance = semantic_from_labels(fr.labels)
        mio.write_labels(out / "labels" / f"{stem}.label", semantic, instance)
        poses.append(fr.pose)
    mio.write_poses(out / "poses.txt", poses)


# --------------------------------------------------------------------------
# brute-force classification oracle
#
# Replays a labeled sequence with plain dict/set bookkeeping and applies the
# appear, disappear and restoration rules per point, with no cached
# statistics, no per-frame de-duplication and no shared code with the
# online implementation. Intended as the independent reference the pipeline
# is checked against.

def oracle_classify(frames: list, cfg: RemovalConfig, voxel_size: float = 0.2,
                    ground_truth_segmentation: bool = True,
                    ground_cfg=None, min_range: float = None,
                    max_range: float = None) -> dict:
    """Classify every observed voxel as static, dynamic or restored.

    When ground_truth_segmentation is set, the simulator labels decide what
    is ground; otherwise the segmentation module is consulted, isolating or
    including its error respectively.
    """
    steps = cells_in_range(cfg.vertical_range, voxel_size)
    gmap, nmap, dmap = {}, {}, {}
    restored_ever = set()

    if not ground_truth_segmentation:
        from .ground import GroundSegConfig, segment_ground_mask
        ground_cfg = ground_cfg or GroundSegConfig()

    for f, frame in enumerate(frames):
        scan = frame.scan
        labels = frame.labels
        if min_range is not None or max_range is not None:
            keep = mio.range_mask(scan.xyz,
                                  0.0 if min_range is None else min_range,
                                  np.inf if max_range is None else max_range)
            scan = scan.select(keep)
            labels = labels[keep]
        if ground_truth_segmentation:
            gsel = ground_mask_from_labels(labels)
        else:
            gsel = segment_ground_mask(scan, ground_cfg)
        world = scan.xyz @ frame.pose.rotation.T + frame.pose.translation
        gkeys = [tuple(k) for k in voxel_keys(world[gsel], voxel_size)]
        ukeys = [tuple(k) for k in voxel_keys(world[~gsel], voxel_size)]

        for key in gkeys:
            gmap.setdefault(key, set()).add(f)
        touched_dynamic = []
        for key in ukeys:
            if key in dmap:
                dmap[key].add(f)
                touched_dynamic.append(key)
            else:
                nmap.setdefault(key, set()).add(f)

        # appear rule, walked per point of the current non-ground set
        for key in ukeys:
            if key not in nmap:
                continue
            i, j, k = key
            gbelow = None
            for s in range(1, steps + 1):
                if (i, j, k - s) in gmap:
                    gbelow = (i, j, k - s)
                    break
            if gbelow is None:
                continue
            if min(nmap[key]) - min(gmap[gbelow]) > cfg.tau_ret:
                dmap.setdefault(key, set()).update(nmap.pop(key))

        # disappear rule, walked per point of the current ground set
        for gkey in gkeys:
            i, j, k = gkey
            gmax = max(gmap[gkey])
            for s in range(1, steps + 1):
                key = (i, j, k + s)
                if key in nmap and gmax - max(nmap[key]) > cfg.tau_ret:
                    dmap.setdefault(key, set()).update(nmap.pop(key))

        # restoration of dynamic voxels hit by this frame's points
        for key in touched_dynamic:
            if key not in dmap:
                continue
            i, j, k = key
            gbelow = None
            for s in range(1, steps + 1):
                if (i, j, k - s) in gmap:
                    gbelow = (i, j, k - s)
                    break
            if gbelow is None:
                continue
            if abs(len(gmap[gbelow]) - len(dmap[key])) < cfg.tau_res:
                nmap.setdefault(key, set()).update(dmap.pop(key))
                restored_ever.add(key)

    out = {}
    for key in nmap:
        out[key] = "restored" if key in restored_ever else "static"
    for key in dmap:
        out[key] = "dynamic"
    return out
