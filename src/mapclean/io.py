"""Scan/pose/label file formats, map writers and rigid transforms.

Formats:
  * velodyne ``.bin`` scans: consecutive little-endian float32 records
    ``x y z intensity`` (16 bytes per point), sensor frame.
  * odometry pose files: one text line per scan, 12 whitespace-separated
    floats forming a row-major 3x4 matrix ``[R | t]`` (sensor -> world).
  * ``.label`` files: one little-endian uint32 per point; the low 16 bits
    hold the semantic class, the high 16 bits the instance id.
  * map output: PCD v0.7 (ascii or binary) and binary little-endian PLY.
    The ascii body holds "%.9g" of each float32 value, which reads back as
    the identical float32; numpy formats it to the bytes Python would
    (module _g9).

Clouds hold float64 points, except maps: a map leaves the voxel store and
reaches its file as float32, the precision it was stored and is written
at, with no float64 copy on the way. On-disk coordinates are float32,
matching the datasets this tooling targets. All math runs in float64:
every function that computes on points reads them as float64, which is
free for a float64 cloud.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError

SCAN_RECORD_BYTES = 16
LABEL_RECORD_BYTES = 4
ROTATION_TOL = 1e-6
MAX_POSE_DRIFT = 1e-3   # larger drift in a pose file is corruption, not rounding


@dataclass
class PointCloud:
    """Ordered 3-D points with optional intensity and per-point labels."""

    xyz: np.ndarray                 # (N, 3) float64, or float32 as given (maps)
    intensity: np.ndarray = None    # (N,) float32, optional
    semantic: np.ndarray = None     # (N,) uint16, optional
    instance: np.ndarray = None     # (N,) uint16, optional
    dropped_nonfinite: int = 0      # points discarded at parse time

    def __post_init__(self):
        if not (isinstance(self.xyz, np.ndarray) and self.xyz.dtype == np.float32):
            self.xyz = np.asarray(self.xyz, dtype=np.float64)
        self.xyz = self.xyz.reshape(-1, 3)
        n = len(self.xyz)
        for name in ("intensity", "semantic", "instance"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr)
                if len(arr) != n:
                    raise ContractError(
                        f"{name} has {len(arr)} entries for {n} points")
                setattr(self, name, arr)

    def __len__(self):
        return len(self.xyz)

    def select(self, mask) -> "PointCloud":
        """Subset by boolean mask or index array; labels follow the points."""
        return PointCloud(
            self.xyz[mask],
            None if self.intensity is None else self.intensity[mask],
            None if self.semantic is None else self.semantic[mask],
            None if self.instance is None else self.instance[mask],
        )


@dataclass
class Pose:
    """Rigid transform mapping sensor coordinates into the world frame."""

    rotation: np.ndarray     # (3, 3), orthonormal, det +1
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not (np.isfinite(self.rotation).all() and np.isfinite(self.translation).all()):
            raise ContractError("pose holds a non-finite value")
        err = np.abs(self.rotation @ self.rotation.T - np.eye(3)).max()
        if err > ROTATION_TOL or np.linalg.det(self.rotation) < 0:
            raise ContractError(f"rotation not orthonormal (drift {err:.3e})")

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        """self applied after other: (self @ other) p = self(other(p))."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


def orthonormalize(r: np.ndarray) -> np.ndarray:
    """Project a drifted rotation back onto SO(3) via SVD."""
    u, _, vt = np.linalg.svd(r)
    fix = np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))])
    return u @ fix @ vt


def read_scan(path) -> PointCloud:
    """Read a binary scan file; drops non-finite points, counting them."""
    path = Path(path)
    size = path.stat().st_size
    if size % SCAN_RECORD_BYTES != 0:
        offset = size - size % SCAN_RECORD_BYTES
        raise ParseError(
            f"{path}: truncated record at byte {offset} "
            f"(file size {size} is not a multiple of {SCAN_RECORD_BYTES})")
    raw = np.fromfile(path, dtype="<f4").reshape(-1, 4)
    finite = np.isfinite(raw).all(axis=1)
    dropped = int(len(raw) - finite.sum())
    if dropped:
        raw = raw[finite]
    return PointCloud(raw[:, :3].astype(np.float64),
                      intensity=raw[:, 3].copy(),
                      dropped_nonfinite=dropped)


def read_poses(path) -> list:
    """Read an odometry pose file, one 3x4 row-major matrix per line.

    Rotations whose orthonormality drift max|R R^T - I| exceeds 1e-6 but
    not MAX_POSE_DRIFT are re-projected onto SO(3) before the pose is
    built. A line that holds no valid pose, or a rotation drifted further,
    raises ParseError naming it.
    """
    poses = []
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 12:
            raise ParseError(
                f"{path}: line {lineno} has {len(tokens)} tokens, expected 12")
        mat = _parse_floats(tokens, f"{path}: line {lineno}").reshape(3, 4)
        r, t = mat[:, :3], mat[:, 3]
        with np.errstate(over="ignore", invalid="ignore"):   # an infinite drift is rejected
            drift = np.abs(r @ r.T - np.eye(3)).max()
        if not drift <= MAX_POSE_DRIFT:
            raise ParseError(f"{path}: line {lineno}: rotation drift {drift:.3e} "
                             f"exceeds {MAX_POSE_DRIFT:g}, not a rotation")
        try:
            if drift > ROTATION_TOL:
                r = orthonormalize(r)
            poses.append(Pose(r, t))
        except (ContractError, np.linalg.LinAlgError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return poses


def _text_lines(path) -> list:
    """The lines of a text file; ParseError if it does not decode."""
    try:
        with open(path) as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not text ({exc.reason} at byte {exc.start})") from None


def _parse_floats(tokens, where: str) -> np.ndarray:
    """float64 values of text tokens; ParseError unless each is a finite number."""
    try:
        vals = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None
    if not np.isfinite(vals).all():
        raise ParseError(f"{where}: non-finite value")
    return vals


def write_poses(path, poses) -> None:
    with open(path, "w") as fh:
        for p in poses:
            mat = np.hstack([p.rotation, p.translation[:, None]])
            fh.write(" ".join(f"{v:.17g}" for v in mat.ravel()) + "\n")


def read_labels(path):
    """Read a .label file -> (semantic uint16 array, instance uint16 array)."""
    path = Path(path)
    size = path.stat().st_size
    if size % LABEL_RECORD_BYTES != 0:
        raise ParseError(
            f"{path}: truncated label file (size {size} not a multiple of 4)")
    raw = np.fromfile(path, dtype="<u4")
    semantic = (raw & 0xFFFF).astype(np.uint16)
    instance = (raw >> 16).astype(np.uint16)
    return semantic, instance


def write_labels(path, semantic, instance=None) -> None:
    semantic = np.asarray(semantic, dtype=np.uint32)
    if instance is None:
        instance = np.zeros_like(semantic)
    packed = (semantic & 0xFFFF) | (np.asarray(instance, dtype=np.uint32) << 16)
    packed.astype("<u4").tofile(path)


def attach_labels(cloud: PointCloud, semantic, instance) -> PointCloud:
    """Pair a scan with its label arrays; lengths must match exactly."""
    if len(semantic) != len(cloud):
        raise ContractError(
            f"label count {len(semantic)} does not match point count {len(cloud)}")
    cloud.semantic = np.asarray(semantic, dtype=np.uint16)
    cloud.instance = np.asarray(instance, dtype=np.uint16)
    return cloud


def transform_to_world(cloud: PointCloud, pose: Pose) -> PointCloud:
    """Map every point p to R p + t; intensity/labels are preserved."""
    out = cloud.select(slice(None))
    out.xyz = np.asarray(cloud.xyz, dtype=np.float64) @ pose.rotation.T + pose.translation
    out.dropped_nonfinite = cloud.dropped_nonfinite
    return out


def range_mask(xyz: np.ndarray, min_range: float, max_range: float) -> np.ndarray:
    """Boolean mask of points whose sensor-frame range lies in [min, max]."""
    r = np.linalg.norm(np.asarray(xyz, dtype=np.float64), axis=1)
    return (r >= min_range) & (r <= max_range)


# --------------------------------------------------------------------------
# map output: PCD v0.7 and binary PLY

MAP_FORMATS = ("ascii-pcd", "binary-pcd", "ply")
# Rows formatted per numpy pass. At 1024 rows a chunk's buffers (~100 kB)
# are reused by the allocator instead of being page-faulted in afresh:
# on a 610k-point map 1024 rows ran fastest, 4096 rows took ~1.3x and
# 16384 rows ~1.6x as long.
ASCII_CHUNK_ROWS = 1024


def _pcd_header(n, with_intensity, data):
    fields = "x y z intensity" if with_intensity else "x y z"
    k = 4 if with_intensity else 3
    return "\n".join([
        "# .PCD v0.7 - Point Cloud Data file format",
        "VERSION 0.7",
        f"FIELDS {fields}",
        "SIZE " + " ".join(["4"] * k),
        "TYPE " + " ".join(["F"] * k),
        "COUNT " + " ".join(["1"] * k),
        f"WIDTH {n}",
        "HEIGHT 1",
        "VIEWPOINT 0 0 0 1 0 0 0",
        f"POINTS {n}",
        f"DATA {data}",
    ]) + "\n"


def write_map(path, cloud: PointCloud, format: str = "ascii-pcd") -> None:
    """Write a cloud to disk as float32; read_map() on the result returns
    those float32 coordinates. A float32 cloud is written without a copy."""
    if format not in MAP_FORMATS:
        raise ContractError(f"unknown map format {format!r}, expected one of {MAP_FORMATS}")
    path = Path(path)
    n = len(cloud)
    with_int = cloud.intensity is not None
    cols = np.asarray(cloud.xyz, dtype="<f4")
    if with_int:
        cols = np.column_stack([cols, np.asarray(cloud.intensity, dtype="<f4")])
    try:
        if format == "ascii-pcd":
            from ._g9 import format_g9   # here, so that importing mapclean skips it
            with open(path, "wb") as fh:
                fh.write(_pcd_header(n, with_int, "ascii").encode("ascii"))
                for lo in range(0, n, ASCII_CHUNK_ROWS):
                    fh.write(format_g9(cols[lo:lo + ASCII_CHUNK_ROWS]))
        elif format == "binary-pcd":
            with open(path, "wb") as fh:
                fh.write(_pcd_header(n, with_int, "binary").encode("ascii"))
                fh.write(cols.tobytes())
        else:
            props = ["x", "y", "z"] + (["intensity"] if with_int else [])
            header = "\n".join(
                ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
                + [f"property float {p}" for p in props]
                + ["end_header"]) + "\n"
            with open(path, "wb") as fh:
                fh.write(header.encode("ascii"))
                fh.write(cols.tobytes())
    except OSError as exc:
        raise OSError(f"failed writing map to {path}: {exc}") from exc


def read_map(path) -> PointCloud:
    """Read back a map written by write_map (PCD ascii/binary or binary PLY)
    as a cloud of the file's float32 coordinates."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(3)
    if magic == b"ply":
        return _read_ply(path)
    return _read_pcd(path)


def _read_header(fh, path, last: str) -> list:
    """Stripped header lines up to and including the first whose keyword is `last`."""
    lines = []
    while True:
        raw = fh.readline()
        if not raw:
            raise ParseError(f"{path}: file ends inside the header, before {last!r}")
        try:
            line = raw.decode("ascii").strip()
        except UnicodeDecodeError:
            raise ParseError(f"{path}: header line {len(lines) + 1} is not ascii") from None
        lines.append(line)
        if line.partition(" ")[0] == last:
            return lines


def _point_count(value: str, path, what: str) -> int:
    if not value.isdigit():  # the header is ascii, so only 0-9 pass
        raise ParseError(f"{path}: {what} {value!r} is not a point count")
    return int(value)


def _check_xyz(fields: list, path) -> None:
    if fields[:3] != ["x", "y", "z"]:
        raise ParseError(f"{path}: fields {fields} do not start with x y z")


def _read_binary(fh, path, n: int, k: int) -> np.ndarray:
    want = 4 * k * n
    body = fh.read(want)
    if len(body) < want:
        raise ParseError(f"{path}: binary body holds {len(body)} bytes, "
                         f"{want} expected for {n} points of {k} fields")
    return np.frombuffer(body, dtype="<f4").reshape(n, k)


def _read_pcd(path) -> PointCloud:
    with open(path, "rb") as fh:
        header = {}
        for line in _read_header(fh, path, "DATA"):
            if not line.startswith("#"):
                key, _, rest = line.partition(" ")
                header[key] = rest
        if "POINTS" not in header:
            raise ParseError(f"{path}: PCD header has no POINTS line")
        fields = header.get("FIELDS", "x y z").split()
        _check_xyz(fields, path)
        n = _point_count(header["POINTS"], path, "POINTS")
        k = len(fields)
        if header["DATA"] == "ascii":
            try:
                arr = (np.loadtxt(fh, dtype=np.float32, ndmin=2) if n
                       else np.zeros((0, k), np.float32))
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}") from None
            if arr.shape != (n, k):
                raise ParseError(f"{path}: ascii body holds {arr.shape[0]} rows of "
                                 f"{arr.shape[1]} values, {n} rows of {k} expected")
        elif header["DATA"] == "binary":
            arr = _read_binary(fh, path, n, k)
        else:
            raise ParseError(f"{path}: unsupported PCD DATA {header['DATA']!r}")
    intensity = arr[:, 3].copy() if "intensity" in fields else None
    return PointCloud(arr[:, :3].astype(np.float32), intensity=intensity)


def _read_ply(path) -> PointCloud:
    with open(path, "rb") as fh:
        n = 0
        props = []
        for line in _read_header(fh, path, "end_header"):
            if line.startswith("element vertex"):
                n = _point_count(line.split()[-1], path, "element vertex")
            elif line.startswith("property"):
                props.append(line.split()[-1])
        _check_xyz(props, path)
        arr = _read_binary(fh, path, n, len(props))
    intensity = arr[:, props.index("intensity")].copy() if "intensity" in props else None
    return PointCloud(arr[:, :3].astype(np.float32), intensity=intensity)


# --------------------------------------------------------------------------
# odometry calibration

def read_calibration(path) -> dict:
    """Parse a KITTI-style calib.txt into name -> 3x4 row-major matrices.

    Lines of other lengths are skipped; a 12-value line that holds a
    non-number or a non-finite value raises ParseError.
    """
    out = {}
    for lineno, line in enumerate(_text_lines(path), start=1):
        name, _, rest = line.partition(":")
        vals = rest.split()
        if len(vals) == 12:
            out[name.strip()] = _parse_floats(vals, f"{path}: line {lineno}").reshape(3, 4)
    return out


def poses_to_velodyne_frame(poses, tr_3x4: np.ndarray) -> list:
    """Rebase camera-frame odometry poses onto the velodyne frame.

    tr_3x4 maps velodyne coordinates into the camera frame; the returned
    poses map velodyne points of each scan into the first scan's velodyne
    world frame: T' = Tr^-1 . T . Tr.
    """
    tr = np.eye(4)
    tr[:3, :] = tr_3x4
    tr_inv = np.linalg.inv(tr)
    out = []
    for p in poses:
        m = tr_inv @ p.matrix() @ tr
        out.append(Pose(orthonormalize(m[:3, :3]), m[:3, 3]))
    return out


# --------------------------------------------------------------------------
# sequence loading

def list_scan_files(scan_dir) -> list:
    files = sorted(Path(scan_dir).glob("*.bin"))
    if not files:
        raise FileNotFoundError(f"no .bin scans under {scan_dir}")
    return files


def load_sequence(scan_dir, pose_file, start=None, end=None,
                  min_range=None, max_range=None, label_dir=None):
    """Yield (frame_index, cloud, pose) over a scan directory.

    Frame indices refer to positions in the full sequence; start/end bound
    them inclusively. The range filter, when given, is applied in the
    sensor frame before anything else sees the points.
    """
    files = list_scan_files(scan_dir)
    poses = read_poses(pose_file)
    if len(files) != len(poses):
        raise ContractError(
            f"{len(files)} scans but {len(poses)} poses")
    lo = 0 if start is None else start
    hi = len(files) - 1 if end is None else end
    if lo < 0 or hi >= len(files) or lo > hi:
        raise ContractError(
            f"frame window [{lo}, {hi}] outside sequence of {len(files)} scans")
    for idx in range(lo, hi + 1):
        cloud = read_scan(files[idx])
        if label_dir is not None:
            sem, inst = read_labels(Path(label_dir) / (files[idx].stem + ".label"))
            attach_labels(cloud, sem, inst)
        if min_range is not None or max_range is not None:
            keep = range_mask(cloud.xyz,
                              0.0 if min_range is None else min_range,
                              np.inf if max_range is None else max_range)
            cloud = cloud.select(keep)
        yield idx, cloud, poses[idx]
