"""Sparse voxel map: two columnar tables keyed by packed int64 keys.

Grid cells are (i, j, k) integer triples, floor(coordinate / voxel_size).
Each key packs into one int64 with 21 bits per axis, i highest and k
lowest, so packed keys sort by column (i, j) first and by height k within
a column: the occupied cells of one vertical column are neighbours in
sort order.

The map keeps two tables over the same grid:

* the ground table, one row per ground voxel;
* the object table, one row per non-ground or dynamic voxel, whose class
  byte tells the two apart. Moving a voxel between the non-ground and the
  dynamic submap flips that byte.

A ground voxel and a non-ground voxel may share a key, hence two tables.
Rows are numbered by a voxel id in creation order and never move. A row
holds the packed key and int32 first frame, last frame and observation
count. Frames arrive in strictly increasing order and a key is never both
non-ground and dynamic, so these are exactly the min, max and size of the
set of frames that observed the voxel. A sorted copy of the keys, with the
id of each, answers lookups and column queries by `searchsorted`; a frame's
new keys are merged into it once.

A frame's keys are grouped without sorting its points. Scan order puts a
voxel's points next to each other, so the frame first collapses into runs
of equal neighbouring keys (about one run per five points on a street
scan); only the run keys are sorted and deduplicated, and each point's
voxel id is spread back from its run with `np.repeat`.

Points go into an append-only float32 buffer per table. The object table
keeps the voxel id of each point beside it, so exporting a submap gathers
the rows whose voxel has its class; ground voxels never change class, so
the ground table keeps no ids and exports all its points. Exports stay
float32, the precision the points were stored at.

All mutation happens on the caller's thread (single-writer contract).
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import ContractError, is_number
from .io import PointCloud

# grid indices live in [-2^20, 2^20): 21 bits per axis packed into an int64
_OFF = 1 << 20
_SPAN = 1 << 21
_M21 = _SPAN - 1

GROUND, NONGROUND, DYNAMIC = 0, 1, 2   # class byte of a voxel


def voxel_keys(xyz: np.ndarray, voxel_size: float) -> np.ndarray:
    """(N, 3) int64 grid cells for a point array."""
    cells = np.asarray(xyz, dtype=np.float64) / voxel_size
    return np.floor(cells, out=cells).astype(np.int64)


def pack_key(key) -> int:
    i, j, k = key
    if not (-_OFF <= i < _OFF and -_OFF <= j < _OFF and -_OFF <= k < _OFF):
        raise ContractError(f"voxel index {tuple(key)} outside packable range (+/- 2^20 cells)")
    return ((i + _OFF) << 42) | ((j + _OFF) << 21) | (k + _OFF)


def unpack_key(packed: int) -> tuple:
    return (int((packed >> 42) - _OFF),
            int(((packed >> 21) & _M21) - _OFF),
            int((packed & _M21) - _OFF))


def pack_keys(keys: np.ndarray) -> np.ndarray:
    """Fold (N, 3) integer keys into single int64s for fast grouping."""
    k = keys + _OFF
    if k.size and (k.min() < 0 or k.max() >= _SPAN):
        raise ContractError("voxel index outside packable range (+/- 2^20 cells)")
    packed = k[:, 0] << 42
    packed |= k[:, 1] << 21
    packed |= k[:, 2]
    return packed


def unpack_keys(packed: np.ndarray) -> np.ndarray:
    """(N, 3) int64 keys of packed keys; the inverse of pack_keys."""
    p = np.asarray(packed, dtype=np.int64)
    return np.stack([(p >> 42) - _OFF, ((p >> 21) & _M21) - _OFF,
                     (p & _M21) - _OFF], axis=1)


def _heads(a: np.ndarray) -> np.ndarray:
    """True where a value differs from the one before it, and at the start."""
    head = np.empty(len(a), bool)
    head[:1] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


def _distinct(keys: np.ndarray, inverse: bool = False):
    """The distinct keys in ascending order; np.unique that sorts only runs.

    Equal neighbours collapse into runs first, so only one key per run is
    sorted. With inverse, also returns (rank, length) per run: the index of
    its key among the distinct keys and its number of keys, so that
    np.repeat(x[rank], length) spreads a per-distinct-key array x back over
    keys.
    """
    start = np.flatnonzero(_heads(keys))
    runs = keys[start]
    if not inverse:
        runs.sort()
        return runs[_heads(runs)]
    order = np.argsort(runs)
    runs = runs[order]
    head = _heads(runs)
    rank = np.empty(len(order), np.intp)
    rank[order] = np.cumsum(head) - 1
    return runs[head], rank, np.diff(start, append=len(keys))


def cells_in_range(vertical_range: float, voxel_size: float) -> int:
    """Number of whole cells covered by a vertical range, floor(range/size).

    A small epsilon absorbs IEEE division noise so 3.0 m / 0.2 m is 15, not 14.
    """
    return int(math.floor(vertical_range / voxel_size + 1e-9))


class VoxelTable:
    """Voxel rows in id order, a sorted key index and the points."""

    def __init__(self):
        self.key = np.zeros(0, np.int64)     # packed key of each voxel id
        self.first = np.zeros(0, np.int32)   # first frame that observed it
        self.last = np.zeros(0, np.int32)    # last frame that observed it
        self.count = np.zeros(0, np.int32)   # number of frames that observed it
        self.cls = np.zeros(0, np.uint8)     # GROUND, NONGROUND or DYNAMIC
        self._sorted = np.zeros(0, np.int64)  # the keys in ascending order
        self._ids = np.zeros(0, np.int64)     # voxel id of each sorted key
        self._xyz = [np.zeros((0, 3), np.float32)]  # point chunks, merged on read
        self._vid = [np.zeros(0, np.int32)]         # voxel id of each point, not for ground

    def __len__(self):
        return len(self.key)

    def _match(self, keys: np.ndarray):
        """Sorted position of each key and its voxel id there, -1 if absent."""
        pos = np.searchsorted(self._sorted, keys)
        if not len(self._sorted):
            return pos, np.full(len(keys), -1, np.int64)
        at = np.minimum(pos, len(self._sorted) - 1)
        return pos, np.where(self._sorted[at] == keys, self._ids[at], -1)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Voxel id of each packed key, -1 where the table lacks it."""
        return self._match(keys)[1]

    def insert(self, keys: np.ndarray, xyz: np.ndarray, f: int, cls: int) -> np.ndarray:
        """Add one frame's points with their packed keys.

        Returns the voxel ids of the distinct keys, in ascending key order.
        The keys are grouped by runs of equal neighbours: only one key per
        run is sorted, and the points' voxel ids are repeated from their
        runs, so the cost follows the number of runs, not of points.
        f must be later than any frame a key was inserted with before, as
        process_frame's increasing frames ensure; that keeps first/last/count
        exact. New voxels get class cls; the others keep theirs. Points of
        GROUND inserts get no voxel id, as ground voxels never change class,
        so a table must take GROUND inserts only or none at all: mixing them
        would misalign the ids with the points.
        """
        if cls == GROUND:
            uniq = _distinct(keys)
        else:
            uniq, rank, length = _distinct(keys, inverse=True)
        pos, ids = self._match(uniq)
        old = ids[ids >= 0]
        self.last[old] = f
        self.count[old] += 1
        new = ids < 0
        n_new = int(np.count_nonzero(new))
        if n_new:
            ids[new] = np.arange(len(self.key), len(self.key) + n_new)
            self.key = np.concatenate([self.key, uniq[new]])
            self.first = np.concatenate([self.first, np.full(n_new, f, np.int32)])
            self.last = np.concatenate([self.last, np.full(n_new, f, np.int32)])
            self.count = np.concatenate([self.count, np.ones(n_new, np.int32)])
            self.cls = np.concatenate([self.cls, np.full(n_new, cls, np.uint8)])
            self._sorted = np.insert(self._sorted, pos[new], uniq[new])
            self._ids = np.insert(self._ids, pos[new], ids[new])
        if len(keys):
            self._xyz.append(np.asarray(xyz, dtype=np.float32))
            if cls != GROUND:
                self._vid.append(np.repeat(ids[rank].astype(np.int32), length))
        return ids

    def below(self, keys: np.ndarray, steps: int) -> np.ndarray:
        """Voxel id of the nearest cell under each key within steps, else -1.

        That cell is the key's predecessor in sort order when it lies in
        the key's column: the same answer as probing k-1, ..., k-steps in
        turn and stopping at the first occupied cell.
        """
        if not len(self._sorted):
            return np.full(len(keys), -1, np.int64)
        pos = np.searchsorted(self._sorted, keys) - 1
        at = np.maximum(pos, 0)
        under = self._sorted[at]
        ok = (pos >= 0) & (keys - under <= steps) & (under >> 21 == keys >> 21)
        return np.where(ok, self._ids[at], -1)

    def above(self, keys: np.ndarray, steps: int):
        """(ids, owner): every voxel in cells k+1 ... k+steps over each key.

        owner[n] indexes the key that voxel ids[n] lies over; each key's
        voxels come bottom-up.
        """
        top = np.minimum(keys + steps, keys | _M21)   # never past the column
        lo = np.searchsorted(self._sorted, keys, side="right")
        n = np.searchsorted(self._sorted, top, side="right") - lo
        owner = np.repeat(np.arange(len(keys)), n)
        pos = np.arange(len(owner)) + np.repeat(lo - np.cumsum(n) + n, n)
        return self._ids[pos], owner

    def points(self):
        """(xyz, voxel id) of every point inserted.

        The ids are empty in a table of GROUND inserts, all of whose points
        are ground.
        """
        if len(self._xyz) > 1:
            self._xyz = [np.concatenate(self._xyz)]
            self._vid = [np.concatenate(self._vid)]
        return self._xyz[0], self._vid[0]


class Submap:
    """The voxels of one class in a table: ground, non-ground or dynamic."""

    def __init__(self, table: VoxelTable, cls: int):
        self.table = table
        self.cls = cls

    def ids(self) -> np.ndarray:
        return np.flatnonzero(self.table.cls == self.cls)

    def __len__(self):
        return int(np.count_nonzero(self.table.cls == self.cls))

    def __contains__(self, key):
        try:
            packed = pack_key(key)
        except ContractError:   # no voxel lies outside the packable range
            return False
        vid = self.table.find(np.array([packed]))[0]
        return bool(vid >= 0 and self.table.cls[vid] == self.cls)

    def points(self) -> np.ndarray:
        """(P, 3) float32 points of this submap's voxels, in insertion order.

        For a table without ids, which holds ground points only, this is the
        table's own buffer, not a copy.
        """
        xyz, vid = self.table.points()
        if not len(vid):
            return xyz
        return xyz.take(np.flatnonzero(self.table.cls[vid] == self.cls), axis=0)

    def total_points(self) -> int:
        xyz, vid = self.table.points()
        if not len(vid):
            return len(xyz)
        return int(np.count_nonzero(self.table.cls[vid] == self.cls))


class MapState:
    """Ground, non-ground and dynamic submaps sharing one grid."""

    def __init__(self, voxel_size: float = 0.2):
        if not (is_number(voxel_size) and 0 < voxel_size < math.inf):
            raise ContractError(f"voxel_size must be a number > 0, got {voxel_size!r}")
        self.voxel_size = float(voxel_size)
        self.last_frame = None
        self.ground_table = VoxelTable()
        self.object_table = VoxelTable()   # non-ground and dynamic voxels
        self.ground = Submap(self.ground_table, GROUND)
        self.nonground = Submap(self.object_table, NONGROUND)
        self.dynamic = Submap(self.object_table, DYNAMIC)


def export_static_map(state: MapState) -> PointCloud:
    """A float32 cloud of all points in the ground and non-ground submaps.

    Ground points come first, then non-ground points, each in insertion
    order; dynamic points are left out.
    """
    ground_xyz = state.ground.points()
    obj_xyz, vid = state.object_table.points()
    keep = np.flatnonzero(state.object_table.cls[vid] == NONGROUND)
    n = len(ground_xyz)
    out = np.empty((n + len(keep), 3), np.float32)
    out[:n] = ground_xyz
    obj_xyz.take(keep, axis=0, out=out[n:])
    return PointCloud(out)


def export_dynamic_map(state: MapState) -> PointCloud:
    """A float32 cloud of the dynamic submap's points, in insertion order."""
    return PointCloud(state.dynamic.points())


def dump_csv(state: MapState, path) -> None:
    """One row per voxel: submap, i, j, k, count, min_frame, max_frame."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["submap", "i", "j", "k", "count", "min_frame", "max_frame"])
        for name, submap in (("ground", state.ground),
                             ("nonground", state.nonground),
                             ("dynamic", state.dynamic)):
            t, ids = submap.table, submap.ids()
            for (i, j, k), n, lo, hi in zip(unpack_keys(t.key[ids]).tolist(),
                                            t.count[ids].tolist(), t.first[ids].tolist(),
                                            t.last[ids].tolist()):
                writer.writerow([name, i, j, k, n, lo, hi])
