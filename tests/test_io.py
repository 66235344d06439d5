import signal
import struct
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mapclean import io as mio
from mapclean.errors import ContractError, ParseError
from mapclean.io import (PointCloud, Pose, attach_labels, orthonormalize,
                         range_mask, read_calibration, read_labels, read_map,
                         read_poses, read_scan, transform_to_world, write_labels,
                         write_map, write_poses)


def random_pose(rng):
    q = rng.standard_normal((3, 3))
    r = orthonormalize(q)
    return Pose(r, rng.standard_normal(3) * 10.0)


# -- scans -------------------------------------------------------------------

def test_read_scan_two_points(tmp_path):
    raw = struct.pack("<8f", 1.0, 2.0, 3.0, 0.5, 4.0, 5.0, 6.0, 0.1)
    p = tmp_path / "scan.bin"
    p.write_bytes(raw)
    cloud = read_scan(p)
    assert len(cloud) == 2
    np.testing.assert_allclose(cloud.xyz, [[1, 2, 3], [4, 5, 6]])
    np.testing.assert_allclose(cloud.intensity, [0.5, 0.1])


def test_read_scan_empty(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    assert len(read_scan(p)) == 0


def test_read_scan_truncated_names_offset(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\x00" * 20)  # 1 record + 4 stray bytes
    with pytest.raises(ParseError, match="byte 16"):
        read_scan(p)


def test_read_scan_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_scan(tmp_path / "nope.bin")


def test_read_scan_drops_nonfinite(tmp_path):
    raw = struct.pack("<8f", 1.0, 2.0, 3.0, 0.5, np.nan, 5.0, 6.0, 0.1)
    p = tmp_path / "scan.bin"
    p.write_bytes(raw)
    cloud = read_scan(p)
    assert len(cloud) == 1
    assert cloud.dropped_nonfinite == 1


# -- poses -------------------------------------------------------------------

def test_read_poses_identity(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
    poses = read_poses(p)
    assert len(poses) == 1
    np.testing.assert_allclose(poses[0].rotation, np.eye(3))
    np.testing.assert_allclose(poses[0].translation, 0.0)


def test_read_poses_translation(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text("1 0 0 5 0 1 0 0 0 0 1 0\n")
    np.testing.assert_allclose(read_poses(p)[0].translation, [5, 0, 0])


def test_poses_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    poses = [random_pose(rng) for _ in range(3)]
    p = tmp_path / "poses.txt"
    write_poses(p, poses)
    back = read_poses(p)
    for a, b in zip(poses, back):
        assert (a.rotation == b.rotation).all()
        assert (a.translation == b.translation).all()


def test_read_poses_malformed_line(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text("1 0 0 0 0 1 0 0 0 0 1\n")
    with pytest.raises(ParseError, match="line 1"):
        read_poses(p)


def test_read_poses_reorthonormalizes(tmp_path):
    r = np.eye(3) + 1e-4 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    row = " ".join(str(v) for v in np.hstack([r, np.zeros((3, 1))]).ravel())
    p = tmp_path / "poses.txt"
    p.write_text(row + "\n")
    pose = read_poses(p)[0]
    err = np.abs(pose.rotation @ pose.rotation.T - np.eye(3)).max()
    assert err <= 1e-6


@pytest.mark.parametrize("row", ["0 0 0 0 0 0 0 0 0 0 0 0",       # no rotation at all
                                 "5 0 0 0 0 5 0 0 0 0 5 0",       # a scaled identity
                                 "1 0.002 0 0 0 1 0 0 0 0 1 0"])  # drift 2e-3, past the bound
def test_read_poses_far_from_rotation_names_line(tmp_path, row):
    p = tmp_path / "poses.txt"
    p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" + row + "\n")
    with pytest.raises(ParseError, match="line 2: rotation drift"):
        read_poses(p)


def test_pose_rejects_non_orthonormal():
    with pytest.raises(ContractError):
        Pose(np.eye(3) * 2.0, np.zeros(3))


def test_pose_rejects_non_finite():
    nan_rotation = np.eye(3)
    nan_rotation[1, 2] = np.nan
    for rotation, translation in ((np.eye(3), [np.inf, 0, 0]), (np.eye(3), [0, np.nan, 0]),
                                  (nan_rotation, np.zeros(3))):
        with pytest.raises(ContractError, match="non-finite"):
            Pose(rotation, translation)


@pytest.mark.parametrize("token,at", [("nan", 0), ("inf", 3), ("-inf", 11), ("NaN", 5)])
def test_read_poses_non_finite_names_line(tmp_path, token, at):
    row = "1 0 0 0 0 1 0 0 0 0 1 0".split()
    row[at] = token
    p = tmp_path / "poses.txt"
    p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" * 3 + " ".join(row) + "\n")
    with pytest.raises(ParseError, match="line 4: non-finite"):
        read_poses(p)


def test_read_poses_reflection_is_parse_error(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text("-1 0 0 0 0 1 0 0 0 0 1 0\n")
    with pytest.raises(ParseError, match="line 1"):
        read_poses(p)


# -- calibration -------------------------------------------------------------

CALIB_TR = "Tr: 1 0 0 0.5 0 1 0 0 0 0 1 0\n"


def test_read_calibration(tmp_path):
    p = tmp_path / "calib.txt"
    p.write_text("P0: 1 2 3\n" + CALIB_TR)
    calib = read_calibration(p)
    assert list(calib) == ["Tr"]
    np.testing.assert_array_equal(calib["Tr"][:, 3], [0.5, 0, 0])


@pytest.mark.parametrize("bad", ["x", "nan", "inf"])
def test_read_calibration_bad_value_is_parse_error(tmp_path, bad):
    p = tmp_path / "calib.txt"
    p.write_text(CALIB_TR + CALIB_TR.replace("0.5", bad))
    with pytest.raises(ParseError, match="line 2"):
        read_calibration(p)


# -- labels ------------------------------------------------------------------

def test_read_labels_decode(tmp_path):
    p = tmp_path / "f.label"
    p.write_bytes(struct.pack("<2I", 0x00000009, 0x000100FC))
    semantic, instance = read_labels(p)
    assert semantic.tolist() == [9, 252]
    assert instance.tolist() == [0, 1]


def test_labels_roundtrip(tmp_path):
    p = tmp_path / "f.label"
    write_labels(p, [40, 252, 50], [0, 3, 0])
    semantic, instance = read_labels(p)
    assert semantic.tolist() == [40, 252, 50]
    assert instance.tolist() == [0, 3, 0]


def test_read_labels_truncated(tmp_path):
    p = tmp_path / "f.label"
    p.write_bytes(b"\x00" * 6)
    with pytest.raises(ParseError):
        read_labels(p)


def test_attach_labels_length_mismatch():
    cloud = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ContractError):
        attach_labels(cloud, np.zeros(2, np.uint16), np.zeros(2, np.uint16))


# -- transforms --------------------------------------------------------------

def test_transform_identity():
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
    out = transform_to_world(cloud, Pose.identity())
    np.testing.assert_array_equal(out.xyz, cloud.xyz)


def test_transform_translation():
    cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]))
    out = transform_to_world(cloud, Pose(np.eye(3), [0, 0, 5]))
    np.testing.assert_allclose(out.xyz, [[1, 0, 5]])


def test_transform_is_isometry():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.standard_normal((50, 3)) * 5.0)
    out = transform_to_world(cloud, random_pose(rng))
    d_in = np.linalg.norm(cloud.xyz[:, None] - cloud.xyz[None], axis=-1)
    d_out = np.linalg.norm(out.xyz[:, None] - out.xyz[None], axis=-1)
    np.testing.assert_allclose(d_out, d_in, atol=1e-9)


def test_transform_composition():
    rng = np.random.default_rng(11)
    cloud = PointCloud(rng.standard_normal((30, 3)))
    p1, p2 = random_pose(rng), random_pose(rng)
    a = transform_to_world(transform_to_world(cloud, p1), p2)
    b = transform_to_world(cloud, p2.compose(p1))
    np.testing.assert_allclose(a.xyz, b.xyz, atol=1e-9)


def test_transform_preserves_labels():
    cloud = PointCloud(np.zeros((2, 3)), semantic=np.array([40, 252], np.uint16),
                       instance=np.array([0, 1], np.uint16))
    out = transform_to_world(cloud, Pose(np.eye(3), [1, 2, 3]))
    assert out.semantic.tolist() == [40, 252]
    assert out.instance.tolist() == [0, 1]


def test_range_mask():
    xyz = np.array([[0.1, 0, 0], [1.0, 0, 0], [100.0, 0, 0]])
    keep = range_mask(xyz, 0.5, 80.0)
    assert keep.tolist() == [False, True, False]


# -- map writers -------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["ascii-pcd", "binary-pcd", "ply"])
def test_write_map_two_points(tmp_path, fmt):
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    path = tmp_path / "map.out"
    write_map(path, cloud, fmt)
    if fmt == "ascii-pcd":
        text = path.read_text()
        assert "POINTS 2" in text and "DATA ascii" in text
    back = read_map(path)
    assert len(back) == 2
    np.testing.assert_allclose(back.xyz, cloud.xyz, atol=1e-6)


@pytest.mark.parametrize("fmt", ["ascii-pcd", "binary-pcd", "ply"])
def test_write_map_empty(tmp_path, fmt):
    path = tmp_path / "empty.out"
    write_map(path, PointCloud(np.zeros((0, 3))), fmt)
    assert len(read_map(path)) == 0


@pytest.mark.parametrize("fmt", ["ascii-pcd", "binary-pcd", "ply"])
def test_write_map_roundtrip_10k(tmp_path, fmt):
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(-10, 10, (10_000, 3)),
                       intensity=rng.uniform(0, 1, 10_000).astype(np.float32))
    path = tmp_path / "map.out"
    write_map(path, cloud, fmt)
    back = read_map(path)
    assert np.abs(back.xyz - cloud.xyz).max() <= 1e-6
    np.testing.assert_allclose(back.intensity, cloud.intensity, atol=1e-6)


@pytest.mark.parametrize("fmt", ["ascii-pcd", "binary-pcd", "ply"])
@pytest.mark.parametrize("with_intensity", [False, True])
def test_write_map_float32_cloud_same_bytes_as_float64(tmp_path, fmt, with_intensity):
    rng = np.random.default_rng(11)
    xyz = (rng.standard_normal((257, 3)) * 50.0).astype(np.float32)
    intensity = rng.uniform(0, 1, 257).astype(np.float32) if with_intensity else None
    narrow = PointCloud(xyz, intensity=intensity)
    wide = PointCloud(xyz.astype(np.float64), intensity=intensity)
    assert narrow.xyz.dtype == np.float32 and wide.xyz.dtype == np.float64
    write_map(tmp_path / "narrow", narrow, fmt)
    write_map(tmp_path / "wide", wide, fmt)
    assert (tmp_path / "narrow").read_bytes() == (tmp_path / "wide").read_bytes()
    back = read_map(tmp_path / "narrow")
    assert back.xyz.dtype == np.float32
    np.testing.assert_array_equal(back.xyz, xyz)


def test_point_cloud_keeps_float32_widens_the_rest():
    xyz = np.ones((2, 3), np.float32)
    kept = PointCloud(xyz).xyz
    assert kept.dtype == np.float32 and np.shares_memory(kept, xyz)
    for other in (xyz.astype(np.float16), xyz.astype(np.int32), xyz.tolist()):
        assert PointCloud(other).xyz.dtype == np.float64


def test_write_map_unknown_format(tmp_path):
    with pytest.raises(ContractError):
        write_map(tmp_path / "x", PointCloud(np.zeros((1, 3))), "xyz")


@pytest.mark.parametrize("k", [3, 4])
def test_write_map_ascii_matches_per_row_formatting(tmp_path, monkeypatch, k):
    # the chunked writer against the per-value formatting it replaced, over
    # a chunk size that leaves a partial last chunk
    monkeypatch.setattr(mio, "ASCII_CHUNK_ROWS", 4)
    tricky = np.array([-0.0, 0.0, 1e-45, -1e-45, 1.2e-38, 3.4e38, -3.4e38, 1e-30,
                       1e20, 123456.789, -0.1, 1.0 / 3.0, np.inf, -np.inf, np.nan],
                      dtype=np.float32)
    rng = np.random.default_rng(3)
    vals = np.concatenate([tricky, rng.standard_normal(30).astype(np.float32)
                           * np.float32(10.0) ** rng.integers(-20, 20, 30)])
    vals = np.resize(vals, (11, k)).astype(np.float32)
    cloud = PointCloud(vals[:, :3], intensity=vals[:, 3] if k == 4 else None)
    path = tmp_path / "map.pcd"
    write_map(path, cloud, "ascii-pcd")
    header = mio._pcd_header(len(vals), k == 4, "ascii")
    body = "".join(" ".join(f"{v:.9g}" for v in row) + "\n" for row in vals)
    assert path.read_bytes() == (header + body).encode("ascii")


def float32_bits(values):
    return np.asarray(values, dtype=np.float32).view(np.uint32).tolist()


DECADES = np.float32(10.0) ** np.arange(-5, 10, dtype=np.float32)
BITS = st.one_of(st.integers(0, 2**32 - 1),
                 st.floats(width=32).map(lambda v: float32_bits([v])[0]))


@given(k=st.sampled_from([3, 4]), chunk_rows=st.sampled_from([1, 3, 5, 7]),
       bits=st.lists(BITS, max_size=64))
# ties at the ninth digit: fixed notation, fixed below 1e-3, scientific (2**-14),
# and 3.929086285e+32, just above a tie, where the float64 product rounds below it
@example(k=3, chunk_rows=1, bits=float32_bits([100.0078125, 1000000.125, 2.0**-13, 2.0**-14,
                                               -2.0**-14, 0.5]) + [0x759AF9A2] * 3)
# the neighbours of 1e-5 ... 1e9, where log10, the notation and the rounding turn over
@example(k=3, chunk_rows=5, bits=float32_bits(np.concatenate(
    [np.nextafter(DECADES, np.float32(0)), DECADES, np.nextafter(DECADES, np.float32(np.inf))])))
# 9.99999e-05 stays scientific next to 0.0001; float32 999999940 keeps nine digits,
# while float32 1e-23 lies just below 1e-23 and rounds up to it
@example(k=4, chunk_rows=3, bits=float32_bits([999999940, 9.99999e-05, 9.9999999e-05, 1e-4,
                                               1e-23, -1e-23, 3.4028235e38, 1e-45]))
# signed zeros, subnormals, the largest float32, NaNs of both signs and infinities
@example(k=4, chunk_rows=7, bits=[0, 0x80000000, 1, 0x80000001, 0x007FFFFF, 0x80400000,
                                  0x7F7FFFFF, 0xFF7FFFFF, 0x7FC00000, 0xFFC00000, 0x7F800001,
                                  0xFF800001, 0x7F800000, 0xFF800000, 2, 0x00400000])
def test_write_map_ascii_is_g9_of_every_float32(tmp_path_factory, k, chunk_rows, bits):
    """Any float32 bit pattern, any chunking: the body is "%.9g" of each value."""
    vals = np.array(bits[:len(bits) // k * k], dtype=np.uint32).view(np.float32).reshape(-1, k)
    cloud = PointCloud(vals[:, :3], intensity=vals[:, 3] if k == 4 else None)
    path = tmp_path_factory.getbasetemp() / "g9.pcd"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mio, "ASCII_CHUNK_ROWS", chunk_rows)
        write_map(path, cloud, "ascii-pcd")
    header = mio._pcd_header(len(vals), k == 4, "ascii")
    body = "".join(" ".join(f"{v:.9g}" for v in row) + "\n" for row in vals)
    assert path.read_bytes() == (header + body).encode("ascii")


# -- map readers on malformed files ------------------------------------------

@contextmanager
def ends_within(seconds):
    """Fail instead of hanging when a reader loops."""
    def expire(*_):
        raise TimeoutError(f"did not end within {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


PCD_HEAD = ("VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            "WIDTH 2\nHEIGHT 1\n")
PLY_HEAD = ("ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n")
TWO_POINTS = np.arange(6, dtype="<f4").tobytes()

MALFORMED_MAPS = {
    "pcd-empty-file": b"",
    "pcd-header-without-data": (PCD_HEAD + "POINTS 2\n").encode(),
    "pcd-no-points-line": (PCD_HEAD + "DATA binary\n").encode() + TWO_POINTS,
    "pcd-bad-points-count": (PCD_HEAD + "POINTS two\nDATA binary\n").encode(),
    "pcd-short-binary-body": (PCD_HEAD + "POINTS 2\nDATA binary\n").encode()
                             + TWO_POINTS[:-1],
    "pcd-short-ascii-body": (PCD_HEAD + "POINTS 2\nDATA ascii\n1 2 3\n").encode(),
    "pcd-non-ascii-header": b"\xff\xfe\n",
    "pcd-fields-without-z": b"FIELDS x y\nPOINTS 2\nDATA binary\n" + TWO_POINTS[:16],
    "pcd-compressed-data": (PCD_HEAD + "POINTS 2\nDATA binary_compressed\n").encode()
                           + TWO_POINTS,
    "ply-no-end-header": PLY_HEAD.encode(),
    "ply-short-binary-body": (PLY_HEAD + "end_header\n").encode() + TWO_POINTS[:-4],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
def test_read_map_malformed_raises_parse_error(tmp_path, case):
    path = tmp_path / "map.out"
    path.write_bytes(MALFORMED_MAPS[case])
    with ends_within(5), pytest.raises(ParseError, match="map.out"):
        read_map(path)


# -- readers on arbitrary bytes ----------------------------------------------

READERS = {"poses": read_poses, "calibration": read_calibration,
           "scan": read_scan, "labels": read_labels}
TOKENS = st.sampled_from(["0", "1", "-1", "0.5", "1e308", "-1e-320", "nan", "-inf",
                          "Infinity", "1_0", "x", "1e", "\u0661", ":", "\t", "\x00"])
# twelve-value lines reach the pose and matrix checks, the rest stop earlier
LINES = st.one_of(st.lists(TOKENS, min_size=12, max_size=12), st.lists(TOKENS, max_size=14))
TEXT = st.lists(st.tuples(st.sampled_from(["", "Tr: ", "P0:"]), LINES), max_size=4).map(
    lambda rows: "\n".join(name + " ".join(tokens) for name, tokens in rows).encode())
BODIES = st.one_of(st.binary(max_size=96), TEXT)


@pytest.mark.parametrize("reader", sorted(READERS))
@given(body=BODIES)
@example(body=b"\xff\xfe\n")                                        # not utf-8
@example(body=b"-1 0 0 0 0 1 0 0 0 0 1 0\n")                         # a reflection
@example(body=b"1e308 1e308 1e308 0 1e308 1e308 1e308 0 1 1 1 0")     # overflowing drift
@example(body=b"Tr: " + b"0 " * 12)                                    # zero rotation
def test_readers_end_on_any_bytes(tmp_path_factory, reader, body):
    """Each reader returns or raises ParseError; poses and matrices it returns are finite."""
    path = tmp_path_factory.getbasetemp() / f"reader-{reader}.in"
    path.write_bytes(body)
    with ends_within(5):
        try:
            out = READERS[reader](path)
        except ParseError:
            return
    if reader == "poses":
        assert all(np.isfinite(p.matrix()).all() for p in out)
    elif reader == "calibration":
        assert all(np.isfinite(m).all() for m in out.values())
