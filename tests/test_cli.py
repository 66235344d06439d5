import numpy as np
import pytest
import yaml

from mapclean.cli import main
from mapclean.config import PipelineConfig, config_from_dict, load_config, save_config
from mapclean.errors import ContractError
from mapclean.io import PointCloud, read_map, write_map

APPEAR_CFG = {
    "ground": {"rows": 64, "cols": 192, "fov_up_deg": -6.0, "fov_down_deg": -45.0},
}
SMALL_CFG = {
    "ground": {"rows": 20, "cols": 140},
}


@pytest.fixture(scope="module")
def appear_seq(tmp_path_factory, scenario_dir):
    """suddenly-appear scenario exported to scan files once per module."""
    out = tmp_path_factory.mktemp("appear")
    rc = main(["simulate", str(scenario_dir / "suddenly-appear.yaml"), str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def crossing_seq(tmp_path_factory, scenario_dir):
    out = tmp_path_factory.mktemp("crossing")
    rc = main(["simulate", str(scenario_dir / "pedestrian-crossing.yaml"), str(out)])
    assert rc == 0
    return out


def write_cfg(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


# -- simulate ------------------------------------------------------------------

def test_simulate_writes_sequence(appear_seq):
    bins = sorted((appear_seq / "velodyne").glob("*.bin"))
    assert len(bins) == 45
    assert (appear_seq / "poses.txt").exists()
    assert len(list((appear_seq / "labels").glob("*.label"))) == 45
    assert (appear_seq / "scenario.yaml").exists()


def test_simulate_invalid_schema_exit_3(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("frames: 0\n")
    assert main(["simulate", str(bad), str(tmp_path / "out")]) == 3


def test_simulate_missing_file_exit_2(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.yaml"), str(tmp_path / "o")]) == 2


# -- run -----------------------------------------------------------------------

def test_run_smoke_and_determinism(tmp_path, appear_seq):
    cfg = write_cfg(tmp_path, APPEAR_CFG)
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = main(["run", str(appear_seq / "velodyne"), str(appear_seq / "poses.txt"),
                   "--config", str(cfg), "--output", str(out)])
        assert rc == 0
        assert (out / "static_map.pcd").exists()
        assert (out / "config.yaml").exists()
        outs.append((out / "static_map.pcd").read_bytes())
    assert outs[0] == outs[1]


def test_run_missing_pose_file_exit_2_no_partial_output(tmp_path, appear_seq):
    out = tmp_path / "nope_out"
    rc = main(["run", str(appear_seq / "velodyne"),
               str(appear_seq / "missing.txt"), "--output", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "eval", "bench"])
@pytest.mark.parametrize("token,at", [("nan", 0), ("inf", 7)])
def test_non_finite_pose_exit_2(tmp_path, appear_seq, capsys, command, token, at):
    # a late row: every reader of the pose file must fail before any frame runs
    lines = (appear_seq / "poses.txt").read_text().splitlines()
    row = lines[40].split()
    row[at] = token
    lines[40] = " ".join(row)
    poses = tmp_path / "poses.txt"
    poses.write_text("\n".join(lines) + "\n")
    out, clean = tmp_path / "out", tmp_path / "clean.pcd"
    write_map(clean, PointCloud(np.zeros((1, 3))))
    extra = {"run": ["--output", str(out)],
             "eval": [str(appear_seq / "labels"), str(clean)], "bench": []}[command]
    rc = main([command, str(appear_seq / "velodyne"), str(poses)] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 41: non-finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("row", ["0 0 0 0 0 0 0 0 0 0 0 0", "5 0 0 0 0 5 0 0 0 0 5 0"])
def test_run_pose_far_from_rotation_exit_2(tmp_path, appear_seq, capsys, row):
    # such a row used to be re-projected to the identity and mapped
    lines = (appear_seq / "poses.txt").read_text().splitlines()
    lines[40] = row
    poses = tmp_path / "poses.txt"
    poses.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = main(["run", str(appear_seq / "velodyne"), str(poses), "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 41: rotation drift" in err and "Traceback" not in err
    assert not out.exists()


def test_run_count_mismatch_exit_3(tmp_path, appear_seq):
    short = tmp_path / "short.txt"
    lines = (appear_seq / "poses.txt").read_text().splitlines()
    short.write_text("\n".join(lines[:-2]) + "\n")
    out = tmp_path / "mismatch_out"
    rc = main(["run", str(appear_seq / "velodyne"), str(short),
               "--output", str(out)])
    assert rc == 3
    assert not out.exists()


def test_run_frame_window(tmp_path, appear_seq, capsys):
    cfg = write_cfg(tmp_path, APPEAR_CFG)
    out = tmp_path / "win_out"
    rc = main(["run", str(appear_seq / "velodyne"), str(appear_seq / "poses.txt"),
               "--config", str(cfg), "--output", str(out),
               "--start", "5", "--end", "14"])
    assert rc == 0
    assert "frames: 10" in capsys.readouterr().out


def test_run_dynamic_map_output(tmp_path, appear_seq):
    cfg = write_cfg(tmp_path, APPEAR_CFG)
    out = tmp_path / "dyn_out"
    rc = main(["run", str(appear_seq / "velodyne"), str(appear_seq / "poses.txt"),
               "--config", str(cfg), "--output", str(out), "--dynamic-out"])
    assert rc == 0
    dyn = read_map(out / "dynamic_map.pcd")
    assert len(dyn) > 0


def test_run_ascii_maps_are_g9_of_binary_maps(tmp_path, appear_seq):
    cfg = write_cfg(tmp_path, APPEAR_CFG)
    for fmt in ("ascii-pcd", "binary-pcd"):
        rc = main(["run", str(appear_seq / "velodyne"), str(appear_seq / "poses.txt"),
                   "--config", str(cfg), "--output", str(tmp_path / fmt),
                   "--format", fmt, "--dynamic-out"])
        assert rc == 0
    for name in ("static_map.pcd", "dynamic_map.pcd"):
        points = read_map(tmp_path / "binary-pcd" / name).xyz
        assert points.dtype == np.float32 and len(points) > 0
        body = "".join(" ".join(f"{v:.9g}" for v in row) + "\n" for row in points)
        _, _, ascii_body = (tmp_path / "ascii-pcd" / name).read_bytes().partition(b"DATA ascii\n")
        assert ascii_body == body.encode("ascii")


def test_run_dump_voxels(tmp_path, appear_seq):
    cfg = write_cfg(tmp_path, APPEAR_CFG)
    out = tmp_path / "dump_out"
    rc = main(["run", str(appear_seq / "velodyne"), str(appear_seq / "poses.txt"),
               "--config", str(cfg), "--output", str(out), "--dump-voxels"])
    assert rc == 0
    header, *rows = [line.split(",") for line in
                     (out / "voxels.csv").read_text().splitlines()]
    assert header == ["submap", "i", "j", "k", "count", "min_frame", "max_frame"]
    assert {"ground", "dynamic"} <= {r[0] for r in rows}
    for *_, count, lo, hi in rows:
        assert 1 <= int(count) <= int(hi) - int(lo) + 1 and 0 <= int(lo) <= int(hi) < 45
    assert len({tuple(r[:4]) for r in rows}) == len(rows)


# -- eval ----------------------------------------------------------------------

def test_eval_clean_equals_raw_prints_dash(tmp_path, crossing_seq, capsys):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    # build the raw accumulated map by keeping everything: tau so high that
    # nothing is ever marked
    raw_cfg = write_cfg(tmp_path, {**SMALL_CFG, "removal": {"tau_ret": 1000000}},
                        "raw.yaml")
    out = tmp_path / "raw_out"
    rc = main(["run", str(crossing_seq / "velodyne"), str(crossing_seq / "poses.txt"),
               "--config", str(raw_cfg), "--output", str(out)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["eval", str(crossing_seq / "velodyne"), str(crossing_seq / "poses.txt"),
               str(crossing_seq / "labels"), str(out / "static_map.pcd"),
               "--config", str(cfg)])
    assert rc == 0
    out_text = capsys.readouterr().out
    assert "100.000/0.000/-" in out_text


def test_eval_pipeline_output_scores_high(tmp_path, appear_seq, capsys):
    cfg = write_cfg(tmp_path, APPEAR_CFG)
    out = tmp_path / "clean_out"
    rc = main(["run", str(appear_seq / "velodyne"), str(appear_seq / "poses.txt"),
               "--config", str(cfg), "--output", str(out)])
    assert rc == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    rc = main(["eval", str(appear_seq / "velodyne"), str(appear_seq / "poses.txt"),
               str(appear_seq / "labels"), str(out / "static_map.pcd"),
               "--config", str(cfg), "--report", str(report)])
    assert rc == 0
    assert "100.000/100.000/1.000" in capsys.readouterr().out
    assert report.exists()


def test_eval_missing_labels_exit_2(tmp_path, appear_seq):
    cfg = write_cfg(tmp_path, APPEAR_CFG)
    rc = main(["eval", str(appear_seq / "velodyne"), str(appear_seq / "poses.txt"),
               str(appear_seq / "nolabels"), str(appear_seq / "poses.txt"),
               "--config", str(cfg)])
    assert rc == 2


@pytest.mark.parametrize("body", [b"", b"ply\nelement vertex 3\nproperty float x\n"],
                         ids=["empty-pcd", "ply-without-end-header"])
def test_eval_malformed_map_exit_2(tmp_path, appear_seq, capsys, body):
    cfg = write_cfg(tmp_path, APPEAR_CFG)
    clean = tmp_path / "clean.pcd"
    clean.write_bytes(body)
    rc = main(["eval", str(appear_seq / "velodyne"), str(appear_seq / "poses.txt"),
               str(appear_seq / "labels"), str(clean), "--config", str(cfg), "--end", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "clean.pcd" in err and "Traceback" not in err


def test_eval_reads_map_before_any_scan(tmp_path, capsys):
    # every scan is unreadable, so only a map check that comes first can
    # report the empty map
    velodyne, labels = tmp_path / "velodyne", tmp_path / "labels"
    velodyne.mkdir()
    labels.mkdir()
    for f in range(3):
        (velodyne / f"{f:06d}.bin").write_bytes(b"\x00" * 5)
    poses = tmp_path / "poses.txt"
    poses.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" * 3)
    clean = tmp_path / "clean.pcd"
    clean.write_bytes(b"")
    rc = main(["eval", str(velodyne), str(poses), str(labels), str(clean)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "clean.pcd" in err and ".bin" not in err and "Traceback" not in err


# -- bench ---------------------------------------------------------------------

def test_bench_csv_schema(tmp_path, crossing_seq, capsys):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    csv_path = tmp_path / "bench.csv"
    rc = main(["bench", str(crossing_seq / "velodyne"), str(crossing_seq / "poses.txt"),
               "--config", str(cfg), "--csv", str(csv_path), "--end", "19"])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "phase,mean_ms,median_ms,p95_ms"
    phases = [ln.split(",")[0] for ln in lines[1:]]
    assert phases == ["ground_segmentation", "map_management",
                      "dynamic_removal", "total"]
    rows = {ln.split(",")[0]: [float(v) for v in ln.split(",")[1:]]
            for ln in lines[1:]}
    # CSV values carry 4 decimals; allow their rounding when summing phases
    assert (rows["ground_segmentation"][0] + rows["map_management"][0]
            + rows["dynamic_removal"][0]) <= rows["total"][0] + 1e-3


# -- usage / config --------------------------------------------------------------

def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as err:
        main(["run"])  # missing required args
    assert err.value.code == 1


def test_unknown_command_exit_1():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_config_roundtrip(tmp_path):
    cfg = PipelineConfig()
    cfg.removal.tau_ret = 9
    cfg.ground.rows = 32
    path = tmp_path / "c.yaml"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_unknown_key_rejected():
    with pytest.raises(ContractError, match="unknown"):
        config_from_dict({"removal": {"tau_rett": 7}})
    with pytest.raises(ContractError, match="unknown"):
        config_from_dict({"wibble": {}})


BAD_VALUES = [
    {"removal": {"tau_ret": "7"}},
    {"removal": {"tau_ret": 2.5}},
    {"removal": {"tau_res": 7.5}},
    {"removal": {"tau_ret": True}},
    {"removal": {"vertical_range": "3"}},
    {"voxel_size": "abc"},
    {"voxel_size": "0.2"},
    {"voxel_size": 0},
    {"voxel_size": -0.2},
    {"voxel_size": float("nan")},
    {"ground": {"rows": 1}},
    {"ground": {"cols": 0}},
    {"ground": {"rows": 32.0}},
    {"ground": {"cols": "2048"}},
    {"ground": {"min_sector_candidates": 2}},
    {"ground": {"min_sector_candidates": 10.0}},
    {"frames": {"start": -1}},
    {"frames": {"end": "3"}},
]


@pytest.mark.parametrize("data", BAD_VALUES, ids=repr)
def test_config_bad_value_is_contract_error(data):
    with pytest.raises(ContractError):
        config_from_dict(data)


def test_config_integer_voxel_size_accepted():
    assert config_from_dict({"voxel_size": 1}).voxel_size == 1.0


def test_config_defaults():
    cfg = config_from_dict({})
    assert cfg.voxel_size == 0.2
    assert cfg.removal.tau_ret == 7
    assert cfg.removal.tau_res == 15
    assert cfg.removal.vertical_range == 3.0
    assert cfg.ingest.min_range == 0.5
    assert cfg.ingest.max_range == 80.0
    assert cfg.eval.voxel_size == 0.2
    assert 252 in cfg.eval.moving_classes and 259 in cfg.eval.moving_classes


def test_bad_config_file_exit_3(tmp_path, appear_seq):
    bad = write_cfg(tmp_path, {"removal": {"nope": 1}}, "bad.yaml")
    rc = main(["run", str(appear_seq / "velodyne"), str(appear_seq / "poses.txt"),
               "--config", str(bad), "--output", str(tmp_path / "o")])
    assert rc == 3
