"""Command-line front-end: run, eval, simulate, bench.

Exit codes: 0 success, 1 usage error, 2 I/O error (missing or unreadable
files), 3 contract violation (mismatched counts, invalid schema).
"""

from __future__ import annotations

import argparse
import logging
import shutil
import sys
from pathlib import Path

import numpy as np

from . import io as mio
from .config import PipelineConfig, load_config, save_config
from .errors import ContractError, ParseError
from .evaluation import benchmark, build_ground_truth, score, write_report_json
from .removal import OnlinePipeline
from .simulate import export_kitti, load_scenario, render_sequence
from .voxmap import export_dynamic_map, export_static_map

log = logging.getLogger("mapclean")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CONTRACT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _load_cfg(args) -> PipelineConfig:
    return load_config(args.config) if args.config else PipelineConfig()


def _window(cfg, args):
    start = args.start if args.start is not None else cfg.frames.start
    end = args.end if args.end is not None else cfg.frames.end
    return start, end


def _pipeline(cfg: PipelineConfig) -> OnlinePipeline:
    return OnlinePipeline(voxel_size=cfg.voxel_size,
                          removal_cfg=cfg.removal, ground_cfg=cfg.ground)


def _iter_sequence(cfg, args, label_dir=None):
    start, end = _window(cfg, args)
    return mio.load_sequence(args.scan_dir, args.pose_file,
                             start=start, end=end,
                             min_range=cfg.ingest.min_range,
                             max_range=cfg.ingest.max_range,
                             label_dir=label_dir)


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    out_dir = Path(args.output)
    # validate inputs before creating anything so failures leave no artifacts
    frames = list(_iter_sequence(cfg, args))
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out_dir / "config.yaml")

    pipe = _pipeline(cfg)
    for f, cloud, pose in frames:
        report = pipe.process(cloud, pose, f)
        log.info(report.log_line())

    static_map = export_static_map(pipe.state)
    mio.write_map(out_dir / "static_map.pcd", static_map, args.format)
    if args.dynamic_out:
        mio.write_map(out_dir / "dynamic_map.pcd",
                      export_dynamic_map(pipe.state), args.format)
    if args.dump_voxels:
        from .voxmap import dump_csv
        dump_csv(pipe.state, out_dir / "voxels.csv")

    n = len(pipe.reports)
    marked = sum(r.appeared_dynamic + r.disappeared_dynamic for r in pipe.reports)
    restored = sum(r.restored for r in pipe.reports)
    mean_ms = sum(r.total_ms for r in pipe.reports) / n if n else 0.0
    print(f"frames: {n}")
    print(f"voxels marked dynamic: {marked}")
    print(f"voxels restored: {restored}")
    print(f"static map points: {len(static_map)}")
    print(f"mean ms/frame: {mean_ms:.2f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    clean = mio.read_map(args.clean_map)   # a bad map fails before any scan is read
    clouds = []
    for f, cloud, pose in _iter_sequence(cfg, args, label_dir=args.label_dir):
        clouds.append(mio.transform_to_world(cloud, pose))
    static_gt, dynamic_gt = build_ground_truth(
        clouds, moving_classes=set(cfg.eval.moving_classes),
        voxel_size=cfg.eval.voxel_size)
    report = score(clean, static_gt, dynamic_gt, voxel_size=cfg.eval.voxel_size)
    print(f"PR[%]/RR[%]/F1: {report.triple()}")
    print(f"static voxels: {report.static_voxels_preserved}/{report.static_voxels_total} preserved")
    print(f"dynamic voxels: {report.dynamic_voxels_rejected}/{report.dynamic_voxels_total} rejected")
    if args.report:
        write_report_json(report, args.report)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    frames = render_sequence(scenario)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_kitti(frames, out_dir)
    shutil.copy(args.scenario, out_dir / "scenario.yaml")
    print(f"rendered {len(frames)} frames "
          f"({sum(len(f.scan) for f in frames)} points) into {out_dir}")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    pipe = _pipeline(cfg)
    report = benchmark(_iter_sequence(cfg, args), pipe)
    print(report.table())
    if args.csv:
        report.to_csv(args.csv)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="mapclean",
                     description="Online dynamic-object removal for LiDAR mapping")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="per-frame log lines")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poses=True):
        p.add_argument("scan_dir", help="directory of .bin scans")
        if poses:
            p.add_argument("pose_file", help="odometry pose file")
        p.add_argument("--config", help="pipeline config YAML")
        p.add_argument("--start", type=int, help="first frame (inclusive)")
        p.add_argument("--end", type=int, help="last frame (inclusive)")

    p = sub.add_parser("run", help="build a static map from a scan sequence")
    common(p)
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--format", default="ascii-pcd",
                   choices=["ascii-pcd", "binary-pcd", "ply"])
    p.add_argument("--dynamic-out", action="store_true",
                   help="also write the rejected dynamic points")
    p.add_argument("--dump-voxels", action="store_true",
                   help="CSV dump of every voxel for inspection")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a cleaned map against labels")
    common(p)
    p.add_argument("label_dir", help="directory of .label files")
    p.add_argument("clean_map", help="cleaned map to score")
    p.add_argument("--report", help="write machine-readable JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="render a scenario to scan files")
    p.add_argument("scenario", help="scenario YAML")
    p.add_argument("out_dir", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="per-frame runtime decomposition")
    common(p)
    p.add_argument("--csv", help="write the timing table here")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(message)s")
    try:
        return args.func(args)
    except (FileNotFoundError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
