"""Pipeline configuration: one YAML file covering every knob.

Sections mirror the modules they feed. Unknown keys anywhere are rejected
so a typo cannot silently fall back to a default, and the effective config
is echoed into each run's output directory for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ContractError, is_integer, is_number
from .evaluation import EVAL_VOXEL_SIZE, MOVING_CLASSES
from .ground import GroundSegConfig
from .removal import RemovalConfig


@dataclass
class IngestConfig:
    min_range: float = 0.5   # drops ego-vehicle returns
    max_range: float = 80.0  # drops noisy far returns


@dataclass
class EvalConfig:
    voxel_size: float = EVAL_VOXEL_SIZE
    moving_classes: list = field(default_factory=lambda: sorted(MOVING_CLASSES))


@dataclass
class PathsConfig:
    scan_dir: str = None
    pose_file: str = None
    label_dir: str = None
    output_dir: str = None


@dataclass
class FramesConfig:
    start: int = None
    end: int = None

    def __post_init__(self):
        if not all(v is None or (is_integer(v) and v >= 0) for v in (self.start, self.end)):
            raise ContractError(
                f"frames start/end must be integers >= 0, got {self.start!r}, {self.end!r}")


@dataclass
class PipelineConfig:
    voxel_size: float = 0.2
    removal: RemovalConfig = field(default_factory=RemovalConfig)
    ground: GroundSegConfig = field(default_factory=GroundSegConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    frames: FramesConfig = field(default_factory=FramesConfig)

    def __post_init__(self):
        if not (is_number(self.voxel_size) and 0 < self.voxel_size < math.inf):
            raise ContractError(f"voxel_size must be a number > 0, got {self.voxel_size!r}")
        self.voxel_size = float(self.voxel_size)

    def to_dict(self) -> dict:
        return asdict(self)


_SECTIONS = {"removal": RemovalConfig, "ground": GroundSegConfig,
             "ingest": IngestConfig, "eval": EvalConfig,
             "paths": PathsConfig, "frames": FramesConfig}


def _build_section(cls, data, where):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ContractError(f"unknown config keys in {where}: {sorted(unknown)}")
    return cls(**data)


def config_from_dict(data: dict) -> PipelineConfig:
    data = dict(data or {})
    top_allowed = {"voxel_size"} | set(_SECTIONS)
    unknown = set(data) - top_allowed
    if unknown:
        raise ContractError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    if "voxel_size" in data:
        kwargs["voxel_size"] = data["voxel_size"]
    for name, cls in _SECTIONS.items():
        if name in data:
            section = data[name]
            if not isinstance(section, dict):
                raise ContractError(f"config section {name!r} must be a mapping")
            kwargs[name] = _build_section(cls, section, name)
    return PipelineConfig(**kwargs)


def load_config(path) -> PipelineConfig:
    import yaml  # only here and in save_config: keeps it off `import mapclean`

    with open(path) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ContractError(f"{path}: config file must hold a mapping")
    return config_from_dict(data)


def save_config(cfg: PipelineConfig, path) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=False)
