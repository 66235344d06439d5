"""mapclean: online dynamic-object removal for LiDAR mapping.

Classifies map voxels as static or dynamic by comparing when a non-ground
voxel was observed against when the ground beneath it was observed, and
emits a clean static point-cloud map plus evaluation metrics.
"""

from .config import PipelineConfig, config_from_dict, load_config, save_config
from .errors import ContractError, MapCleanError, ParseError
from .evaluation import (BenchReport, EvalReport, benchmark,
                         build_ground_truth, score, summarize_reports)
from .ground import (GroundSegConfig, build_range_image, extract_candidates,
                     segment_ground_mask)
from .io import (PointCloud, Pose, poses_to_velodyne_frame, read_calibration,
                 read_labels, read_map, read_poses, read_scan,
                 transform_to_world, write_labels, write_map, write_poses)
from .removal import FrameReport, OnlinePipeline, RemovalConfig, process_frame
from .simulate import (Box, DynamicObject, GroundPlane, LabeledFrame,
                       Scenario, SensorModel, export_kitti, ground_cfg_for,
                       load_scenario, oracle_classify, render_sequence)
from .voxmap import (MapState, Submap, export_dynamic_map,
                     export_static_map, voxel_keys)

__version__ = "0.1.0"
