"""Differential test: the online pipeline against the brute-force oracle.

Hypothesis draws random scenes (static boxes, movers with their own
visibility windows, ground slope, sensor motion, range noise) and random
thresholds and voxel sizes. The ground source is drawn too: the simulator
labels, so any difference is the map store's or the rules', not
segmentation's; or the pipeline's own segmentation, which the oracle then
runs too, so the two agree only if segmentation feeds the map the same way
in both. The rules run on every example, whichever the ground source. The
example budget is fixed and derandomised by the profile in conftest.py.
"""

from hypothesis import given
from hypothesis import strategies as st

from mapclean.removal import OnlinePipeline, RemovalConfig
from mapclean.simulate import (Box, DynamicObject, GroundPlane, Scenario,
                               SensorModel, ground_cfg_for, ground_mask_from_labels,
                               oracle_classify, render_sequence)


def coords(lo, hi, n=3):
    return st.lists(st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n)


@st.composite
def boxes(draw):
    size = draw(coords(0.4, 3.0))
    x, y = draw(coords(-12.0, 12.0, 2))
    return Box([x, y, size[2] / 2 + draw(st.floats(0.0, 1.5))], size)


@st.composite
def movers(draw, frames):
    t0 = draw(st.integers(0, frames - 1))
    t1 = draw(st.integers(t0, frames - 1))
    size = draw(coords(0.4, 2.0))
    x, y = draw(coords(-10.0, 10.0, 2))
    vx, vy = draw(coords(-0.6, 0.6, 2))
    return DynamicObject(size=size, start=[x, y, size[2] / 2], velocity=[vx, vy, 0.0],
                         visible=(t0, t1), yaw_rate_deg=draw(st.floats(-10.0, 10.0)))


@st.composite
def scenes(draw):
    frames = draw(st.integers(4, 24))
    vx, vy = draw(coords(-0.5, 0.5, 2))
    sensor = SensorModel(position=[0.0, 0.0, draw(st.floats(1.2, 2.2))],
                         velocity=[vx, vy, 0.0],
                         yaw_rate_deg=draw(st.floats(-3.0, 3.0)),
                         rows=draw(st.integers(6, 16)), cols=draw(st.integers(40, 120)),
                         max_range=20.0)
    sx, sy = draw(coords(-0.08, 0.08, 2))
    return Scenario(frames=frames, seed=draw(st.integers(0, 100)),
                    noise_sigma=draw(st.sampled_from([0.0, 0.0, 0.02])),
                    ground=GroundPlane(height=draw(st.floats(-0.3, 0.3)),
                                       slope_x=sx, slope_y=sy),
                    sensor=sensor,
                    static_objects=draw(st.lists(boxes(), max_size=4)),
                    dynamic_objects=draw(st.lists(movers(frames), max_size=4)))


@given(scene=scenes(), tau_ret=st.integers(1, 8), tau_res=st.integers(1, 20),
       voxel_size=st.sampled_from([0.15, 0.2, 0.3, 0.5]),
       vertical_range=st.sampled_from([0.5, 1.0, 3.0]), label_ground=st.booleans())
def test_pipeline_matches_oracle_on_random_scenes(scene, tau_ret, tau_res, voxel_size,
                                                  vertical_range, label_ground):
    frames = render_sequence(scene)
    cfg = RemovalConfig(tau_ret=tau_ret, tau_res=tau_res, vertical_range=vertical_range)
    ground_cfg = ground_cfg_for(scene)
    pipe = OnlinePipeline(voxel_size=voxel_size, removal_cfg=cfg, ground_cfg=ground_cfg)
    for f, fr in enumerate(frames):
        pipe.process(fr.scan, fr.pose, f,
                     ground_mask=ground_mask_from_labels(fr.labels) if label_ground else None)
    assert pipe.classification() == oracle_classify(
        frames, cfg, voxel_size=voxel_size, ground_truth_segmentation=label_ground,
        ground_cfg=ground_cfg)
