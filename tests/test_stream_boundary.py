"""Property test of the tracker's stream boundary: one perturbed frame of
a short drive either is tracked, leaving a finite state, or is refused
with a library error that changes nothing."""

import copy
import pickle
from dataclasses import replace
from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from semtrack import estimator as est
from semtrack import simulate as sim
from semtrack.boxinfer import Viewpoint
from semtrack.errors import SemtrackError

N_FRAMES = 5
FORWARD = -np.pi / 2
EDGES = ("u_min", "v_min", "u_max", "v_max")
VIEWPOINTS = tuple(Viewpoint(h, v) for h in range(8) for v in (0, 1))


@lru_cache(maxsize=None)
def drive():
    """A seeded five-frame drive past two cars, and its frames."""
    scenario = sim.generate_scenario(
        {"n_frames": N_FRAMES, "noise": {"seed": 3},
         "objects": [{"class": "car",
                      "init": {"x": x, "z": z, "yaw": FORWARD, "v": 8.0}}
                     for x, z in ((-10.0, 18.0), (0.4, 25.0))],
         "landmarks": {"background_n": 80, "per_object_n": 10}}, seed=3)
    return scenario, tuple(sim.synthesize_frame(scenario, t)
                           for t in range(N_FRAMES))


def replace_at(items, i, item):
    return items[:i] + (item,) + items[i + 1:]


@st.composite
def perturbed(draw, frame):
    """``frame`` with one perturbation of the stream boundary."""
    features, semantic = frame.features, frame.semantic
    kind = draw(st.sampled_from(
        ("point", "point_shape", "edge", "flags", "empty", "duplicate",
         "zero_disparity", "viewpoint", "repeated_id")))
    f = draw(st.integers(0, len(features) - 1))
    d = draw(st.integers(0, len(semantic) - 1))
    side = draw(st.sampled_from(("left", "right")))
    if kind == "point":
        point = getattr(features[f], side).copy()
        point[draw(st.integers(0, 1))] = draw(
            st.sampled_from((np.nan, np.inf, -np.inf)))
        return replace(frame, features=replace_at(
            features, f, replace(features[f], **{side: point})))
    if kind == "point_shape":
        point = np.full(draw(st.sampled_from((1, 3))), 0.1)
        return replace(frame, features=replace_at(
            features, f, replace(features[f], **{side: point})))
    if kind == "edge":
        edge = draw(st.sampled_from(EDGES))
        # an infinite edge that keeps the box ordered, so that it is built
        value = draw(st.sampled_from(
            (np.nan, -np.inf if edge.endswith("min") else np.inf)))
        box = replace(semantic[d].box, **{edge: value})
        return replace(frame, semantic=replace_at(
            semantic, d, replace(semantic[d], box=box)))
    if kind == "flags":
        flags = (True,) * draw(st.sampled_from((0, 1, 3, 5)))
        return replace(frame, semantic=replace_at(
            semantic, d, replace(semantic[d], valid_edges=flags)))
    if kind == "empty":
        return replace(frame, features=(), semantic=())
    if kind == "duplicate":
        # a second detection under the id of detection d, with its own box
        # or a copy of d's
        other = semantic[draw(st.integers(0, len(semantic) - 1))]
        return replace(frame, semantic=semantic + (
            replace(other, object_id=semantic[d].object_id),))
    if kind == "viewpoint":
        # another valid viewpoint on detection d
        vp = draw(st.sampled_from(
            [v for v in VIEWPOINTS if v != semantic[d].viewpoint]))
        return replace(frame, semantic=replace_at(
            semantic, d, replace(semantic[d], viewpoint=vp)))
    if kind == "repeated_id":
        # a second feature under the id of feature f, with f's points or
        # another feature's; FrameMeasurements refuses such a frame, so it
        # is built past that check, as a reader that skips it would
        other = features[draw(st.integers(0, len(features) - 1))]
        repeated = copy.copy(frame)
        object.__setattr__(repeated, "features", features + (
            replace(other, feature_id=features[f].feature_id),))
        return repeated
    # zero disparity on a random subset of the features
    hit = draw(st.lists(st.booleans(), min_size=len(features),
                        max_size=len(features)))
    return replace(frame, features=tuple(
        replace(x, right=x.left.copy()) if h else x
        for x, h in zip(features, hit)))


def finite_state(tracker):
    poses = tracker.camera_trajectory
    states = [s for traj in tracker.object_trajectories.values()
              for _, s in traj]
    return (all(np.isfinite(p.rotation).all()
                and np.isfinite(p.translation).all() for p in poses)
            and all(np.isfinite(s.position).all() and np.isfinite(s.yaw)
                    for s in states))


@st.composite
def bad_stream(draw):
    _, frames = drive()
    at = draw(st.integers(0, N_FRAMES - 1))
    return at, draw(perturbed(frames[at]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(bad_stream())
def test_perturbed_frame_is_tracked_or_refused(case):
    at, bad = case
    scenario, frames = drive()
    tracker = est.WindowTracker(
        scenario.rig, est.EstimatorConfig(dt=scenario.dt, window=3),
        initial_pose=scenario.camera[0])
    for frame in frames[:at]:
        tracker.process(frame)
    before = pickle.dumps(tracker.__dict__)
    try:
        tracker.process(bad)
    except SemtrackError:
        assert pickle.dumps(tracker.__dict__) == before
    else:
        assert len(tracker.camera_trajectory) == at + 1
        assert finite_state(tracker)
    # the frames after it are tracked as usual
    for frame in frames[at + 1:]:
        n = len(tracker.camera_trajectory)
        tracker.process(frame)
        assert len(tracker.camera_trajectory) == n + 1
    assert finite_state(tracker)


def test_clean_drive_tracks_both_cars():
    # the property above reaches the object solves only if the drive,
    # unperturbed, tracks its cars
    scenario, frames = drive()
    tracker = est.WindowTracker(
        scenario.rig, est.EstimatorConfig(dt=scenario.dt, window=3),
        initial_pose=scenario.camera[0])
    for frame in frames:
        tracker.process(frame)
    assert sorted(len(t) for t in tracker.object_trajectories.values()) \
        == [N_FRAMES, N_FRAMES]
