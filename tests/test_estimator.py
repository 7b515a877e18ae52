"""Tests for the staged window solvers, alignment and the tracker."""

import numpy as np
import pytest

from dataclasses import replace

from semtrack import estimator as est
from semtrack import nls
from semtrack import pipeline
from semtrack import residuals as res
from semtrack import simulate as sim
from semtrack.boxinfer import DEFAULT_PRIORS, BBox2D, infer_pose
from semtrack.associate import reject_outliers
from semtrack.errors import (ConfigError, DegenerateGroup, NoConvergence,
                             NumericalFailure)
from semtrack.geometry import ObjectState, Pose, StereoRig, rot_y, so3_exp

FORWARD = -np.pi / 2  # heading along the camera optical axis


def make_scenario(n_frames=10, objects=(), seed=1, **extra):
    config = {"n_frames": n_frames, "objects": list(objects),
              "noise": {"seed": seed}}
    config.update(extra)
    return sim.generate_scenario(config, seed=seed)


def car(x, z, v=8.0, yaw=FORWARD):
    return {"class": "car", "init": {"x": x, "z": z, "yaw": yaw, "v": v}}


def pedestrian(x, z, v=1.2, yaw=FORWARD):
    return {"class": "pedestrian",
            "init": {"x": x, "z": z, "yaw": yaw, "v": v}}


def linearize(problem, state):
    """The normal equations of every block of ``problem`` at ``state``."""
    eq = problem.equations()
    for batch in problem.batches(state, np.arange(problem.n_blocks), True):
        eq.add_batch(batch)
    return eq


def block_costs(problem, state):
    """The cost of every block of ``problem`` at ``state``."""
    return nls.batch_cost(
        problem.batches(state, np.arange(problem.n_blocks), False),
        problem.n_blocks).cost


def ego_problem(scenario, frames, rng=None, pose_noise=(0.0, 0.0),
                lm_noise=0.0):
    """Ego solve inputs (poses, landmarks, feature rows) from zero-noise
    frames, optionally perturbed."""
    poses, landmarks, obs = [], {}, []
    for t, gt in enumerate(scenario.camera[:len(frames)]):
        if t == 0 or pose_noise == (0.0, 0.0):
            poses.append(gt)
        else:
            poses.append(Pose(gt.rotation @ so3_exp(rng.normal(
                0.0, pose_noise[1], 3)),
                gt.translation + rng.normal(0.0, pose_noise[0], 3)))
    for t, fr in enumerate(frames):
        for f in fr.features:
            if f.anchor_id != 0:
                continue
            if f.feature_id not in landmarks:
                true = scenario.background[f.feature_id]
                noise = rng.normal(0.0, lm_noise, 3) if lm_noise else 0.0
                landmarks[f.feature_id] = true + noise
            obs.append((t, f.feature_id, f.left, f.right))
    return poses, landmarks, est.feature_rows(obs)


def object_problem(scenario, frames, obj_index=0, rng=None,
                   state_noise=(0.0, 0.0), lm_noise=0.0, dims_noise=0.0,
                   with_semantic=True, with_features=True):
    """Object solve inputs (window track, camera poses) and the simulated
    object."""
    obj = scenario.objects[obj_index]
    n = len(frames)
    states, lm_init, features, semantic = [], {}, [], []
    for t in range(n):
        gt = obj.states[t]
        dims = obj.prior.mean.copy()
        if rng is not None:
            dims = dims + rng.normal(0.0, dims_noise, 3) if dims_noise \
                else dims
            states.append(gt.replace(
                position=gt.position + rng.normal(0.0, state_noise[0], 3),
                yaw=gt.yaw + rng.normal(0.0, state_noise[1]), dims=dims))
        else:
            states.append(gt.replace(dims=dims))
    n_bg = len(scenario.background)
    lm_base = n_bg + sum(len(o.landmarks) for o in scenario.objects[:obj_index])
    for t, fr in enumerate(frames):
        if with_features:
            for f in fr.features:
                if f.anchor_id != obj.object_id:
                    continue
                if f.feature_id not in lm_init:
                    true = obj.landmarks[f.feature_id - lm_base]
                    noise = rng.normal(0.0, lm_noise, 3) if lm_noise else 0.0
                    lm_init[f.feature_id] = true + noise
                features.append((t, f.feature_id, f.left, f.right))
        if with_semantic:
            for s in fr.semantic:
                if s.object_id != obj.object_id:
                    continue
                semantic.append((t, s.box.as_array(), s.valid_edges,
                                 s.viewpoint))
    track = est.ObjectTrack(obj.label, obj.prior, list(range(n)), states,
                            lm_init, est.feature_rows(features),
                            est.semantic_rows(semantic))
    return (track, list(scenario.camera[:n])), obj


def shifted(track, by):
    """A copy of ``track``, states and landmarks copied too, with its
    frames and its rows' frames moved by ``by``.  ``shifted(track,
    -start)`` counts a tracker's track from its window's first frame."""
    features, semantic = track.features, track.semantic
    return replace(track, frames=[f + by for f in track.frames],
                   states=list(track.states), landmarks=dict(track.landmarks),
                   features=features._replace(frame=features.frame + by),
                   semantic=semantic._replace(frame=semantic.frame + by))


class TestEstimatorConfig:
    def test_refuses_bad_values_when_built(self):
        # a window below 2 never solves the ego window, and a fractional
        # one cannot slice it
        for window in (1, 0, -3, 2.5, 4.0, True, "10", None):
            with pytest.raises(ValueError, match="^window: "):
                est.EstimatorConfig(window=window)
        for dt in (0.0, -0.1, float("inf"), float("nan"), "0.1", None):
            with pytest.raises(ValueError, match="^dt: "):
                est.EstimatorConfig(dt=dt)
        assert est.EstimatorConfig(window=np.int64(2), dt=1).window == 2


class TestSolveEgo:
    def test_zero_noise_fixed_point(self):
        scenario = make_scenario(6, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
                  for t in range(6)]
        problem = ego_problem(scenario, frames)
        result = est.solve_ego(*problem, scenario.rig)
        assert result.report.initial_cost < 1e-14
        for pose, gt in zip(result.poses, scenario.camera):
            assert np.linalg.norm(pose.translation - gt.translation) < 1e-9

    def test_perturbed_recovers_ground_truth(self):
        scenario = make_scenario(8, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
                  for t in range(8)]
        rng = np.random.default_rng(3)
        problem = ego_problem(scenario, frames, rng,
                              pose_noise=(0.1, 0.01), lm_noise=0.05)
        result = est.solve_ego(*problem, scenario.rig)
        for pose, gt in zip(result.poses, scenario.camera):
            assert np.linalg.norm(pose.translation - gt.translation) < 1e-6
            assert np.abs(pose.rotation - gt.rotation).max() < 1e-6
        assert not result.insufficient_parallax
        assert result.report.final_cost <= result.report.initial_cost

    def test_stationary_camera_flags_parallax(self):
        scenario = make_scenario(4, camera={"start": [0.0, -1.5, 0.0],
                                            "yaw": 0.0, "speed": 0.0})
        frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
                  for t in range(4)]
        problem = ego_problem(scenario, frames)
        result = est.solve_ego(*problem, scenario.rig)
        assert result.insufficient_parallax

    def test_single_pose_rejected(self):
        scenario = make_scenario(2)
        frames = [sim.synthesize_frame(scenario, 0, sim.NoiseSpec.zero())]
        problem = ego_problem(scenario, frames)
        with pytest.raises(ValueError):
            est.solve_ego(*problem, scenario.rig)

    def test_gauge_invariance(self):
        # rigidly moving the whole world leaves the cost unchanged
        scenario = make_scenario(6)
        frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
                  for t in range(6)]
        rng = np.random.default_rng(4)
        poses, landmarks, rows = ego_problem(
            scenario, frames, rng, pose_noise=(0.05, 0.005), lm_noise=0.02)
        transform = Pose(rot_y(0.8), np.array([5.0, -1.0, 3.0]))
        ego_a = est._EgoProblem(poses, landmarks, rows, scenario.rig)
        ego_b = est._EgoProblem(
            [transform.compose(p) for p in poses],
            {k: transform.apply(v) for k, v in landmarks.items()}, rows,
            scenario.rig)
        cost_a = block_costs(ego_a, ego_a.initial)[0]
        cost_b = block_costs(ego_b, ego_b.initial)[0]
        assert cost_a == pytest.approx(cost_b, rel=1e-9)


class TestSolveObject:
    def test_zero_noise_recovery(self):
        scenario = make_scenario(10, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
                  for t in range(10)]
        rng = np.random.default_rng(5)
        problem, obj = object_problem(scenario, frames, rng=rng,
                                      state_noise=(0.1, 0.01),
                                      lm_noise=0.05, dims_noise=0.05)
        result = est.solve_object(*problem, scenario.rig)
        for s, gt in zip(result.states, obj.states):
            assert np.linalg.norm(s.position - gt.position) < 1e-4
            assert abs(s.yaw - gt.yaw) < 1e-4
        assert np.abs(result.dims - obj.states[0].dims).max() < 1e-4
        assert abs(result.states[5].speed - obj.states[5].speed) < 1e-3
        assert not result.under_constrained

    def test_single_frame_semantic_only_matches_closed_form(self):
        scenario = make_scenario(2, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, 0, sim.NoiseSpec.zero())]
        problem, obj = object_problem(scenario, frames, with_features=False)
        meas = frames[0].semantic[0]
        result = est.solve_object(*problem, scenario.rig)
        assert result.under_constrained
        assert np.array_equal(result.dims, obj.prior.mean)
        p_cam, theta, _ = infer_pose(meas.box, meas.viewpoint,
                                     obj.prior.mean)
        cam = scenario.camera[0]
        expected_pos = cam.apply(p_cam)
        assert np.linalg.norm(result.states[0].position - expected_pos) < 1e-6

    def test_yaw_parallel_to_motion_without_features(self):
        # motion + semantic only: the kinematic coupling forces the yaw
        # to follow the displacement direction
        scenario = make_scenario(10, [car(-10.0, 18.0, v=6.0)])
        frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
                  for t in range(10)]
        rng = np.random.default_rng(6)
        problem, obj = object_problem(scenario, frames, rng=rng,
                                      state_noise=(0.05, 0.05),
                                      with_features=False)
        result = est.solve_object(*problem, scenario.rig)
        for prev, cur in zip(result.states, result.states[1:]):
            delta = cur.position - prev.position
            if np.linalg.norm(delta) < 0.1:
                continue
            direction = np.arctan2(-delta[2], delta[0])
            assert abs(est.wrap_angle(direction - cur.yaw)) < 0.05

    def test_pedestrian_steer_stays_zero(self):
        scenario = make_scenario(8, [{
            "class": "pedestrian",
            "init": {"x": -8.0, "z": 14.0, "yaw": FORWARD, "v": 1.2}}])
        frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
                  for t in range(8)]
        rng = np.random.default_rng(7)
        problem, obj = object_problem(scenario, frames, rng=rng,
                                      state_noise=(0.05, 0.005),
                                      lm_noise=0.02, with_semantic=False)
        result = est.solve_object(*problem, scenario.rig)
        # feature-only tracks have a free global offset (no semantic
        # anchor), so compare the trajectory shape and the motion state
        base_est = result.states[0].position
        base_gt = obj.states[0].position
        for s, gt in zip(result.states, obj.states):
            rel_err = np.linalg.norm((s.position - base_est)
                                     - (gt.position - base_gt))
            assert rel_err < 1e-6
            assert s.steer == 0.0
        assert abs(result.states[4].speed - 1.2) < 1e-6
        assert abs(result.states[4].yaw - FORWARD) < 1e-6

    def test_order_independence(self):
        scenario = make_scenario(8, [car(-10.0, 18.0), car(0.4, 25.0)])
        frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
                  for t in range(8)]
        rng_a = np.random.default_rng(8)
        pa1, _ = object_problem(scenario, frames, 0, rng_a, (0.05, 0.005),
                                  0.02)
        pa2, _ = object_problem(scenario, frames, 1, rng_a, (0.05, 0.005),
                                  0.02)
        # rebuild with identical perturbations and solve in reverse order
        rng_b = np.random.default_rng(8)
        pb1, _ = object_problem(scenario, frames, 0, rng_b, (0.05, 0.005),
                                0.02)
        pb2, _ = object_problem(scenario, frames, 1, rng_b, (0.05, 0.005),
                                0.02)
        r1 = est.solve_object(*pa1, scenario.rig)
        r2 = est.solve_object(*pa2, scenario.rig)
        r2b = est.solve_object(*pb2, scenario.rig)
        r1b = est.solve_object(*pb1, scenario.rig)
        for x, y in ((r1, r1b), (r2, r2b)):
            for sx, sy in zip(x.states, y.states):
                assert np.array_equal(sx.position, sy.position)
                assert sx.yaw == sy.yaw

    def test_empty_track_rejected(self):
        track = est.ObjectTrack("car", DEFAULT_PRIORS["car"])
        with pytest.raises(ValueError):
            est.solve_object(track, [Pose.identity()],
                             StereoRig.horizontal(0.54))

    def test_frames_count_from_the_window_start(self):
        # camera_poses[i] is the pose of frame start + i: the same window
        # at frames 2..4 solves as at frames 0..2, and a frame before the
        # start or past the last pose is refused
        scenario = make_scenario(3, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, t) for t in range(3)]
        rng = np.random.default_rng(9)
        (track, cams), _ = object_problem(scenario, frames, rng=rng,
                                          state_noise=(0.1, 0.01))
        later = shifted(track, 2)
        (at_zero,) = est.solve_objects([track], cams, scenario.rig)
        (at_two,) = est.solve_objects([later], cams, scenario.rig, start=2)
        assert at_two.report == at_zero.report
        for a, b in zip(at_two.states, at_zero.states):
            assert np.array_equal(a.position, b.position)
        for start in (1, 3):
            with pytest.raises(ValueError, match="outside the window"):
                est.solve_objects([later], cams, scenario.rig, start=start)


def assert_same_solve(got, solo):
    """A track's result in a batch against its solve alone: the same LM
    decisions, and states within 1e-8 m and 1e-10 rad."""
    for key in ("iterations", "reason", "converged"):
        assert getattr(got.report, key) == getattr(solo.report, key)
    assert got.report.final_cost == pytest.approx(solo.report.final_cost,
                                                  rel=1e-12)
    for a, b in zip(got.states, solo.states):
        assert np.abs(a.position - b.position).max() < 1e-8
        assert abs(est.wrap_angle(a.yaw - b.yaw)) < 1e-10
    assert np.abs(got.dims - solo.dims).max() < 1e-8


# an iteration cap that the "capped" window of TestBatchedObjectSolve hits
# and its other windows stay below
CAP = 20


class TestBatchedObjectSolve:
    """The object tracks of a window are solved in one LM, a block per
    track, with each track's decisions those of solving it alone."""

    @pytest.fixture(scope="class")
    def windows(self):
        # four cars and a pedestrian ahead of a camera on a curve, five
        # frames; every track starts from perturbed states and landmarks
        scenario = make_scenario(
            5, [car(-10.0, 18.0), car(0.4, 25.0), car(14.0, 20.0),
                car(-4.0, 32.0, v=6.0), pedestrian(-6.0, 12.0)], seed=1,
            camera={"speed": 10.0, "yaw_rate": 0.125},
            landmarks={"background_n": 150, "per_object_n": 16})
        frames = [sim.synthesize_frame(scenario, t) for t in range(5)]
        rng = np.random.default_rng(41)
        tracks = [object_problem(scenario, frames, i, rng, (0.1, 0.02), 0.05,
                                 0.05)[0][0] for i in range(5)]
        cars = tracks[:4]
        keep = np.unique(cars[1].features.landmark)[:3]
        rows = cars[1].features
        few = replace(cars[1], landmarks={
            lm: cars[1].landmarks[lm] for lm in keep.tolist()},
            features=est.FeatureRows(*(a[np.isin(rows.landmark, keep)]
                                       for a in rows)))
        (locked, _), _ = object_problem(scenario, frames[:1], 0,
                                        with_features=False)
        # without box rows nothing pins the offset of the anchored points,
        # and LM creeps along it for 40 iterations, past CAP
        capped = replace(cars[0], semantic=est.semantic_rows([]))
        windows = {"car": cars[0], "pedestrian": tracks[4],
                   "three_landmarks": few, "locked": locked,
                   "capped": capped}
        return scenario, cars, windows, list(scenario.camera[:5])

    def test_batch_matches_solo_solves(self, windows, monkeypatch):
        scenario, cars, cases, cams = windows
        monkeypatch.setattr(nls, "MAX_ITERATIONS", CAP)
        tracks = cars + list(cases.values())
        batch = est.solve_objects(tracks, cams, scenario.rig)
        results = dict(zip(cases, batch[len(cars):]))
        assert cases["pedestrian"].label == "pedestrian"
        assert len(cases["three_landmarks"].landmarks) == 3
        assert results["locked"].under_constrained
        assert results["capped"].report.reason == "max_iterations"
        assert results["capped"].report.iterations == CAP
        assert all(r.report.converged for r in batch[:len(cars)])
        for track, got in zip(tracks, batch):
            (solo,) = est.solve_objects([track], cams, scenario.rig)
            assert_same_solve(got, solo)
            if solo.report.converged:
                est.solve_object(track, cams, scenario.rig)
            else:
                with pytest.raises(NoConvergence):
                    est.solve_object(track, cams, scenario.rig)
                # a track that did not converge keeps its input states
                assert got.states == list(track.states)

    def test_degenerate_track_leaves_the_others(self, windows):
        # a state that is not finite leaves a track's normal equations
        # unsolvable at every damping: that track fails, the others finish
        scenario, cars, _, cams = windows
        bad = replace(cars[1], states=[cars[1].states[0].replace(
            speed=np.nan)] + cars[1].states[1:])
        tracks = [cars[0], bad, cars[2], cars[3]]
        batch = est.solve_objects(tracks, cams, scenario.rig)
        assert batch[1].report.reason == nls.NUMERICAL_FAILURE
        assert not batch[1].report.converged
        assert batch[1].states == bad.states
        with pytest.raises(NumericalFailure):
            est.solve_object(bad, cams, scenario.rig)
        for i in (0, 2, 3):
            (solo,) = est.solve_objects([tracks[i]], cams, scenario.rig)
            assert_same_solve(batch[i], solo)

    def test_one_linearization_per_round(self, windows, monkeypatch):
        # a four-track frame linearizes no more often than its slowest
        # track does alone
        scenario, cars, _, cams = windows
        calls = []
        batches = est._ObjectProblem.batches

        def counted(self, state, blocks, jacobians):
            calls.append(jacobians)
            return batches(self, state, blocks, jacobians)

        monkeypatch.setattr(est._ObjectProblem, "batches", counted)
        est.solve_objects(cars, cams, scenario.rig)
        batched = sum(calls)
        solo = []
        for track in cars:
            calls.clear()
            est.solve_objects([track], cams, scenario.rig)
            solo.append(sum(calls))
        assert batched <= max(solo) < sum(solo)


class TestFeatureGate:
    """Object feature rows that fail the chi-square gate at a solve's
    optimum are flagged, and the tracker drops them."""

    @pytest.fixture(scope="class")
    def window(self):
        # a car ahead over four noise-free frames; one feature row of
        # frame 2 is moved 10 px along u in both images
        scenario = make_scenario(4, [car(0.4, 25.0)], seed=3)
        frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
                  for t in range(4)]
        (track, cams), _ = object_problem(scenario, frames)
        rows = track.features
        bad = int(np.flatnonzero(rows.frame == 2)[0])
        left, right = rows.left.copy(), rows.right.copy()
        left[bad, 0] += 10.0 / scenario.rig.focal_px
        right[bad, 0] += 10.0 / scenario.rig.focal_px
        track = replace(track, features=rows._replace(left=left, right=right))
        return scenario, track, cams, bad

    def test_flags_exactly_the_displaced_row(self, window):
        scenario, track, cams, bad = window
        (result,) = est.solve_objects([track], cams, scenario.rig)
        assert result.report.converged
        assert len(result.outliers) == len(track.features.frame)
        assert np.flatnonzero(result.outliers).tolist() == [bad]

    def test_unconverged_block_flags_no_row(self, window, monkeypatch):
        # one iteration from states half a metre off: many rows are
        # still far off when the block stops, and none is flagged
        scenario, track, cams, _ = window
        monkeypatch.setattr(nls, "MAX_ITERATIONS", 1)
        off = replace(track, states=[s.replace(position=s.position + 0.5)
                                     for s in track.states])
        (result,) = est.solve_objects([off], cams, scenario.rig)
        assert not result.report.converged
        assert len(result.outliers) == len(track.features.frame)
        assert not result.outliers.any()

    def test_tracker_drops_gated_rows_and_bare_landmarks(self, monkeypatch):
        # the frame-3 solve flags every row of one landmark and one row of
        # another: the first landmark goes, the second keeps its other rows
        scenario = make_scenario(4, [car(0.4, 25.0)])
        frames = [sim.synthesize_frame(scenario, t) for t in range(4)]
        tracker = track_frames(scenario, frames[:3])
        (track,) = tracker.tracks.values()
        solve_objects = est.solve_objects
        seen = {}

        def gating(tracks, *args):
            results = solve_objects(tracks, *args)
            rows = tracks[0].features
            ids, counts = np.unique(rows.landmark, return_counts=True)
            kept = ids[np.argmax(counts)]
            gone = ids[ids != kept][0]
            outliers = rows.landmark == gone
            outliers[np.flatnonzero(rows.landmark == kept)[0]] = True
            seen.update(gone=gone, kept=kept, rows=len(rows.frame),
                        flagged=int(outliers.sum()),
                        kept_rows=int(counts.max()))
            return [replace(results[0], outliers=outliers)]

        monkeypatch.setattr(est, "solve_objects", gating)
        tracker.process(frames[3])
        assert seen["kept_rows"] >= 2
        landmark = track.features.landmark
        assert len(landmark) == seen["rows"] - seen["flagged"]
        assert seen["gone"] not in landmark
        assert seen["gone"] not in track.landmarks
        assert (landmark == seen["kept"]).sum() == seen["kept_rows"] - 1
        assert seen["kept"] in track.landmarks
        assert set(track.landmarks) == set(landmark.tolist())


class TestPoseOnlyEgo:
    """The ego solve of the newest pose alone, against held landmarks."""

    def window(self, noise=None):
        """A 6-frame ego window whose newest pose is 0.1 m and 0.01 rad
        off."""
        scenario = make_scenario(6, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, t, noise) for t in range(6)]
        poses, landmarks, rows = ego_problem(scenario, frames)
        rng = np.random.default_rng(41)
        gt = poses[-1]
        poses[-1] = Pose(gt.rotation @ so3_exp(rng.normal(0.0, 0.01, 3)),
                         gt.translation + rng.normal(0.0, 0.1, 3))
        return scenario, poses, landmarks, rows

    def test_holds_landmarks_and_older_poses(self):
        # a noisy stream, so that a window solve would move them all
        scenario, poses, landmarks, rows = self.window()
        result = est.solve_ego(poses, landmarks, rows, scenario.rig,
                               pose_only=True)
        assert result.report.converged
        assert result.report.final_cost < result.report.initial_cost
        for before, after in zip(poses[:-1], result.poses[:-1]):
            assert np.array_equal(before.rotation, after.rotation)
            assert np.array_equal(before.translation, after.translation)
        assert not np.array_equal(poses[-1].translation,
                                  result.poses[-1].translation)
        assert result.landmarks
        for lm, point in result.landmarks.items():
            assert np.array_equal(point, landmarks[lm])
        window = est.solve_ego(poses, landmarks, rows, scenario.rig)
        assert not np.array_equal(window.poses[1].translation,
                                  poses[1].translation)

    def test_zero_noise_recovers_the_newest_pose(self):
        scenario, poses, landmarks, rows = self.window(sim.NoiseSpec.zero())
        result = est.solve_ego(poses, landmarks, rows, scenario.rig,
                               pose_only=True)
        gt = scenario.camera[5]
        assert np.linalg.norm(result.poses[-1].translation
                              - gt.translation) < 1e-8
        assert np.abs(result.poses[-1].rotation - gt.rotation).max() < 1e-8

    def test_parallax_flag_reads_the_whole_window(self):
        # the newest frame's rows alone have no baseline; the window's do
        scenario, poses, landmarks, rows = self.window(sim.NoiseSpec.zero())
        whole = est._EgoProblem(poses, landmarks, rows, scenario.rig)
        alone = est._EgoProblem(poses, landmarks, rows, scenario.rig,
                                pose_only=True)
        assert alone.parallax == whole.parallax > 0.0
        assert set(alone.frame.tolist()) == {5}
        assert len(alone.frame) < len(whole.frame)


def assemble_rows(rows, width):
    """Normal equations of whitened rows (r (k,), full-width J (k, width),
    huber delta or None): each row is robustified on its own, then all
    are stacked into one Jacobian."""
    stacked_r, stacked_j, cost = [np.zeros(0)], [np.zeros((0, width))], 0.0
    for r, jac, delta in rows:
        norm = np.linalg.norm(r)
        weight, rho = 1.0, 0.5 * norm ** 2
        if delta is not None and norm > delta:
            weight, rho = delta / norm, delta * (norm - 0.5 * delta)
        stacked_r.append(np.sqrt(weight) * r)
        stacked_j.append(np.sqrt(weight) * jac)
        cost += rho
    r_all, j_all = np.concatenate(stacked_r), np.concatenate(stacked_j)
    return j_all.T @ j_all, j_all.T @ r_all, cost


def one_feature(left, right, cam, lm, rig, obj=None):
    """One feature row from single-row arrays; None when it is dropped."""
    kw = {} if obj is None else {"position": obj.position[None],
                                 "yaw": np.array([obj.yaw])}
    r, jac, valid = res.feature_residuals_batch(
        left[None], right[None], cam.rotation[None], cam.translation[None],
        lm[None], rig, **kw)
    return (r[0], {k: v[0] for k, v in jac.items()}) if valid[0] else None


def reference_ego(poses, landmarks, rows, state, rig):
    """Full-width whitened rows of the ego window, one row at a time, and
    the number of dropped rows.  The gauge frame has no pose columns;
    ``state`` is (rotations, translations, landmarks)."""
    ids, counts = np.unique(rows.landmark, return_counts=True)
    lm_ids = [lm for lm, n in zip(ids, counts) if n >= 2 and lm in landmarks]
    n_dense = 6 * (len(poses) - 1)
    width = n_dense + 3 * len(lm_ids)
    rot, trans, lms = state
    out, dropped = [], 0
    for f, lm, left, right in zip(*rows):
        if lm not in lm_ids:
            continue
        k = lm_ids.index(lm)
        row = one_feature(left, right, Pose(rot[f], trans[f]), lms[k], rig)
        if row is None:
            dropped += 1
            continue
        r, jac = row
        full = np.zeros((4, width))
        if f > 0:
            full[:, 6 * (f - 1):6 * f] = jac["camera"]
        full[:, n_dense + 3 * k:n_dense + 3 * k + 3] = jac["landmark"]
        info = rig.focal_px / est.FEATURE_SIGMA_PX
        out.append((r * info, full * info, est.HUBER_SCALE))
    return assemble_rows(out, width), n_dense, dropped


def reference_object(track, camera_poses, rig, config, lock_dims, state):
    """Full-width whitened rows of one object window, one row at a time,
    and the number of dropped feature rows."""
    states, dims, lms = state
    lm_ids = sorted(track.landmarks)
    n_dense = 6 * len(track.frames) + (0 if lock_dims else 3)
    dims_col = 6 * len(track.frames)
    width = n_dense + 3 * len(lm_ids)
    out, dropped = [], 0

    def place(row_jac, parts, dims_jac):
        full = np.zeros((len(row_jac), width))
        for slot, jac in parts:
            full[:, 6 * slot:6 * slot + jac.shape[1]] = jac
        if not lock_dims:
            full[:, dims_col:dims_col + 3] = dims_jac
        return full

    info = rig.focal_px / est.FEATURE_SIGMA_PX
    box_info = rig.focal_px / est.BOX_SIGMA_PX
    for f, lm, left, right in zip(*track.features):
        if lm not in lm_ids:
            continue
        k, slot = lm_ids.index(lm), track.frames.index(f)
        row = one_feature(left, right, camera_poses[f], lms[k], rig,
                          states[slot])
        if row is None:
            dropped += 1
            continue
        r, jac = row
        full = place(r, [(slot, jac["object"])], 0.0)
        full[:, n_dense + 3 * k:n_dense + 3 * k + 3] = jac["landmark"]
        out.append((r * info, full * info, est.HUBER_SCALE))
    sem = track.semantic
    for f, edges, valid, signs in zip(*sem):
        slot = track.frames.index(f)
        s, cam = states[slot], camera_poses[f]
        r, jac, _ = res.semantic_residual(
            edges[None], valid[None], signs[None], cam.rotation[None],
            cam.translation[None], s.position[None], np.array([s.yaw]),
            dims)
        for i in range(len(r)):
            full = place(r[i:i + 1], [(slot, jac["object"][i:i + 1])],
                         jac["dims"][i])
            out.append((r[i:i + 1] * box_info, full * box_info, None))
    for i in range(len(track.frames) - 1):
        cur, prev = states[i + 1], states[i]
        dt = (track.frames[i + 1] - track.frames[i]) * config.dt
        r, jac = res.motion_residual(
            [[*cur.position, cur.yaw, cur.steer, cur.speed]],
            [[*prev.position, prev.yaw, prev.steer, prev.speed]], dt, dims,
            track.label)
        info_m = 1.0 / (est.MOTION_SIGMAS * np.sqrt(dt))
        full = place(r[0], [(i + 1, jac["cur"][0]), (i, jac["prev"][0])],
                     jac["dims"][0])
        out.append((r[0] * info_m, full * info_m[:, None], None))
    if not lock_dims:
        info_p = 1.0 / np.asarray(track.prior.sigma, dtype=float)
        full = np.zeros((3, width))
        full[:, dims_col:dims_col + 3] = np.diag(info_p)
        out.append(((dims - track.prior.mean) * info_p, full, None))
    return assemble_rows(out, width), n_dense, dropped


def assert_matches_reference(eq, reference, n_dense, tol=1e-10):
    """The one-block Schur accumulator against the full-width reference, to
    ``tol`` relative to the largest entry of the reference H and g.  Dense
    columns past ``n_dense`` (the dims of a locked track) are padding and
    must have no terms."""
    (h_ref, g_ref, cost_ref) = reference
    n_lm = eq.n_landmarks
    h_scale, g_scale = np.abs(h_ref).max(), np.abs(g_ref).max()
    h_dd, h_dl, g_d = eq.h_dd[0], eq.h_dl[0], eq.g_d[0]

    def close(a, b, scale):
        assert a.shape == b.shape
        assert np.abs(a - b).max(initial=0.0) <= tol * scale

    assert not (h_dd[n_dense:].any() or h_dd[:, n_dense:].any()
                or h_dl[n_dense:].any() or g_d[n_dense:].any())
    close(h_dd[:n_dense, :n_dense], h_ref[:n_dense, :n_dense], h_scale)
    close(h_dl[:n_dense], h_ref[:n_dense, n_dense:], h_scale)
    h_ll = h_ref[n_dense:, n_dense:].reshape(n_lm, 3, n_lm, 3)
    blocks = h_ll[np.arange(n_lm), :, np.arange(n_lm), :]
    close(eq.h_ll[0], blocks, h_scale)
    # landmarks couple only through the dense block
    h_ll[np.arange(n_lm), :, np.arange(n_lm), :] = 0.0
    assert not h_ll.any()
    close(g_d[:n_dense], g_ref[:n_dense], g_scale)
    close(eq.g_l[0].ravel(), g_ref[n_dense:], g_scale)
    assert eq.cost[0] == pytest.approx(cost_ref, rel=tol)


def last_ego_solve(ego_calls, pose_only=False):
    """The arguments of the last captured ego solve of a whole window, or
    of a newest pose alone."""
    *args, _ = next(call for call in reversed(ego_calls)
                    if call[-1] == pose_only)
    return args


class TestOnePassProblems:
    """Each LM evaluation is one batch per residual family; its normal
    equations must equal those of full-width rows added one at a time."""

    @pytest.fixture(scope="class")
    def captured(self):
        # a dense-traffic window: three cars and a camera on a curve,
        # window 5; the tracker's own solver inputs are captured
        scenario = make_scenario(
            8, [car(-10.0, 18.0), car(0.4, 25.0), car(14.0, 20.0)], seed=9,
            camera={"speed": 10.0, "yaw_rate": 0.125},
            landmarks={"background_n": 150, "per_object_n": 16})
        config = est.EstimatorConfig(dt=scenario.dt, window=5)
        ego_calls, object_calls = [], []
        solve_ego, solve_objects = est.solve_ego, est.solve_objects

        def capture_ego(*args, pose_only=False):
            ego_calls.append((*args, pose_only))
            return solve_ego(*args, pose_only=pose_only)

        def capture_objects(tracks, poses, rig, config, start):
            # the tracker's own tracks move on: keep each as it was, with
            # its frames counted from the window's start
            object_calls.extend((shifted(track, -start), poses, rig, config)
                                for track in tracks)
            return solve_objects(tracks, poses, rig, config, start)

        tracker = est.WindowTracker(scenario.rig, config,
                                    initial_pose=scenario.camera[0])
        est.solve_ego, est.solve_objects = capture_ego, capture_objects
        try:
            for t in range(scenario.n_frames):
                tracker.process(sim.synthesize_frame(scenario, t))
        finally:
            est.solve_ego, est.solve_objects = solve_ego, solve_objects
        return scenario, config, ego_calls, object_calls

    def check_ego(self, poses, landmarks, rows, rig, state=None):
        problem = est._EgoProblem(poses, landmarks, rows, rig)
        state = problem.initial if state is None else state
        ref, n_dense, dropped = reference_ego(poses, landmarks, rows, state,
                                              rig)
        assert_matches_reference(linearize(problem, state), ref, n_dense)
        assert block_costs(problem, state)[0] == pytest.approx(ref[2],
                                                               rel=1e-10)
        return dropped

    def check_object(self, track, camera_poses, rig, config, lock_dims=False):
        problem = est._ObjectProblem([track], camera_poses, rig, config.dt,
                                     [lock_dims])
        state = problem.initial
        motion, dims, lms = state
        states = [s.replace(position=m[:3], yaw=m[3], steer=m[4],
                            speed=m[5]) for s, m in zip(track.states,
                                                        motion[0])]
        ref, n_dense, dropped = reference_object(
            track, camera_poses, rig, config, lock_dims,
            (states, dims[0], lms[0]))
        assert_matches_reference(linearize(problem, state), ref, n_dense)
        assert block_costs(problem, state)[0] == pytest.approx(ref[2],
                                                               rel=1e-10)
        return dropped

    def test_captured_ego_window_with_gauge_rows(self, captured):
        scenario, config, ego_calls, _ = captured
        poses, landmarks, rows, rig = last_ego_solve(ego_calls)
        assert len(poses) == 5 and (rows.frame == 0).any()
        self.check_ego(poses, landmarks, rows, rig)

    def test_captured_pose_only_window(self, captured):
        # the pose-only solve's normal equations are those of the window
        # restricted to the newest pose's columns
        scenario, config, ego_calls, _ = captured
        poses, landmarks, rows, rig = last_ego_solve(ego_calls,
                                                     pose_only=True)
        problem = est._EgoProblem(poses, landmarks, rows, rig,
                                  pose_only=True)
        eq = linearize(problem, problem.initial)
        assert isinstance(eq, nls.DenseNormalEquations) and eq.size == 6
        (h_ref, g_ref, _), n_dense, _ = reference_ego(
            poses, landmarks, rows, problem.initial, rig)
        newest = slice(n_dense - 6, n_dense)
        h_ref, g_ref = h_ref[newest, newest], g_ref[newest]
        assert np.abs(eq.h_mat[0] - h_ref).max() <= \
            1e-10 * np.abs(h_ref).max()
        assert np.abs(eq.grad[0] - g_ref).max() <= \
            1e-10 * np.abs(g_ref).max()

    def test_captured_object_window(self, captured):
        scenario, config, _, object_calls = captured
        track, camera_poses, rig, _ = max(
            object_calls, key=lambda c: (len(c[0].frames),
                                         len(c[0].features.frame)))
        assert len(track.frames) == 5 and len(track.features.frame) > 20
        assert len(np.unique(track.features.landmark)) < \
            len(track.features.landmark)
        self.check_object(track, camera_poses, rig, config)

    def test_image_rows_follow_the_focal_length(self, captured):
        # the image sigmas are pixels over the rig's focal length: at twice
        # the focal length, a window's whitened feature and box rows are
        # exactly twice as large, and its motion and prior rows the same
        scenario, config, ego_calls, object_calls = captured
        poses, landmarks, rows, rig = last_ego_solve(ego_calls)
        track, camera_poses, _, _ = max(
            object_calls, key=lambda c: len(c[0].features.frame))
        assert rig.focal_px == 700.0
        wide = replace(rig, focal_px=1400.0)
        factor = {"feature": 2.0, "semantic": 2.0, "motion": 1.0,
                  "prior": 1.0}
        for make, tags in (
                (lambda r: est._EgoProblem(poses, landmarks, rows, r),
                 {"feature"}),
                (lambda r: est._ObjectProblem([track], camera_poses, r,
                                              config.dt, [False]),
                 set(factor))):
            narrow, scaled = (
                {b.tag: b for b in p.batches(p.initial, np.arange(1), True)}
                for p in (make(rig), make(wide)))
            assert narrow.keys() == scaled.keys() == tags
            for tag, batch in narrow.items():
                for name in ("residuals", "jac", "lm_jac"):
                    a, b = getattr(batch, name), getattr(scaled[tag], name)
                    if a is not None:
                        assert np.array_equal(b, factor[tag] * a), (tag, name)

    def test_rows_behind_the_camera(self, captured):
        scenario, config, ego_calls, object_calls = captured
        poses, landmarks, rows, rig = last_ego_solve(ego_calls)
        landmarks = dict(landmarks)
        behind = int(rows.landmark[rows.frame == 0][0])
        landmarks[behind] = poses[0].apply(np.array([0.5, 0.0, -4.0]))
        assert self.check_ego(poses, landmarks, rows, rig) > 0
        # a zero-weight row leaves the normal equations exactly as leaving
        # the row out of the batch does
        problem = est._EgoProblem(poses, landmarks, rows, rig)
        rot, trans, lms = problem.initial
        valid = res.feature_residuals_batch(
            problem.left, problem.right, rot[problem.frame],
            trans[problem.frame], lms[problem.slot], rig)[2]
        assert not valid.all()
        (batch,) = problem.batches(problem.initial, np.arange(1), True)
        dropped = problem.equations()
        dropped.add_batch(batch._replace(
            residuals=batch.residuals[valid], jac=batch.jac[valid],
            lm_jac=batch.lm_jac[valid], plan=problem.plan[valid]))
        kept = linearize(problem, problem.initial)
        for name in ("h_dd", "g_d", "h_ll", "g_l", "h_dl"):
            assert np.array_equal(getattr(kept, name), getattr(dropped, name))
        assert kept.cost[0] == pytest.approx(dropped.cost[0], rel=1e-14)
        track, camera_poses, rig, _ = max(
            object_calls, key=lambda c: len(c[0].features.frame))
        f, lm = track.features.frame[0], int(track.features.landmark[0])
        slot = track.frames.index(f)
        world = camera_poses[f].apply(np.array([0.0, 0.0, -3.0]))
        track = replace(track, landmarks={
            **track.landmarks,
            lm: track.states[slot].pose.apply_inverse(world)})
        assert self.check_object(track, camera_poses, rig, config) > 0

    def test_perturbed_ego_state(self):
        # away from the optimum, so that the Huber loss is active
        scenario = make_scenario(6, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
                  for t in range(6)]
        rng = np.random.default_rng(31)
        poses, landmarks, rows = ego_problem(
            scenario, frames, rng, pose_noise=(0.3, 0.02), lm_noise=0.5)
        self.check_ego(poses, landmarks, rows, scenario.rig)

    def test_semantic_only_track_with_locked_dims(self):
        scenario = make_scenario(2, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, 0)]
        (track, poses), _ = object_problem(scenario, frames,
                                           with_features=False)
        self.check_object(track, poses, scenario.rig,
                          est.EstimatorConfig(), lock_dims=True)

    def test_single_frame_track(self):
        scenario = make_scenario(2, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, 0)]
        rng = np.random.default_rng(32)
        (track, poses), _ = object_problem(scenario, frames, rng=rng,
                                           state_noise=(0.2, 0.05),
                                           lm_noise=0.1)
        assert len(track.features.frame)
        self.check_object(track, poses, scenario.rig, est.EstimatorConfig())

    def test_pedestrian(self):
        scenario = make_scenario(6, [{
            "class": "pedestrian",
            "init": {"x": -8.0, "z": 14.0, "yaw": FORWARD, "v": 1.2}}])
        frames = [sim.synthesize_frame(scenario, t) for t in range(6)]
        rng = np.random.default_rng(33)
        (track, poses), _ = object_problem(scenario, frames, rng=rng,
                                           state_noise=(0.1, 0.05),
                                           lm_noise=0.05, dims_noise=0.05)
        assert track.label == "pedestrian" and len(track.semantic.frame)
        self.check_object(track, poses, scenario.rig, est.EstimatorConfig())


class TestAlignPointCloud:
    def surface_cloud(self, dims, rng, n=40):
        points = sim._sample_face_points(np.asarray(dims), n, rng)
        return points

    def test_points_on_surface_zero_update(self):
        rng = np.random.default_rng(9)
        state = ObjectState(position=np.array([2.0, -0.85, 20.0]), yaw=0.4,
                            dims=np.array([3.9, 1.6, 1.7]))
        cloud = self.surface_cloud(state.dims, rng)
        aligned, applied = est.align_point_cloud(state, cloud)
        assert applied
        assert np.linalg.norm(aligned.position - state.position) < 1e-9
        assert aligned.yaw == state.yaw

    def test_recovers_lateral_shift(self):
        rng = np.random.default_rng(10)
        true = ObjectState(position=np.array([2.0, -0.85, 20.0]), yaw=0.4,
                           dims=np.array([3.9, 1.6, 1.7]))
        cloud_true = self.surface_cloud(true.dims, rng)
        shifted = true.replace(position=true.position
                               + np.array([0.2, 0.0, 0.0]))
        # express the true-surface cloud in the shifted box frame
        world = np.array([true.pose.apply(p) for p in cloud_true])
        local = np.array([shifted.pose.apply_inverse(p) for p in world])
        aligned, applied = est.align_point_cloud(shifted, local)
        assert applied
        # cloud points lie on the vertical faces, so only the ground-plane
        # components of the shift are observable
        err = aligned.position[[0, 2]] - true.position[[0, 2]]
        assert np.linalg.norm(err) < 1e-3

    def test_yaw_offset_held_while_position_recovered(self):
        # the yaw is not a state of the alignment: a box turned off its
        # cloud keeps its yaw bit for bit, and its centre still lands on
        # the cloud's
        rng = np.random.default_rng(12)
        true = ObjectState(position=np.array([2.0, -0.85, 20.0]), yaw=0.4,
                           dims=np.array([3.9, 1.6, 1.7]))
        world = true.pose.apply(self.surface_cloud(true.dims, rng, n=200))
        shifted = true.replace(position=true.position
                               + np.array([0.25, 0.0, -0.2]), yaw=0.43)
        aligned, applied = est.align_point_cloud(
            shifted, shifted.pose.apply_inverse(world))
        assert applied
        assert aligned.yaw == shifted.yaw
        assert np.array_equal(aligned.dims, shifted.dims)
        err = aligned.position[[0, 2]] - true.position[[0, 2]]
        assert np.linalg.norm(err) < 0.02

    def test_single_face_no_op(self):
        state = ObjectState(position=np.zeros(3), yaw=0.0,
                            dims=np.array([4.0, 2.0, 2.0]))
        pts = np.column_stack([np.full(10, 2.0),
                               np.linspace(-0.5, 0.5, 10),
                               np.linspace(-0.5, 0.5, 10)])
        aligned, applied = est.align_point_cloud(state, pts)
        assert not applied and aligned is state

    def test_no_x_face_no_op(self):
        # points on the y and z faces leave the position along the box x
        # axis unobserved, which the solve would walk without bound
        state = ObjectState(position=np.array([2.0, -0.85, 20.0]), yaw=0.4,
                            dims=np.array([4.0, 1.6, 1.8]))
        grid = np.linspace(-1.2, 1.2, 5)
        pts = np.concatenate([
            np.column_stack([grid, np.full(5, 0.8), np.linspace(-0.5, 0.5,
                                                                5)]),
            np.column_stack([grid, np.full(5, -0.8), np.zeros(5)]),
            np.column_stack([grid, np.linspace(-0.4, 0.4, 5),
                             np.full(5, 0.9)])])
        faces = np.argmin(np.abs(est.face_offsets(state.dims, pts)), axis=1)
        assert set(faces.tolist()) == {2, 3, 4}  # +y, -y, +z
        aligned, applied = est.align_point_cloud(state, pts)
        assert not applied and aligned is state

    def test_batch_matches_single_solves(self):
        # boxes aligned together come out as they do one at a time; a box
        # whose cloud fails the face gate stays as it is
        rng = np.random.default_rng(11)
        states, clouds = [], []
        for k in range(3):
            true = ObjectState(position=np.array([2.0 * k, -0.85, 20.0]),
                               yaw=0.3 * k, dims=np.array([3.9, 1.6, 1.7]))
            shifted = true.replace(position=true.position
                                   + rng.normal(0.0, 0.2, 3))
            world = true.pose.apply(self.surface_cloud(true.dims, rng))
            states.append(shifted)
            clouds.append(shifted.pose.apply_inverse(world))
        clouds[1] = clouds[1][:2]
        batch = est.align_point_clouds(states, clouds)
        assert [applied for _, applied in batch] == [True, False, True]
        assert batch[1][0] is states[1]
        for (got, applied), state, cloud in zip(batch, states, clouds):
            alone, applied_alone = est.align_point_cloud(state, cloud)
            assert applied == applied_alone
            assert np.abs(got.position - alone.position).max() < 1e-12
            assert got.yaw == state.yaw

    def test_too_few_points_no_op(self):
        state = ObjectState(position=np.zeros(3), yaw=0.0,
                            dims=np.array([4.0, 2.0, 2.0]))
        aligned, applied = est.align_point_cloud(state,
                                                 np.array([[2.0, 0.0, 0.0],
                                                           [0.0, 1.0, 0.0]]))
        assert not applied


def track_frames(scenario, frames):
    """A tracker with the default settings that has processed ``frames``."""
    tracker = est.WindowTracker(scenario.rig,
                                est.EstimatorConfig(dt=scenario.dt),
                                initial_pose=scenario.camera[0])
    for frame in frames:
        tracker.process(frame)
    return tracker


def object_blind(frame):
    """``frame`` as an object-blind tracker sees it: every feature static
    background, no detections."""
    return replace(frame, semantic=(), features=tuple(
        replace(f, anchor_id=0) for f in frame.features))


def reference_window_rows(scenario, frames, config, born):
    """The window rows of a drive as per-observation tuples, built the way
    the tracker built them: per frame, the background loses the features
    that RANSAC rejects against the last frame, and a feature gets a row
    when its landmark is held or it triangulates.  Object rows are not
    gated.  Background landmarks
    are held while they have rows in the window, anchored ones for good;
    an object has no rows before ``born`` (object id to the frame its
    track starts).  Returns, per frame, the ego window's (frame, id, left,
    right) tuples and, per detected object, its (frame, id, left, right)
    and (frame, edges, valid, viewpoint) tuples, frames counted from the
    window's start."""
    window = config.window

    def triangulates(f):
        disparity = f.left[0] - f.right[0]
        return (disparity > 1e-9
                and est.MIN_DEPTH <= scenario.rig.baseline / disparity
                <= est.MAX_DEPTH)

    held = {}  # anchor id to its rows, by absolute frame
    boxes = {}  # object id to its box rows
    ego, objects = [], []
    for t, frame in enumerate(frames):
        start = max(0, t - window + 1)
        prev = ({f.feature_id: f.left for f in frames[t - 1].features}
                if t else {})
        groups = {}
        for f in frame.features:
            groups.setdefault(f.anchor_id, []).append(f)
        detected = {s.object_id for s in frame.semantic
                    if born.get(s.object_id, t + 1) <= t}
        for anchor, group in groups.items():
            if anchor and anchor not in detected:
                continue
            paired = [f for f in group if f.feature_id in prev]
            if anchor == 0 and len(paired) >= 8:
                try:
                    mask, passthrough = reject_outliers(
                        np.array([prev[f.feature_id] for f in paired]),
                        np.array([f.left for f in paired]),
                        feature_sigma=(est.FEATURE_SIGMA_PX
                                       / scenario.rig.focal_px), seed=t)
                except DegenerateGroup:
                    passthrough = True
                if not passthrough:
                    bad = {f.feature_id for f, k in zip(paired, mask)
                           if not k}
                    group = [f for f in group if f.feature_id not in bad]
            rows = held.setdefault(anchor, [])
            # background landmarks were cut with the last frame's window
            since = max(0, t - window) if anchor == 0 else 0
            landmarked = {fid for f0, fid, _, _ in rows if f0 >= since}
            for f in sorted(group, key=lambda f: f.feature_id):
                if f.feature_id in landmarked or triangulates(f):
                    rows.append((t, f.feature_id, f.left, f.right))
                    landmarked.add(f.feature_id)
        for s in frame.semantic:
            if s.object_id not in detected:
                continue
            boxes.setdefault(s.object_id, []).append(
                (t, s.box.as_array(), s.valid_edges, s.viewpoint))

        def in_window(rows):
            return [(o[0] - start, *o[1:]) for o in rows if o[0] >= start]

        ego.append(in_window(held.get(0, [])))
        objects.append({obj: (in_window(held.get(obj, [])),
                              in_window(boxes[obj])) for obj in detected})
    return ego, objects


class TestWindowTracker:
    def run_tracker(self, scenario, noise=None):
        tracker = est.WindowTracker(scenario.rig,
                                    est.EstimatorConfig(dt=scenario.dt),
                                    initial_pose=scenario.camera[0])
        for t in range(scenario.n_frames):
            tracker.process(sim.synthesize_frame(scenario, t, noise))
        return tracker

    def test_zero_noise_camera_and_objects(self):
        scenario = make_scenario(12, [car(-10.0, 18.0), car(0.4, 25.0)])
        tracker = self.run_tracker(scenario, sim.NoiseSpec.zero())
        for pose, gt in zip(tracker.camera_trajectory, scenario.camera):
            assert np.linalg.norm(pose.translation - gt.translation) < 1e-8
        assert len(tracker.object_trajectories) == 2
        for traj in tracker.object_trajectories.values():
            assert len(traj) == 12
            for t, state in traj:
                best = min(scenario.objects,
                           key=lambda o: np.linalg.norm(
                               o.states[t].position - state.position))
                err = np.linalg.norm(best.states[t].position - state.position)
                assert err < 1e-6

    def test_noisy_run_reasonable(self):
        scenario = make_scenario(12, [car(-10.0, 18.0)])
        tracker = self.run_tracker(scenario)
        for pose, gt in zip(tracker.camera_trajectory, scenario.camera):
            assert np.linalg.norm(pose.translation - gt.translation) < 0.05
        traj = next(iter(tracker.object_trajectories.values()))
        obj = scenario.objects[0]
        for t, state in traj:
            rng_m = np.linalg.norm(scenario.camera[t].translation
                                   - obj.states[t].position)
            err = np.linalg.norm(obj.states[t].position - state.position)
            assert err / rng_m < 0.06

    def test_deterministic(self):
        scenario = make_scenario(8, [car(-10.0, 18.0)])
        a = self.run_tracker(scenario)
        b = self.run_tracker(scenario)
        for pa, pb in zip(a.camera_trajectory, b.camera_trajectory):
            assert np.array_equal(pa.translation, pb.translation)
            assert np.array_equal(pa.rotation, pb.rotation)
        for (ka, va), (kb, vb) in zip(sorted(a.object_trajectories.items()),
                                      sorted(b.object_trajectories.items())):
            assert ka == kb
            for (ta, sa), (tb, sb) in zip(va, vb):
                assert ta == tb
                assert np.array_equal(sa.position, sb.position)

    def test_ego_window_starts_at_the_damping_floor(self, monkeypatch):
        # the ego window starts from the last frame's optimum, so its LM
        # starts at the floor and never rejects a trial; object windows
        # start far off theirs and keep the default 1e-4
        solves = []  # (problem class, normal equations, damping)
        problem = []
        solve_nls, solve = est.solve_nls, nls.SchurNormalEquations.solve

        def tagged(prob, state, **kwargs):
            problem.append(type(prob))
            return solve_nls(prob, state, **kwargs)

        def recorded(self, damping, blocks):
            solves.append((problem[-1], self, damping.copy()))
            return solve(self, damping, blocks)

        monkeypatch.setattr(est, "solve_nls", tagged)
        monkeypatch.setattr(nls.SchurNormalEquations, "solve", recorded)
        self.run_tracker(make_scenario(20, [car(-10.0, 18.0)]))
        ego = [(eq, d) for cls, eq, d in solves if cls is est._EgoProblem]
        obj = [d for cls, _, d in solves if cls is est._ObjectProblem]
        assert len(ego) >= 19 and obj
        assert ego[0][1].tolist() == [nls.MIN_DAMPING]
        assert set(obj[0].tolist()) == {1e-4}
        # one damped solve per linearization: every ego trial was taken
        # (the list holds each set of equations, so no id is reused)
        assert len({id(eq) for eq, _ in ego}) == len(ego)

    def keyframes(self, scenario, monkeypatch, window=4):
        """The frames whose ego solve takes the whole window, and those
        that solve their pose alone."""
        calls = []
        solve_ego = est.solve_ego

        def recorded(*args, pose_only=False):
            calls.append((tracker._frame, pose_only))
            return solve_ego(*args, pose_only=pose_only)

        monkeypatch.setattr(est, "solve_ego", recorded)
        tracker = est.WindowTracker(
            scenario.rig, est.EstimatorConfig(dt=scenario.dt, window=window),
            initial_pose=scenario.camera[0])
        for t in range(scenario.n_frames):
            tracker.process(sim.synthesize_frame(scenario, t))
        return ([t for t, pose_only in calls if not pose_only],
                [t for t, pose_only in calls if pose_only])

    def test_static_camera_keyframes_as_the_window_slides(self,
                                                          monkeypatch):
        # nothing moves: a new keyframe only when the last one has left
        # the window of 4 frames
        scenario = make_scenario(13, camera={"start": [0.0, -1.5, 0.0],
                                             "yaw": 0.0, "speed": 0.0})
        full, pose_only = self.keyframes(scenario, monkeypatch)
        assert full == [4, 8, 12]
        assert pose_only == [1, 2, 3, 5, 6, 7, 9, 10, 11]

    def test_fast_camera_keyframes_every_frame(self, monkeypatch):
        scenario = make_scenario(10, camera={"speed": 20.0,
                                             "yaw_rate": 0.4})
        full, pose_only = self.keyframes(scenario, monkeypatch)
        assert full == list(range(1, 10)) and pose_only == []

    def test_landmarks_born_on_a_pose_only_frame_follow_its_pose(
            self, monkeypatch):
        # each landmark first seen on a pose-only frame sits at its stereo
        # triangulation from that frame's solved pose, not its predicted
        # one.  A sixth more of the background comes into view on each of
        # the first frames
        scenario = make_scenario(12, camera={"speed": 8.0,
                                             "yaw_rate": 0.1})
        predicted = {}  # pose-only frame to its pose before the solve
        solve_ego = est.solve_ego

        def recorded(poses, *args, pose_only=False):
            if pose_only:
                predicted[tracker._frame] = poses[-1]
            return solve_ego(poses, *args, pose_only=pose_only)

        monkeypatch.setattr(est, "solve_ego", recorded)
        tracker = est.WindowTracker(scenario.rig,
                                    est.EstimatorConfig(dt=scenario.dt),
                                    initial_pose=scenario.camera[0])
        checked = 0
        for t in range(scenario.n_frames):
            frame = sim.synthesize_frame(scenario, t)
            frame = replace(frame, features=tuple(
                f for f in frame.features if f.feature_id % 6 <= t))
            held = set(tracker.bg_landmarks)
            tracker.process(frame)
            if t not in predicted:
                continue
            pose = tracker.camera_trajectory[t]
            assert not np.array_equal(pose.translation,
                                      predicted[t].translation)
            for f in frame.features:
                if f.feature_id in held or \
                        f.feature_id not in tracker.bg_landmarks:
                    continue
                z = scenario.rig.baseline / (f.left[0] - f.right[0])
                point = pose.apply(np.array([f.left[0] * z,
                                             f.left[1] * z, z]))
                assert np.allclose(tracker.bg_landmarks[f.feature_id],
                                   point, rtol=0.0, atol=1e-9)
                checked += 1
        assert len(predicted) > 2 and checked > 20

    def test_held_observations_stay_in_window(self):
        # a stream three windows long: the tracker holds no observation,
        # and no track more states than the window, from before it
        window = 4
        scenario = make_scenario(3 * window, [car(-10.0, 18.0)])
        tracker = est.WindowTracker(
            scenario.rig, est.EstimatorConfig(dt=scenario.dt, window=window),
            initial_pose=scenario.camera[0])
        for t in range(scenario.n_frames):
            tracker.process(sim.synthesize_frame(scenario, t))
            rows = tracker.bg_rows
            assert sum(len(v) for v in tracker.bg_obs.values()) == \
                len(rows.frame)
            held = rows.frame.tolist()
            for track in tracker.tracks.values():
                held += track.features.frame.tolist()
                held += track.semantic.frame.tolist()
                assert len(track.features.frame) == len(track.feature_obs)
                assert len(track.semantic.frame) == len(track.semantic_obs)
                assert len(track.frames) == len(track.states)
                assert len(track.frames) <= window
                assert min(track.frames) >= t - window + 1
            assert min(held) >= t - window + 1
        assert len(tracker.tracks) == 1
        assert len(tracker.object_trajectories[0]) == scenario.n_frames

    def test_non_finite_feature_refused_without_state_change(self):
        # NaN on the left u of a frame-0 background feature at frame 5
        config = pipeline.demo_config()
        config["scenario"]["n_frames"] = 8
        scenario = sim.generate_scenario(config["scenario"], config["seed"])
        frames = sim.synthesize_all(scenario)
        background = {f.feature_id for f in frames[0].features
                      if f.anchor_id == 0}
        features = list(frames[5].features)
        i = next(i for i, f in enumerate(features)
                 if f.feature_id in background)
        bad = features[i]
        features[i] = replace(bad, left=np.array([np.nan, bad.left[1]]))
        frames[5] = replace(frames[5], features=tuple(features))
        tracker = track_frames(scenario, frames[:5])
        with pytest.raises(ConfigError,
                           match=f"frame 5: feature {bad.feature_id} "):
            tracker.process(frames[5])
        assert len(tracker.camera_trajectory) == 5
        for n, frame in enumerate(frames[6:], start=6):
            tracker.process(frame)
            assert len(tracker.camera_trajectory) == n

    def test_non_finite_box_refused_without_state_change(self):
        scenario = make_scenario(4, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, t) for t in range(4)]
        det = frames[2].semantic[0]
        box = BBox2D(np.nan, det.box.v_min, det.box.u_max, det.box.v_max)
        frames[2] = replace(frames[2],
                            semantic=(replace(det, box=box),))
        tracker = track_frames(scenario, frames[:2])
        with pytest.raises(ConfigError,
                           match=f"frame 2: detection {det.object_id} "):
            tracker.process(frames[2])
        assert len(tracker.camera_trajectory) == 2
        assert [t for t, _ in tracker.object_trajectories[0]] == [0, 1]
        tracker.process(frames[3])
        assert len(tracker.camera_trajectory) == 3

    def test_wrong_edge_flag_count_refused_without_state_change(self):
        # three edge flags on a detection at frame 6: refused, and the
        # frames after it, which would hold it in their window, track
        scenario = make_scenario(12, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, t) for t in range(12)]
        det = frames[6].semantic[0]
        frames[6] = replace(frames[6], semantic=(
            replace(det, valid_edges=(True, True, True)),
            *frames[6].semantic[1:]))
        tracker = est.WindowTracker(
            scenario.rig, est.EstimatorConfig(dt=scenario.dt, window=5),
            initial_pose=scenario.camera[0])
        for frame in frames[:6]:
            tracker.process(frame)
        poses = list(tracker.camera_trajectory)
        message = f"frame 6: detection {det.object_id} does not have 4 edge"
        with pytest.raises(ConfigError, match=message):
            tracker.process(frames[6])
        assert tracker._frame == 5
        assert tracker.camera_trajectory == poses
        for n, frame in enumerate(frames[7:], start=7):
            tracker.process(frame)
            assert len(tracker.camera_trajectory) == n
        assert len(tracker.object_trajectories[0]) == 11

    def test_window_of_corner_truncated_boxes_keeps_prediction(self):
        # from frame 4 the car's boxes keep only v_min and u_max, as when
        # it leaves the image: once no box of the window keeps both edges
        # along an image axis, the track coasts on its motion model
        window = 4
        scenario = make_scenario(10, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, t) for t in range(10)]
        for t in range(4, 10):
            det = frames[t].semantic[0]
            frames[t] = replace(frames[t], semantic=(
                replace(det, valid_edges=(False, True, True, False)),))
        tracker = est.WindowTracker(
            scenario.rig, est.EstimatorConfig(dt=scenario.dt, window=window),
            initial_pose=scenario.camera[0])
        for t, frame in enumerate(frames):
            held = [dict(zip(track.frames, track.states))
                    for track in tracker.tracks.values()]
            tracker.process(frame)
            if t < 4:
                continue
            (by_frame,), (track,) = held, tracker.tracks.values()
            before = list(by_frame.values())
            predicted = sim.propagate_object(
                before[-1], (before[-1].speed, before[-1].steer),
                scenario.dt, track.label)
            coasting = t >= 4 + window - 1
            assert np.array_equal(track.states[-1].position,
                                  predicted.position) == coasting
            if coasting:
                # the states still in the window have not moved
                assert track.states[:-1] == [by_frame[f]
                                             for f in track.frames[:-1]]
        assert [f for f, _ in tracker.object_trajectories[0]] == \
            list(range(10))

    def test_range_observed_needs_an_edge_pair(self):
        def window(*flags):
            n = len(flags)
            return est.SemanticRows(np.arange(n), np.zeros((n, 4)),
                                    np.array(flags, dtype=bool).reshape(-1, 4),
                                    np.zeros((n, 4, 3)))

        corner = (False, True, True, False)
        assert not est._range_observed(window(corner, corner))
        assert not est._range_observed(window((True, False, False, True)))
        assert est._range_observed(window(corner, (True, False, True, False)))
        assert est._range_observed(window((False, True, False, True)))
        assert est._range_observed(window((True, True, True, False)))

    def test_malformed_feature_point_refused(self):
        scenario = make_scenario(3, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, t) for t in range(3)]
        bad = frames[1].features[0]
        frames[1] = replace(frames[1], features=(
            replace(bad, left=np.append(bad.left, 1.0)),
            *frames[1].features[1:]))
        tracker = track_frames(scenario, frames[:1])
        with pytest.raises(ConfigError, match="frame 1: .* not a 2-vector"):
            tracker.process(frames[1])
        assert len(tracker.camera_trajectory) == 1
        tracker.process(frames[2])
        assert len(tracker.camera_trajectory) == 2

    def test_window_rows_match_per_observation_tuples(self, monkeypatch):
        # a 20-frame drive past two cars: the rows that the solvers get
        # equal those built from the stream's observations one at a time.
        # Each frame's features come shuffled, so that the rows' order is
        # the tracker's doing.  The reference models association and
        # triangulation, not the object solve's gate, so the gate is off
        monkeypatch.setattr(est, "FEATURE_CHI2_GATE", np.inf)
        scenario = make_scenario(20, [car(-10.0, 18.0), car(0.4, 25.0)])
        rng = np.random.default_rng(0)
        frames = []
        for t in range(20):
            frame = sim.synthesize_frame(scenario, t)
            frames.append(replace(frame, features=tuple(
                frame.features[i]
                for i in rng.permutation(len(frame.features)))))
        config = est.EstimatorConfig(dt=scenario.dt)
        calls = []

        def record(name, solve, snapshot=lambda *args: args):
            def recorded(*args, **kwargs):
                calls.append((name, snapshot(*args)))
                return solve(*args, **kwargs)
            return recorded

        def snapshot(tracks, poses, rig, config, start):
            # each track as it was, with its frames counted from the
            # window's start: the tracker's own tracks move on
            return [shifted(track, -start) for track in tracks], poses

        monkeypatch.setattr(est, "solve_ego", record("ego", est.solve_ego))
        monkeypatch.setattr(est, "solve_objects",
                            record("objects", est.solve_objects, snapshot))
        tracker = est.WindowTracker(scenario.rig, config,
                                    initial_pose=scenario.camera[0])
        got = []
        for frame in frames:
            tracker.process(frame)
            got.append(dict(calls))
            calls.clear()
        object_of = {tid: obj
                     for obj, tid in tracker._detector_to_track.items()}
        assert sorted(object_of) == [0, 1]
        born = {object_of[tid]: trajectory[0][0] for tid, trajectory
                in tracker.object_trajectories.items()}
        ego_ref, object_ref = reference_window_rows(scenario, frames, config,
                                                    born)
        for t, solved in enumerate(got):
            start = max(0, t - config.window + 1)
            if t == 0:
                assert "ego" not in solved
            else:
                poses, landmarks, rows = solved["ego"][:3]
                expected = est.feature_rows(ego_ref[t])
                for a, b in zip(rows, expected):
                    assert np.array_equal(a, b)
                # the ego problem keeps the rows that the tuple code handed
                # it, the landmarks seen at least twice
                twice = [o for o in ego_ref[t]
                         if sum(p[1] == o[1] for p in ego_ref[t]) >= 2]
                new, old = (est._EgoProblem(poses, landmarks, r, scenario.rig)
                            for r in (rows, est.feature_rows(twice)))
                for key in ("lm_ids", "frame", "slot", "left", "right"):
                    assert np.array_equal(getattr(new, key),
                                          getattr(old, key))
            tracks = solved["objects"][0]
            objects = [object_of[tid] for tid in sorted(object_of)
                       if object_of[tid] in object_ref[t]]
            assert len(tracks) == len(objects)
            for obj, track in zip(objects, tracks):
                features, semantic = object_ref[t][obj]
                first = max(start, born[obj])
                assert track.frames == list(range(first - start,
                                                  t + 1 - start))
                for a, b in zip(track.features,
                                est.feature_rows(features)):
                    assert np.array_equal(a, b)
                for a, b in zip(track.semantic,
                                est.semantic_rows(semantic)):
                    assert np.array_equal(a, b)

    def test_background_landmarks_bounded_by_window(self):
        scenario = make_scenario(40, [car(-10.0, 18.0)],
                                 camera={"speed": 10.0, "yaw_rate": 0.1})
        tracker = est.WindowTracker(
            scenario.rig, est.EstimatorConfig(dt=scenario.dt, window=5),
            initial_pose=scenario.camera[0])
        seen = set()
        for t in range(scenario.n_frames):
            tracker.process(sim.synthesize_frame(scenario, t))
            assert set(tracker.bg_landmarks) == \
                set(tracker.bg_rows.landmark.tolist())
            seen |= set(tracker.bg_landmarks)
        assert len(tracker.bg_landmarks) < len(seen)

    def test_track_landmarks_bounded_by_window(self):
        # the car leaves the view near frame 16: from then on its track
        # holds no feature rows, and so no landmarks either
        scenario = make_scenario(40, [car(-10.0, 18.0)],
                                 camera={"speed": 10.0, "yaw_rate": 0.1})
        tracker = est.WindowTracker(
            scenario.rig, est.EstimatorConfig(dt=scenario.dt, window=5),
            initial_pose=scenario.camera[0])
        held = []
        for t in range(scenario.n_frames):
            tracker.process(sim.synthesize_frame(scenario, t))
            for track in tracker.tracks.values():
                assert set(track.landmarks) == \
                    set(track.features.landmark.tolist())
            held.append(sum(len(track.landmarks)
                            for track in tracker.tracks.values()))
        assert max(held) > 0 and held[-1] == 0

    def test_track_start_contains_library_errors(self, monkeypatch):
        calls = []

        def no_root(*args, **kwargs):
            calls.append(args)
            raise NoConvergence("pose refinement exceeded iteration budget")

        monkeypatch.setattr(est, "infer_pose", no_root)
        scenario = make_scenario(3, [car(0.4, 25.0)])
        tracker = self.run_tracker(scenario, sim.NoiseSpec.zero())
        assert len(calls) == 3  # one start attempt per frame
        assert tracker.tracks == {} and tracker.object_trajectories == {}
        assert len(tracker.camera_trajectory) == 3

    def test_track_start_lets_other_errors_escape(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("not a library error")

        monkeypatch.setattr(est, "infer_pose", broken)
        scenario = make_scenario(3, [car(0.4, 25.0)])
        tracker = track_frames(scenario, [])
        with pytest.raises(KeyError):
            tracker.process(sim.synthesize_frame(scenario, 0,
                                                 sim.NoiseSpec.zero()))

    def test_ego_numerical_failure_keeps_predicted_window(self, monkeypatch):
        scenario = make_scenario(4, [car(-10.0, 18.0)])
        frames = [sim.synthesize_frame(scenario, t) for t in range(4)]
        tracker = track_frames(scenario, frames[:3])
        before = list(tracker.camera_trajectory)
        predicted = before[2].compose(before[1].inverse().compose(before[2]))

        def unsolvable(*args, **kwargs):
            raise NumericalFailure("normal equations unsolvable")

        monkeypatch.setattr(est, "solve_ego", unsolvable)
        tracker.process(frames[3])
        assert len(tracker.camera_trajectory) == 4
        assert all(a is b for a, b in zip(tracker.camera_trajectory, before))
        assert np.array_equal(tracker.camera_trajectory[3].translation,
                              predicted.translation)
        assert [t for t, _ in tracker.object_trajectories[0]] == [0, 1, 2, 3]

    def test_object_blind_ignores_objects(self):
        scenario = make_scenario(6, [car(-10.0, 18.0)])
        zero = sim.NoiseSpec.zero()
        tracker = track_frames(scenario, [
            object_blind(sim.synthesize_frame(scenario, t, zero))
            for t in range(scenario.n_frames)])
        assert tracker.object_trajectories == {}
        assert len(tracker.camera_trajectory) == 6
