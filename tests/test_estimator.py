"""Tests for the staged window solvers, alignment and the tracker."""

import numpy as np
import pytest

from semtrack import estimator as est
from semtrack import simulate as sim
from semtrack.boxinfer import DEFAULT_PRIORS, infer_pose
from semtrack.errors import NoConvergence
from semtrack.geometry import ObjectState, Pose, StereoRig, rot_y, so3_exp

FORWARD = -np.pi / 2  # heading along the camera optical axis


def make_scenario(n_frames=10, objects=(), seed=1, **extra):
    config = {"n_frames": n_frames, "objects": list(objects),
              "noise": {"seed": seed}}
    config.update(extra)
    return sim.generate_scenario(config, seed=seed)


def car(x, z, v=8.0, yaw=FORWARD):
    return {"class": "car", "init": {"x": x, "z": z, "yaw": yaw, "v": v}}


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
    track = est.ObjectTrack(obj.label, list(range(n)), states, lm_init,
                            obj.prior, est.feature_rows(features),
                            est.semantic_rows(semantic))
    return (track, list(scenario.camera[:n])), obj


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
        ego_a = est._EgoProblem(poses, landmarks, rows, scenario.rig,
                                est.EstimatorConfig())
        ego_b = est._EgoProblem(
            [transform.compose(p) for p in poses],
            {k: transform.apply(v) for k, v in landmarks.items()}, rows,
            scenario.rig, est.EstimatorConfig())
        cost_a = ego_a.cost(ego_a.initial)
        cost_b = ego_b.cost(ego_b.initial)
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
        track = est.ObjectTrack("car", [], [], {}, DEFAULT_PRIORS["car"],
                                est.feature_rows([]), est.semantic_rows([]))
        with pytest.raises(ValueError):
            est.solve_object(track, [Pose.identity()],
                             StereoRig.horizontal(0.54))


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
        assert abs(aligned.yaw - state.yaw) < 1e-9

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

    def test_single_face_no_op(self):
        state = ObjectState(position=np.zeros(3), yaw=0.0,
                            dims=np.array([4.0, 2.0, 2.0]))
        pts = np.column_stack([np.full(10, 2.0),
                               np.linspace(-0.5, 0.5, 10),
                               np.linspace(-0.5, 0.5, 10)])
        aligned, applied = est.align_point_cloud(state, pts)
        assert not applied and aligned is state

    def test_too_few_points_no_op(self):
        state = ObjectState(position=np.zeros(3), yaw=0.0,
                            dims=np.array([4.0, 2.0, 2.0]))
        aligned, applied = est.align_point_cloud(state,
                                                 np.array([[2.0, 0.0, 0.0],
                                                           [0.0, 1.0, 0.0]]))
        assert not applied


class TestWindowTracker:
    def run_tracker(self, scenario, noise=None, **kwargs):
        tracker = est.WindowTracker(scenario.rig,
                                    est.EstimatorConfig(dt=scenario.dt),
                                    initial_pose=scenario.camera[0],
                                    **kwargs)
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

    def test_held_observations_stay_in_window(self):
        # a stream three windows long: the tracker holds no observation
        # from before the current window
        window = 4
        scenario = make_scenario(3 * window, [car(-10.0, 18.0)])
        tracker = est.WindowTracker(
            scenario.rig, est.EstimatorConfig(dt=scenario.dt, window=window),
            initial_pose=scenario.camera[0])
        for t in range(scenario.n_frames):
            tracker.process(sim.synthesize_frame(scenario, t))
            assert all(tracker.bg_obs.values())
            held = [o[0] for obs in tracker.bg_obs.values() for o in obs]
            for track in tracker.tracks.values():
                held += [o[0] for o in track.feature_obs + track.semantic_obs]
            assert min(held) >= t - window + 1
        assert len(tracker.tracks) == 1
        assert len(tracker.object_trajectories[0]) == scenario.n_frames

    def test_object_blind_ignores_objects(self):
        scenario = make_scenario(6, [car(-10.0, 18.0)])
        tracker = self.run_tracker(scenario, sim.NoiseSpec.zero(),
                                   object_blind=True)
        assert tracker.object_trajectories == {}
        assert len(tracker.camera_trajectory) == 6
