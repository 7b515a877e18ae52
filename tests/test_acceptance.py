"""Acceptance suite: oracle equivalence, convergence and robustness.

Each test prints one PASS line with its measured numbers so a run log
doubles as the acceptance record.
"""

import json
import time

import numpy as np

from raster import random_box_pair, raster_iou
from test_estimator import FORWARD, car, ego_problem, make_scenario, \
    object_blind, object_problem
from test_residuals import central_diff, feature_one, motion_one, \
    perturb_full, perturb_object, random_object, random_pose, semantic_one
from viewpoints import REFERENCE_VIEWPOINT, sample_camera_frame_box

from semtrack import boxinfer as bi
from semtrack import cli
from semtrack import estimator as est
from semtrack import geometry as geom
from semtrack import pipeline
from semtrack import simulate as sim
from semtrack.geometry import Pose, StereoRig, rot_y, so3_exp, wrap_angle
from semtrack.metrics import (DetectionRecord, Trajectory,
                              ap_and_error_curves, ate_rmse, iou_3d, iou_bev,
                              rpe)

JAC_TOL = 1e-5


def run_tracker(scenario, frames=None, noise=None):
    tracker = est.WindowTracker(scenario.rig,
                                est.EstimatorConfig(dt=scenario.dt),
                                initial_pose=scenario.camera[0])
    if frames is None:
        frames = [sim.synthesize_frame(scenario, t, noise)
                  for t in range(scenario.n_frames)]
    for frame in frames:
        tracker.process(frame)
    return tracker


def match_track_to_object(scenario, track):
    t0, s0 = track[0]
    return min(scenario.objects,
               key=lambda o: np.linalg.norm(o.states[t0].position
                                            - s0.position))


def object_position_errors(scenario, tracker):
    """Relative position errors (fraction of range) over all tracks."""
    errors = []
    for track in tracker.object_trajectories.values():
        obj = match_track_to_object(scenario, track)
        for t, state in track:
            gt = obj.states[t]
            rng_m = np.linalg.norm(gt.position
                                   - scenario.camera[t].translation)
            errors.append(np.linalg.norm(state.position - gt.position)
                          / rng_m)
    return np.array(errors)


def test_acceptance_1_selection_table_equivalence():
    # brute-force extreme-vertex search against the closed-form selection
    # table, plus the frozen reference-viewpoint entry
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    seen = set()
    for _ in range(10000):
        vp = bi.Viewpoint(int(rng.integers(0, 8)), int(rng.integers(0, 2)))
        seen.add((vp.horizontal, vp.vertical))
        box = sample_camera_frame_box(vp, rng, verify=False)
        idx = bi.brute_force_extremes_camera(box)
        signs = geom.VERTEX_SIGNS[list(idx)].copy()
        # the two u extremes are attained along the whole vertical edge;
        # the table stores their bottom vertices
        signs[0, 1] = signs[1, 1] = 1.0
        assert np.array_equal(signs, bi.selection_set(vp).signs), vp
    assert len(seen) == 16
    reference = np.array([[1.0, 1.0, 1.0],
                          [-1.0, 1.0, -1.0],
                          [1.0, -1.0, -1.0],
                          [-1.0, 1.0, 1.0]])
    sel = bi.selection_set(REFERENCE_VIEWPOINT)
    assert np.array_equal(sel.signs, reference)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"acceptance 1: PASS selection table matches brute force on "
          f"10000 samples, all 16 viewpoints, {elapsed:.1f}s")


def test_acceptance_2_box_inference_round_trip(monkeypatch):
    # a 2D box can admit two exact, tight 3D interpretations (a tangent
    # double root of the edge constraints); such samples count as
    # recovered when ground truth is among the exact candidates
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst_pos, worst_yaw = 0.0, 0.0
    ambiguous = 0
    for _ in range(1000):
        vp = bi.Viewpoint(int(rng.integers(0, 8)), int(rng.integers(0, 2)))
        box3 = sample_camera_frame_box(vp, rng)
        bb = bi.tight_bbox(box3)
        p_hat, theta_hat, residual = bi.infer_pose(bb, vp, box3.dims)
        pos_err = np.linalg.norm(p_hat - box3.center)
        yaw_err = abs(wrap_angle(theta_hat - box3.yaw))
        if pos_err > 1e-3 or yaw_err > 1e-3:
            assert residual < 1e-10
            # the candidates of a finer yaw grid
            with monkeypatch.context() as patch:
                patch.setattr(bi, "GRID_STEP_DEG", 0.25)
                exact = [
                    (p, th) for p, th, r, dev in bi.infer_pose_candidates(
                        bb, vp, box3.dims)
                    if r < 1e-8 and dev < 1e-6]
            assert len(exact) > 1
            assert any(np.linalg.norm(p - box3.center) < 1e-3
                       and abs(wrap_angle(th - box3.yaw)) < 1e-3
                       for p, th in exact)
            ambiguous += 1
            continue
        worst_pos = max(worst_pos, pos_err)
        worst_yaw = max(worst_yaw, yaw_err)
    elapsed = time.perf_counter() - t0
    assert worst_pos < 1e-3
    assert worst_yaw < 1e-3
    assert ambiguous <= 5
    assert elapsed < 30.0
    print(f"acceptance 2: PASS 1000 round trips, worst {worst_pos:.2e} m / "
          f"{worst_yaw:.2e} rad, {ambiguous} exact-ambiguous, "
          f"{elapsed:.1f}s")


def test_acceptance_3_jacobian_suite():
    rng = np.random.default_rng(103)
    rig = StereoRig.horizontal(0.54)
    worst = {"feature": 0.0, "semantic": 0.0, "motion": 0.0}

    def rel(analytic, numeric):
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
        return np.abs(analytic - numeric).max() / scale

    for _ in range(1000):
        cam = random_pose(rng, 2.0)
        obj = random_object(rng)
        lm = rng.uniform(-1.5, 1.5, 3)
        world = rot_y(obj.yaw) @ lm + obj.position
        obs_l = cam.apply_inverse(world)[:2] / cam.apply_inverse(world)[2]
        r0, jac = feature_one(obs_l, obs_l, cam, obj, lm, rig)

        def f_cam(d):
            moved = Pose(cam.rotation @ so3_exp(d[3:]),
                         cam.translation + d[:3])
            return feature_one(obs_l, obs_l, moved, obj, lm, rig,
                               jacobians=False)[0]

        def f_obj(d):
            return feature_one(obs_l, obs_l, cam, perturb_object(obj, d), lm,
                               rig, jacobians=False)[0]

        def f_lm(d):
            return feature_one(obs_l, obs_l, cam, obj, lm + d, rig,
                               jacobians=False)[0]

        worst["feature"] = max(
            worst["feature"],
            rel(jac["camera"], central_diff(f_cam, None, 6)),
            rel(jac["object"], central_diff(f_obj, None, 4)),
            rel(jac["landmark"], central_diff(f_lm, None, 3)))

    for _ in range(1000):
        cam = random_pose(rng, 2.0)
        obj = random_object(rng)
        vp = bi.Viewpoint(int(rng.integers(0, 8)), int(rng.integers(0, 2)))
        sel = bi.selection_set(vp)
        valid = tuple(bool(b) for b in rng.uniform(size=4) < 0.85)
        if not any(valid):
            valid = (True, True, True, True)
        edges = np.array([-0.5, -0.3, 0.5, 0.3])
        _, jac, _ = semantic_one(edges, valid, sel, cam, obj)
        if len(jac["object"]) == 0:
            continue

        def f_obj(d):
            return semantic_one(edges, valid, sel, cam,
                                perturb_object(obj, d), jacobians=False)[0]

        def f_dims(d):
            return semantic_one(edges, valid, sel, cam,
                                obj.replace(dims=obj.dims + d[:3]),
                                jacobians=False)[0]

        worst["semantic"] = max(
            worst["semantic"],
            rel(jac["object"], central_diff(f_obj, None, 4)),
            rel(jac["dims"], central_diff(f_dims, None, 3)))

    for _ in range(1000):
        cur, prev = random_object(rng), random_object(rng)
        label = "car" if rng.uniform() < 0.7 else "pedestrian"
        dt = float(rng.uniform(0.05, 0.2))
        _, jac = motion_one(cur, prev, dt, label)

        def f_cur(d):
            return motion_one(perturb_full(cur, d), prev, dt, label,
                              jacobians=False)[0]

        def f_prev(d):
            return motion_one(cur, perturb_full(prev, d), dt, label,
                              jacobians=False)[0]

        def f_dims(d):
            return motion_one(cur, prev.replace(dims=prev.dims + d[:3]), dt,
                              label, jacobians=False)[0]

        worst["motion"] = max(
            worst["motion"],
            rel(jac["cur"], central_diff(f_cur, None, 6)),
            rel(jac["prev"], central_diff(f_prev, None, 6)),
            rel(jac["dims"], central_diff(f_dims, None, 3)))

    for name, value in worst.items():
        assert value < JAC_TOL, (name, value)
    print("acceptance 3: PASS worst relative errors "
          + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_acceptance_4_zero_noise_convergence():
    t0 = time.perf_counter()
    scenario = make_scenario(50, [car(0.4, 25.0), car(-10.0, 18.0),
                                  car(14.0, 20.0)], seed=104)
    frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
              for t in range(50)]
    rng = np.random.default_rng(104)
    problem = ego_problem(scenario, frames, rng, pose_noise=(0.1, 0.01),
                          lm_noise=0.05)
    result = est.solve_ego(*problem, scenario.rig)
    cam_err = max(np.linalg.norm(p.translation - gt.translation)
                  for p, gt in zip(result.poses, scenario.camera))
    assert cam_err < 1e-4
    obj_pos_err, obj_yaw_err = 0.0, 0.0
    for i in range(3):
        prob, obj = object_problem(scenario, frames, obj_index=i, rng=rng,
                                   state_noise=(0.1, 0.01), lm_noise=0.05)
        out = est.solve_object(*prob, scenario.rig)
        for s, gt in zip(out.states, obj.states):
            obj_pos_err = max(obj_pos_err,
                              np.linalg.norm(s.position - gt.position))
            obj_yaw_err = max(obj_yaw_err, abs(wrap_angle(s.yaw - gt.yaw)))
    elapsed = time.perf_counter() - t0
    assert obj_pos_err < 1e-3
    assert obj_yaw_err < 1e-3
    assert elapsed < 60.0
    print(f"acceptance 4: PASS 50 frames / 3 cars, camera {cam_err:.2e} m, "
          f"objects {obj_pos_err:.2e} m / {obj_yaw_err:.2e} rad, "
          f"{elapsed:.1f}s")


def test_acceptance_5_noisy_position_error():
    # 0.5 px feature / 1.0 px box noise benchmark; budget 6% of range,
    # regression bound frozen from the first recorded run
    scenario = make_scenario(25, [car(0.4, 25.0), car(-10.0, 18.0),
                                  car(14.0, 20.0)], seed=105)
    tracker = run_tracker(scenario)
    errors = object_position_errors(scenario, tracker)
    assert len(tracker.object_trajectories) == 3
    mean_err = errors.mean()
    assert mean_err <= 0.06
    assert mean_err <= 0.02  # frozen regression bound (first run: 0.67%)
    print(f"acceptance 5: PASS mean object position error "
          f"{100 * mean_err:.2f}% of range (budget 6%)")


def truncate_frame(frame, object_id, u_limit):
    """Clip one object's box and features at an artificial image edge."""
    semantic = []
    for s in frame.semantic:
        if s.object_id == object_id and s.box.u_max > u_limit:
            semantic.append(sim.SemanticMeasurement(
                s.object_id, s.label,
                bi.BBox2D(s.box.u_min, s.box.v_min, u_limit, s.box.v_max),
                s.viewpoint, truncated=True,
                valid_edges=(s.valid_edges[0], s.valid_edges[1], False,
                             s.valid_edges[3])))
        else:
            semantic.append(s)
    features = tuple(f for f in frame.features
                     if not (f.anchor_id == object_id
                             and f.left[0] > u_limit))
    return sim.FrameMeasurements(frame.timestamp, tuple(semantic), features,
                                 frame.feature_sigma, frame.box_sigma)


def test_acceptance_6_truncation_robustness():
    scenario = make_scenario(30, [car(14.0, 20.0), car(-10.0, 18.0)],
                             seed=106)
    target_id = scenario.objects[0].object_id
    frames = [sim.synthesize_frame(scenario, t) for t in range(30)]
    truncated = [truncate_frame(f, target_id, 0.72) if 5 <= t < 25 else f
                 for t, f in enumerate(frames)]
    n_clipped = sum(1 for t in range(5, 25)
                    if any(s.truncated for s in truncated[t].semantic
                           if s.object_id == target_id))
    assert n_clipped == 20

    def target_errors(tracker):
        for track in tracker.object_trajectories.values():
            obj = match_track_to_object(scenario, track)
            if obj.object_id != target_id:
                continue
            assert len(track) == 30  # tracked without loss
            return np.array([
                np.linalg.norm(s.position - obj.states[t].position)
                for t, s in track])
        raise AssertionError("target object was not tracked")

    control = target_errors(run_tracker(scenario, frames=frames))
    test = target_errors(run_tracker(scenario, frames=truncated))
    ratio = test.mean() / control.mean()
    assert ratio <= 3.0
    print(f"acceptance 6: PASS truncated 20 frames, mean error "
          f"{test.mean():.3f} m vs control {control.mean():.3f} m "
          f"(ratio {ratio:.2f}, budget 3.0)")


def test_acceptance_7_dynamic_robust_ego_motion():
    # 300 of 500 features ride on moving cars; the object-aware solver
    # must beat an everything-is-static baseline by at least 3x in ATE
    scenario = make_scenario(
        15, [car(0.4, 25.0), car(-10.0, 18.0), car(14.0, 20.0)], seed=107,
        landmarks={"background_n": 200, "per_object_n": 100})
    n_obj = sum(len(o.landmarks) for o in scenario.objects)
    assert n_obj / (n_obj + len(scenario.background)) == 0.6
    times = scenario.timestamps()
    gt = Trajectory(times, tuple(scenario.camera))
    frames = [sim.synthesize_frame(scenario, t)
              for t in range(scenario.n_frames)]
    aware = run_tracker(scenario, frames)
    blind = run_tracker(scenario, [object_blind(f) for f in frames])
    ate_aware = ate_rmse(Trajectory(times, tuple(aware.camera_trajectory)),
                         gt)
    ate_blind = ate_rmse(Trajectory(times, tuple(blind.camera_trajectory)),
                         gt)
    assert ate_aware <= ate_blind / 3.0
    print(f"acceptance 7: PASS ATE aware {ate_aware:.4f} m vs blind "
          f"{ate_blind:.4f} m (ratio {ate_blind / ate_aware:.1f}x)")


def test_acceptance_8_iou_rasterization_oracle():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(500):
        a, b = random_box_pair(rng)
        bev, iou3 = raster_iou(a, b)
        worst = max(worst, abs(iou_bev(a, b) - bev),
                    abs(iou_3d(a, b) - iou3))
    assert worst < 1e-3
    print(f"acceptance 8: PASS 500 oriented pairs, worst oracle gap "
          f"{worst:.2e}")


def test_acceptance_9_metric_identities():
    rng = np.random.default_rng(109)
    poses = []
    pos = np.zeros(3)
    for i in range(20):
        pos = pos + rng.uniform(-1.0, 1.0, 3)
        poses.append(Pose.from_yaw(rng.uniform(-1.0, 1.0), pos))
    traj = Trajectory(np.arange(20) * 0.1, tuple(poses))
    trans, rot = rpe(traj, traj, step=1)
    assert np.all(trans < 1e-12) and np.all(rot < 1e-6)
    assert ate_rmse(traj, traj) < 1e-12
    offset = Pose.from_yaw(0.7, np.array([5.0, -2.0, 3.0]))
    moved = Trajectory(traj.times, tuple(offset.compose(p)
                                         for p in traj.poses))
    trans, rot = rpe(moved, traj, step=1)
    assert np.all(trans < 1e-12) and np.all(rot < 1e-6)
    assert ate_rmse(moved, traj) < 1e-10
    gts = [DetectionRecord(0, 1, geom.Box3D([0.0, -1.0, 12.0], 0.2,
                                            [4.0, 1.5, 2.0]))]
    perfect = ap_and_error_curves(gts, gts, iou_kind="bev")
    assert np.all(perfect.tp_rate == 1.0)
    assert np.all(perfect.mean_position_error_pct < 1e-9)
    empty = ap_and_error_curves([], gts, iou_kind="bev")
    assert np.all(empty.tp_rate == 0.0) and np.all(empty.ap == 0.0)
    print("acceptance 9: PASS rpe/ate/ap identities hold")


def test_acceptance_10_pipeline_determinism(tmp_path, capsys):
    config = {
        "seed": 110,
        "scenario": {
            "n_frames": 8,
            "objects": [{"class": "car",
                         "init": {"x": -10.0, "z": 18.0, "yaw": FORWARD,
                                  "v": 8.0}}],
            "landmarks": {"background_n": 300, "per_object_n": 60},
            "noise": {"seed": 110},
        },
    }
    a = pipeline.run_pipeline(config, tmp_path / "a")
    b = pipeline.run_pipeline(config, tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes(), key
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["eval", "--config", str(config_path),
                     "--out", str(tmp_path / "cli")]) == 0
    assert (tmp_path / "cli" / "metrics.json").exists()
    assert (tmp_path / "cli" / "curve_bev.csv").exists()
    capsys.readouterr()
    print("acceptance 10: PASS byte-identical artifacts and CLI exit 0")
