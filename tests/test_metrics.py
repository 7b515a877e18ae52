"""Tests for trajectory metrics, oriented IoU and detection curves."""

import numpy as np
import pytest

from raster import random_box_pair, raster_iou
from semtrack.errors import LengthMismatch
from semtrack.geometry import Box3D, Pose, rot_y
from semtrack.metrics import (DetectionRecord, Trajectory, _bev_corners,
                              ap_and_error_curves, ate_rmse, iou_3d, iou_bev,
                              rpe)


def random_trajectory(rng, n=20):
    poses = []
    pos = np.zeros(3)
    yaw = 0.0
    for _ in range(n):
        pos = pos + rng.uniform(-1.0, 1.0, size=3)
        yaw += rng.uniform(-0.2, 0.2)
        poses.append(Pose.from_yaw(yaw, pos))
    return Trajectory(np.arange(n, dtype=float) * 0.1, tuple(poses))


def random_rigid(rng):
    return Pose.from_yaw(rng.uniform(-np.pi, np.pi),
                         rng.uniform(-10.0, 10.0, size=3))


class TestRpe:

    def test_identical_is_zero(self):
        rng = np.random.default_rng(0)
        traj = random_trajectory(rng)
        trans, rot = rpe(traj, traj, step=1)
        assert np.all(trans < 1e-12)
        assert np.all(rot < 1e-6)

    def test_global_offset_cancels(self):
        rng = np.random.default_rng(1)
        gt = random_trajectory(rng)
        for _ in range(5):
            offset = random_rigid(rng)
            est = Trajectory(gt.times,
                             tuple(offset.compose(p) for p in gt.poses))
            trans, rot = rpe(est, gt, step=2)
            assert np.all(trans < 1e-12)
            assert np.all(rot < 1e-6)

    def test_single_injected_yaw_error(self):
        rng = np.random.default_rng(2)
        gt = random_trajectory(rng, n=15)
        bump = Pose.from_yaw(0.01, np.zeros(3))
        poses = list(gt.poses)
        poses[-1] = poses[-1].compose(bump)
        est = Trajectory(gt.times, tuple(poses))
        trans, rot = rpe(est, gt, step=1)
        assert np.all(trans < 1e-12)
        assert abs(rot[-1] - 0.01) < 1e-9
        assert np.all(rot[:-1] < 1e-6)

    def test_length_mismatch(self):
        rng = np.random.default_rng(3)
        a = random_trajectory(rng, n=10)
        b = random_trajectory(rng, n=11)
        with pytest.raises(LengthMismatch):
            rpe(a, b, step=1)

    def test_bad_step(self):
        rng = np.random.default_rng(4)
        traj = random_trajectory(rng, n=5)
        with pytest.raises(ValueError):
            rpe(traj, traj, step=0)
        with pytest.raises(ValueError):
            rpe(traj, traj, step=5)


class TestAteRmse:

    def test_identical_is_zero(self):
        rng = np.random.default_rng(10)
        traj = random_trajectory(rng)
        assert ate_rmse(traj, traj) < 1e-12

    def test_rigid_transform_absorbed(self):
        rng = np.random.default_rng(11)
        gt = random_trajectory(rng)
        for _ in range(10):
            offset = random_rigid(rng)
            est = Trajectory(gt.times,
                             tuple(offset.compose(p) for p in gt.poses))
            assert ate_rmse(est, gt) < 1e-10

    def test_alignment_invariance(self):
        rng = np.random.default_rng(12)
        gt = random_trajectory(rng)
        est = Trajectory(gt.times, tuple(
            Pose(p.rotation, p.translation + rng.normal(0.0, 0.3, size=3))
            for p in gt.poses))
        base = ate_rmse(est, gt)
        for _ in range(5):
            offset = random_rigid(rng)
            moved = Trajectory(est.times,
                               tuple(offset.compose(p) for p in est.poses))
            assert abs(ate_rmse(moved, gt) - base) < 1e-9

    def test_single_outlier_rmse(self):
        # 0.1 m on one of 100 poses: RMSE 0.1 / sqrt(100) = 0.01 up to the
        # small shift the alignment itself absorbs
        rng = np.random.default_rng(13)
        gt = random_trajectory(rng, n=100)
        poses = list(gt.poses)
        p = poses[40]
        poses[40] = Pose(p.rotation, p.translation + np.array([0.1, 0, 0]))
        est = Trajectory(gt.times, tuple(poses))
        assert abs(ate_rmse(est, gt) - 0.01) < 5e-4

    def test_too_few_poses(self):
        rng = np.random.default_rng(14)
        traj = random_trajectory(rng, n=2)
        with pytest.raises(ValueError):
            ate_rmse(traj, traj)

    def test_length_mismatch(self):
        rng = np.random.default_rng(15)
        a = random_trajectory(rng, n=8)
        b = random_trajectory(rng, n=9)
        with pytest.raises(LengthMismatch):
            ate_rmse(a, b)


class TestIou:

    def test_identical_boxes(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            box, _ = random_box_pair(rng)
            assert abs(iou_bev(box, box) - 1.0) < 1e-12
            assert abs(iou_3d(box, box) - 1.0) < 1e-12

    def test_axis_aligned_offset(self):
        a = Box3D([0.0, 0.0, 0.0], 0.0, [2.0, 1.0, 2.0])
        b = Box3D([1.0, 0.0, 0.0], 0.0, [2.0, 1.0, 2.0])
        assert abs(iou_bev(a, b) - 1.0 / 3.0) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            a, b = random_box_pair(rng)
            assert abs(iou_bev(a, b) - iou_bev(b, a)) < 1e-12
            assert abs(iou_3d(a, b) - iou_3d(b, a)) < 1e-12

    def test_rigid_invariance(self):
        # a common yaw rotation and translation of both boxes leaves the
        # overlap unchanged
        rng = np.random.default_rng(22)
        for _ in range(50):
            a, b = random_box_pair(rng)
            yaw = rng.uniform(-np.pi, np.pi)
            shift = rng.uniform(-20.0, 20.0, size=3)
            rot = rot_y(yaw)
            a2 = Box3D(rot @ a.center + shift, a.yaw + yaw, a.dims)
            b2 = Box3D(rot @ b.center + shift, b.yaw + yaw, b.dims)
            assert abs(iou_bev(a2, b2) - iou_bev(a, b)) < 1e-9
            assert abs(iou_3d(a2, b2) - iou_3d(a, b)) < 1e-9

    def test_disjoint_vertical(self):
        a = Box3D([0.0, 0.0, 0.0], 0.3, [2.0, 1.0, 2.0])
        b = Box3D([0.0, 5.0, 0.0], 0.3, [2.0, 1.0, 2.0])
        assert iou_3d(a, b) == 0.0
        assert abs(iou_bev(a, b) - 1.0) < 1e-12

    def test_far_apart_is_zero(self):
        a = Box3D([0.0, 0.0, 0.0], 0.7, [2.0, 1.0, 2.0])
        b = Box3D([50.0, 0.0, 0.0], -0.3, [2.0, 1.0, 2.0])
        assert iou_bev(a, b) == 0.0
        assert iou_3d(a, b) == 0.0

    def test_range_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = random_box_pair(rng)
            for val in (iou_bev(a, b), iou_3d(a, b)):
                assert 0.0 <= val <= 1.0

    def test_footprint_corners_counterclockwise(self):
        # the clipping of the IoU needs counterclockwise footprints; the
        # corners come out that way for every yaw and positive dims
        rng = np.random.default_rng(25)
        for yaw in np.linspace(-2.0 * np.pi, 2.0 * np.pi, 73):
            for dims in rng.uniform(0.05, 20.0, size=(10, 3)):
                corners = _bev_corners(Box3D(rng.uniform(-50.0, 50.0, 3),
                                             yaw, dims))
                x, z = corners[:, 0], corners[:, 1]
                signed = 0.5 * (x @ np.roll(z, -1) - z @ np.roll(x, -1))
                assert signed == pytest.approx(dims[0] * dims[2], rel=1e-9)

    def test_matches_rasterization(self):
        # a coarser sweep here; the full 500-pair run lives in the
        # acceptance suite
        rng = np.random.default_rng(24)
        for _ in range(60):
            a, b = random_box_pair(rng)
            bev, iou3 = raster_iou(a, b)
            assert abs(iou_bev(a, b) - bev) < 1e-3
            assert abs(iou_3d(a, b) - iou3) < 1e-3


def make_records(rng, n_frames=5, per_frame=3, base_id=0):
    records = []
    for frame in range(n_frames):
        for k in range(per_frame):
            center = rng.uniform([-8.0, -1.5, 8.0], [8.0, -0.5, 35.0])
            records.append(DetectionRecord(
                frame, base_id + k,
                Box3D(center, rng.uniform(-np.pi, np.pi),
                      [4.2, 1.6, 1.9])))
    return records


class TestApAndErrorCurves:

    def test_perfect_detections(self):
        rng = np.random.default_rng(30)
        gts = make_records(rng)
        curves = ap_and_error_curves(gts, gts, iou_kind="bev")
        assert len(curves.thresholds) == 40
        assert np.all(curves.tp_rate == 1.0)
        assert np.all(curves.ap == 1.0)
        assert np.all(curves.mean_position_error_pct < 1e-9)

    def test_empty_detections(self):
        rng = np.random.default_rng(31)
        gts = make_records(rng)
        curves = ap_and_error_curves([], gts, iou_kind="bev")
        assert np.all(curves.tp_rate == 0.0)
        assert np.all(curves.ap == 0.0)

    def test_no_detection_matched(self):
        # detections that overlap no label are false positives at every
        # threshold
        rng = np.random.default_rng(36)
        gts = make_records(rng, n_frames=2)
        far = Box3D([300.0, -1.0, 300.0], 0.0, [4.0, 1.5, 2.0])
        dets = [DetectionRecord(g.frame, g.object_id, far) for g in gts]
        curves = ap_and_error_curves(dets, gts, iou_kind="3d")
        assert np.all(curves.tp_rate == 0.0)
        assert np.all(curves.ap == 0.0)
        assert np.all(curves.mean_position_error_pct == 0.0)

    def test_five_percent_perturbation(self):
        # centers shifted along the heading by 5% of range: mean TP error
        # at threshold 0.25 reads back 5%
        rng = np.random.default_rng(32)
        gts = make_records(rng, n_frames=8)
        dets = []
        for g in gts:
            rng_m = np.linalg.norm(g.box.center)
            head = rot_y(g.box.yaw)[:, 0]
            center = g.box.center + 0.05 * rng_m * head
            dets.append(DetectionRecord(g.frame, g.object_id,
                                        Box3D(center, g.box.yaw, g.box.dims)))
        curves = ap_and_error_curves(dets, gts, iou_kind="bev")
        idx = int(np.searchsorted(curves.thresholds, 0.25))
        assert abs(curves.mean_position_error_pct[idx] - 5.0) < 0.1

    def test_ap_monotone_in_threshold(self):
        rng = np.random.default_rng(33)
        for trial in range(5):
            gts = make_records(rng, n_frames=6)
            dets = []
            for g in gts:
                if rng.uniform() < 0.15:
                    continue
                center = g.box.center + rng.normal(0.0, 0.6, size=3)
                dets.append(DetectionRecord(
                    g.frame, g.object_id,
                    Box3D(center, g.box.yaw + rng.normal(0.0, 0.1),
                          g.box.dims)))
            for kind in ("bev", "3d"):
                curves = ap_and_error_curves(dets, gts, iou_kind=kind)
                assert np.all(np.diff(curves.ap) <= 1e-12)
                assert np.all(np.diff(curves.tp_rate) <= 1e-12)
                assert curves.ap[0] > curves.ap[-1]

    def test_false_positive_lowers_precision(self):
        rng = np.random.default_rng(34)
        gts = make_records(rng, n_frames=1, per_frame=2)
        dets = list(gts)
        dets.append(DetectionRecord(0, 99,
                                    Box3D([200.0, -1.0, 200.0], 0.0,
                                          [4.0, 1.5, 2.0])))
        curves = ap_and_error_curves(dets, gts, iou_kind="bev")
        assert np.all(curves.tp_rate == 1.0)
        assert np.allclose(curves.ap, 2.0 / 3.0)

    def test_greedy_prefers_higher_iou(self):
        # one detection overlapping two labels is assigned to the label
        # it overlaps most
        gt_a = Box3D([0.0, -1.0, 10.0], 0.0, [4.0, 1.5, 2.0])
        gt_b = Box3D([2.0, -1.0, 10.0], 0.0, [4.0, 1.5, 2.0])
        det = Box3D([0.5, -1.0, 10.0], 0.0, [4.0, 1.5, 2.0])
        gts = [DetectionRecord(0, 1, gt_a), DetectionRecord(0, 2, gt_b)]
        dets = [DetectionRecord(0, 7, det)]
        curves = ap_and_error_curves(dets, gts, iou_kind="bev")
        # IoU with gt_a is (3.5/4.5) vs (2.5/5.5) for gt_b; the match
        # survives thresholds up to 3.5/4.5
        hi = 3.5 / 4.5
        expect_tp = (curves.thresholds <= hi).astype(float) * 0.5
        assert np.allclose(curves.tp_rate, expect_tp)

    def test_deterministic(self):
        rng = np.random.default_rng(35)
        gts = make_records(rng, n_frames=4)
        dets = [DetectionRecord(g.frame, g.object_id,
                                Box3D(g.box.center + 0.3, g.box.yaw,
                                      g.box.dims))
                for g in gts]
        a = ap_and_error_curves(dets, gts, iou_kind="3d")
        b = ap_and_error_curves(dets, gts, iou_kind="3d")
        assert np.array_equal(a.ap, b.ap)
        assert np.array_equal(a.tp_rate, b.tp_rate)
        assert np.array_equal(a.mean_position_error_pct,
                              b.mean_position_error_pct)
