"""Correctness checks computed apart from the program.

Nothing here calls ``semtrack.metrics``: the rigid alignment is Horn's
quaternion method, not the SVD the program uses, and object errors are
taken straight against the simulator's ground truth.
"""

from __future__ import annotations

import math

import numpy as np

ORTHO_TOL = 1e-9
ATE_AGREE_TOL = 1e-9
OBJ_ERR_BUDGET_PCT = 6.0  # acceptance 5: mean centre error, % of range


def horn_alignment(source, target):
    """Rotation and translation minimising ||R source + t - target||^2.

    Horn (1987): the optimal rotation is the unit quaternion of the
    largest eigenvalue of a symmetric 4x4 matrix built from the
    cross-covariance of the centred point sets.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    mu_s, mu_t = source.mean(axis=0), target.mean(axis=0)
    m = (source - mu_s).T @ (target - mu_t)
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = m
    n = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz]])
    w, v = np.linalg.eigh(n)
    q0, qx, qy, qz = v[:, np.argmax(w)]
    rot = np.array([
        [q0 * q0 + qx * qx - qy * qy - qz * qz, 2 * (qx * qy - q0 * qz),
         2 * (qx * qz + q0 * qy)],
        [2 * (qy * qx + q0 * qz), q0 * q0 - qx * qx + qy * qy - qz * qz,
         2 * (qy * qz - q0 * qx)],
        [2 * (qz * qx - q0 * qy), 2 * (qz * qy + q0 * qx),
         q0 * q0 - qx * qx - qy * qy + qz * qz]])
    return rot, mu_t - rot @ mu_s


def ate_rmse(est_positions, gt_positions):
    """RMSE of camera positions after rigid alignment onto ground truth."""
    rot, t = horn_alignment(est_positions, gt_positions)
    diff = np.asarray(est_positions) @ rot.T + t - gt_positions
    return float(np.sqrt(np.mean(np.sum(diff ** 2, axis=1))))


def pose_faults(poses, n_frames):
    """Why the camera trajectory is not one valid pose per frame, or []."""
    if len(poses) != n_frames:
        return [f"{len(poses)} camera poses for {n_frames} frames"]
    faults = []
    for t, pose in enumerate(poses):
        rot, trans = pose.rotation, pose.translation
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(trans))):
            faults.append(f"frame {t}: pose not finite")
        elif (np.abs(rot.T @ rot - np.eye(3)).max() > ORTHO_TOL
              or abs(np.linalg.det(rot) - 1.0) > ORTHO_TOL):
            faults.append(f"frame {t}: rotation not orthonormal, det +1")
    return faults


def _wrap(angle):
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _camera_frame(pose, state):
    """Object centre and yaw in the frame of camera ``pose``."""
    head = pose.rotation.T @ np.array([math.cos(state.yaw), 0.0,
                                       -math.sin(state.yaw)])
    return pose.apply_inverse(state.position), math.atan2(-head[2], head[0])


def object_errors(scenario, tracks, camera):
    """Per (track, frame) errors against the ground truth.

    As in KITTI, boxes are compared in the camera frame: the estimate in
    the estimated camera ``camera[t]``, the truth in the true one.  A
    track is matched to the ground-truth object nearest its first state.
    Returns (matched object id per track, centre errors as % of the
    true range, absolute yaw errors in degrees).
    """
    matched, pos_pct, yaw_deg = {}, [], []
    for track_id, track in tracks.items():
        if not track:
            continue
        t0, s0 = track[0]
        p0, _ = _camera_frame(camera[t0], s0)
        obj = min(scenario.objects, key=lambda o: np.linalg.norm(
            _camera_frame(scenario.camera[t0], o.states[t0])[0] - p0))
        matched[track_id] = obj.object_id
        for t, state in track:
            p_est, yaw_est = _camera_frame(camera[t], state)
            p_gt, yaw_gt = _camera_frame(scenario.camera[t], obj.states[t])
            pos_pct.append(100.0 * np.linalg.norm(p_est - p_gt)
                           / np.linalg.norm(p_gt))
            yaw_deg.append(abs(math.degrees(_wrap(yaw_est - yaw_gt))))
    return matched, np.array(pos_pct), np.array(yaw_deg)


def detected_frames(frames):
    """Number of frames in which each ground-truth object was detected."""
    counts = {}
    for frame in frames:
        for s in frame.semantic:
            counts[s.object_id] = counts.get(s.object_id, 0) + 1
    return counts


def path_length(poses):
    pos = np.array([p.translation for p in poses])
    return float(np.sum(np.linalg.norm(np.diff(pos, axis=0), axis=1)))
