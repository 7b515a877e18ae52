"""Residual families for the tracking estimators, with analytic Jacobians.

Residual conventions:

* Feature (4): stereo reprojection of one landmark, rows (left u, left v,
  right u, right v), each minus the observation.
* Semantic (1 per edge): selected box-vertex projections against the 2D
  box edges, ordered (u_min, u_max, v_min, v_max); truncated edges drop
  out.
* Motion (6): state minus kinematic prediction, components ordered
  (position x, y, z, yaw, steer, speed); yaw difference wrapped.
* Prior (3): dims minus the class prior mean.
* Point-surface (1): signed offset of a world point from its assigned box
  face plane, differentiated by the box position alone.

Jacobian layouts follow the state orderings used by the solvers: camera
pose (translation 3, rotation-vector 3, applied as t += dt,
R <- R exp(dphi)); object state (position 3, yaw, steer, speed); dims 3.
Every family is evaluated for a whole batch of rows in one call, each
row with its own camera pose and object box where it has them, so one
call covers a whole window, or the windows of many objects.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geom
from .geometry import CAR_WHEELBASE_RATIO, StereoRig, face_offsets, wrap_angle

# order mapping from selection rows (u_min, u_max, v_min, v_max) to the
# BBox2D edge tuple (u_min, v_min, u_max, v_max)
_EDGE_INDEX = [0, 2, 1, 3]


def feature_residuals_batch(obs_left, obs_right, cam_rotation,
                            cam_translation, landmarks, rig: StereoRig,
                            position=None, yaw=None, jacobians=True):
    """Stereo reprojection residuals of n landmark observations.

    Per row: ``obs_left`` and ``obs_right`` (n, 2) are the normalized
    image points, ``cam_rotation`` (n, 3, 3) and ``cam_translation`` (n, 3)
    the camera pose and ``landmarks`` (n, 3) the point.  Background points
    (``position`` None) are in world frame; anchored points are in the
    frame of an object at ``position`` (n, 3) with ``yaw`` (n,).  Every
    row comes back, so a caller's row structure stays fixed: a row with
    its point behind either camera is not ``valid`` and has a zero
    residual and zero Jacobians, so it adds nothing to a cost or to
    normal equations.  Returns (residuals (n, 4), jac dict, valid mask
    (n,)); the jac keys are "camera" (n, 4, 6), "object" (n, 4, 4,
    anchored only) and "landmark" (n, 4, 3).
    """
    landmarks = np.asarray(landmarks, dtype=float).reshape(-1, 3)
    anchored = position is not None
    if anchored:
        c, s = np.cos(yaw), np.sin(yaw)
        x, z = landmarks[:, 0], landmarks[:, 2]
        world = np.column_stack([c * x + s * z, landmarks[:, 1],
                                 c * z - s * x]) + position
    else:
        world = landmarks
    rot_ext = rig.extrinsic.rotation
    p_l = np.einsum("nji,nj->ni", cam_rotation, world - cam_translation)
    p_r = p_l @ rot_ext.T + rig.extrinsic.translation
    valid = (p_l[:, 2] > geom.EPS_Z) & (p_r[:, 2] > geom.EPS_Z)
    invalid = ~valid
    # any positive depth keeps the arithmetic of those rows finite
    p_l[invalid] = p_r[invalid] = (0.0, 0.0, 1.0)
    n = len(p_l)
    obs = np.hstack([np.reshape(obs_left, (-1, 2)),
                     np.reshape(obs_right, (-1, 2))])
    res = np.hstack([p_l[:, :2] / p_l[:, 2:], p_r[:, :2] / p_r[:, 2:]]) - obs
    res[invalid] = 0.0
    if not jacobians:
        return res, {}, valid

    def proj_jac(p):
        out = np.zeros((len(p), 2, 3))
        inv_z = 1.0 / p[:, 2]
        out[:, 0, 0] = inv_z
        out[:, 1, 1] = inv_z
        out[:, :, 2] = -p[:, :2] * inv_z[:, None] ** 2
        return out

    # derivative of the four rows by the left-camera point, then by the
    # world point; zero on the rows that are not valid
    d_left = np.concatenate([proj_jac(p_l), proj_jac(p_r) @ rot_ext], axis=1)
    d_left[invalid] = 0.0
    # a contiguous transpose keeps matmul off its slow strided path
    d_world = d_left @ cam_rotation.transpose(0, 2, 1).copy()
    sk = np.zeros((n, 3, 3))
    sk[:, 0, 1] = -p_l[:, 2]
    sk[:, 0, 2] = p_l[:, 1]
    sk[:, 1, 0] = p_l[:, 2]
    sk[:, 1, 2] = -p_l[:, 0]
    sk[:, 2, 0] = -p_l[:, 1]
    sk[:, 2, 1] = p_l[:, 0]
    jac = {"camera": np.concatenate([-d_world, d_left @ sk], axis=2)}
    if not anchored:
        jac["landmark"] = d_world
        return res, jac, valid
    # d_world @ (d rot_y / d yaw) @ landmark, and d_world @ rot_y(yaw)
    d_yaw = (d_world[:, :, 0] * (c * z - s * x)[:, None]
             - d_world[:, :, 2] * (c * x + s * z)[:, None])
    jac["object"] = np.concatenate([d_world, d_yaw[:, :, None]], axis=2)
    jac["landmark"] = np.stack(
        [c[:, None] * d_world[:, :, 0] - s[:, None] * d_world[:, :, 2],
         d_world[:, :, 1],
         s[:, None] * d_world[:, :, 0] + c[:, None] * d_world[:, :, 2]],
        axis=2)
    return res, jac, valid


def semantic_residual(box_edges, valid_edges, signs, cam_rotation,
                      cam_translation, position, yaw, dims, jacobians=True):
    """Box-edge residual rows of n detections.

    Per detection: ``box_edges`` (n, 4) is the BBox2D edge array (u_min,
    v_min, u_max, v_max), ``valid_edges`` (n, 4) its validity flags in the
    same order, ``signs`` (n, 4, 3) the selection-set vertex signs,
    ``cam_rotation`` (n, 3, 3) and ``cam_translation`` (n, 3) the camera
    pose, ``position`` (n, 3), ``yaw`` (n,) and ``dims`` (n, 3), or (3,)
    shared, the object box.  Residual rows run (u_min, u_max, v_min,
    v_max) per detection; invalid (truncated) rows drop out, and so does
    every row of a detection with a selected vertex behind the camera.
    Returns (residual (m,), jac dict with "object" (m, 4) and "dims" (m,
    3), row mask (n, 4)).
    """
    box_edges = np.asarray(box_edges, dtype=float)[:, _EDGE_INDEX]
    valid = np.asarray(valid_edges, dtype=bool)[:, _EDGE_INDEX]
    c, s = np.cos(yaw)[:, None], np.sin(yaw)[:, None]
    offset = signs * (np.asarray(dims, dtype=float)[..., None, :] / 2.0)
    o_x, o_z = offset[:, :, 0], offset[:, :, 2]
    # the selected vertices: rot_y(yaw) @ offset + position
    world = np.stack([c * o_x + s * o_z, offset[:, :, 1], c * o_z - s * o_x],
                     axis=2) + position[:, None]
    p_cam = (world - cam_translation[:, None]) @ cam_rotation
    z = p_cam[:, :, 2]
    in_front = z > geom.EPS_Z
    mask = valid & np.all(in_front | ~valid, axis=1)[:, None]
    z = np.where(in_front, z, 1.0)
    rows = np.arange(4)
    axis = np.array([0, 0, 1, 1])
    coord = p_cam[:, rows, axis]
    res = (coord / z - box_edges)[mask]
    if not jacobians:
        return res, {}, mask
    grad = np.zeros(p_cam.shape)
    grad[:, rows, axis] = 1.0 / z
    grad[:, :, 2] = -coord / z ** 2
    # a contiguous transpose keeps matmul off its slow strided path
    d_world = grad @ cam_rotation.transpose(0, 2, 1).copy()
    w_x, w_z = d_world[:, :, 0], d_world[:, :, 2]
    # d_world @ (d rot_y / d yaw) @ offset, and d_world @ rot_y(yaw)
    d_yaw = (-s * w_x - c * w_z) * o_x + (c * w_x - s * w_z) * o_z
    d_dims = np.stack([c * w_x - s * w_z, d_world[:, :, 1], s * w_x + c * w_z],
                      axis=2) * signs / 2.0
    jac = {"object": np.concatenate([d_world, d_yaw[:, :, None]],
                                    axis=2)[mask],
           "dims": d_dims[mask]}
    return res, jac, mask


def motion_residual(cur, prev, dt, dims, label="car", jacobians=True):
    """State-transition residuals of n consecutive state pairs.

    ``cur`` and ``prev`` are (n, 6) motion states (position x, y, z, yaw,
    steer, speed), ``dt`` scalar or (n,), ``dims`` the box size, (3,)
    shared or (n, 3), and ``label`` the class, shared or (n,).  The
    prediction follows the same kinematics as the simulator: cars use the
    single-track model with wheelbase 0.6 * length, pedestrians move at
    constant velocity (their steer row and its Jacobians are zero).
    Returns (residual (n, 6), jac dict with "cur" (n, 6, 6), "prev" (n,
    6, 6), "dims" (n, 6, 3)).
    """
    cur = np.asarray(cur, dtype=float)
    prev = np.asarray(prev, dtype=float)
    dt = np.broadcast_to(np.asarray(dt, dtype=float), len(prev))
    if np.any(dt <= 0):
        raise ValueError("dt must be positive")
    yaw, steer, speed = prev[:, 3], prev[:, 4], prev[:, 5]
    head = np.stack([np.cos(yaw), np.zeros_like(yaw), -np.sin(yaw)], -1)
    pred_pos = prev[:, :3] + head * speed[:, None] * dt[:, None]
    is_car = np.asarray(label) == "car"
    wheelbase = CAR_WHEELBASE_RATIO * np.asarray(dims, dtype=float)[..., 0]
    tan = np.tan(steer)
    pred_yaw = np.where(is_car, yaw + tan * speed * dt / wheelbase, yaw)
    res = np.empty((len(prev), 6))
    res[:, :3] = cur[:, :3] - pred_pos
    res[:, 3] = wrap_angle(cur[:, 3] - pred_yaw)
    res[:, 4] = np.where(is_car, cur[:, 4] - steer, 0.0)
    res[:, 5] = cur[:, 5] - speed
    if not jacobians:
        return res, {}

    n = len(prev)
    jac_cur = np.broadcast_to(np.eye(6), (n, 6, 6)).copy()
    jac_cur[:, 4, 4] = np.where(is_car, 1.0, 0.0)
    jac_prev = -jac_cur
    dhead = np.stack([-np.sin(yaw), np.zeros_like(yaw), -np.cos(yaw)], -1)
    jac_prev[:, :3, 3] = -dhead * speed[:, None] * dt[:, None]
    jac_prev[:, :3, 5] = -head * dt[:, None]
    jac_prev[:, 3, 4] = np.where(
        is_car, -speed * dt / (np.cos(steer) ** 2 * wheelbase), 0.0)
    jac_prev[:, 3, 5] = np.where(is_car, -tan * dt / wheelbase, 0.0)
    jac_dims = np.zeros((n, 6, 3))
    jac_dims[:, 3, 0] = np.where(
        is_car, tan * speed * dt * CAR_WHEELBASE_RATIO / wheelbase ** 2, 0.0)
    return res, {"cur": jac_cur, "prev": jac_prev, "dims": jac_dims}


def prior_residual(dims, mean):
    """Dimension-prior residual d - mean (its Jacobian is the identity)."""
    return np.asarray(dims, dtype=float) - mean


def point_surface_residual(world_points, position, yaw, dims, faces,
                           jacobians=True):
    """Signed offsets of n world points from their assigned box face planes.

    Each point is measured against the box at ``position`` (n, 3) with
    ``yaw`` (n,) and ``dims`` (n, 3), or one box shared by all points
    ((3,), scalar, (3,)).  ``faces`` (n,) indexes :data:`geometry.FACES`,
    whose order pairs each axis's + and - face.  Returns (residual (n,),
    jac dict with "object" (n, 3) by the box position; the yaw is held).
    """
    faces = np.asarray(faces)
    n = len(faces)
    axis = faces // 2
    rows = np.arange(n)
    c = np.broadcast_to(np.cos(yaw), n)
    s = np.broadcast_to(np.sin(yaw), n)
    dx, dy, dz = (np.asarray(world_points, dtype=float) - position).T
    # the points in the box frame
    local = np.column_stack([c * dx - s * dz, dy, s * dx + c * dz])
    res = face_offsets(dims, local)[rows, faces]
    if not jacobians:
        return res, {}
    zero, one = np.zeros(n), np.ones(n)
    # the box axes in world frame, one row each
    box_axes = np.stack([np.column_stack([c, zero, -s]),
                         np.column_stack([zero, one, zero]),
                         np.column_stack([s, zero, c])], axis=1)
    return res, {"object": -box_axes[rows, axis]}
