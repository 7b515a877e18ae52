"""Viewpoint samplers shared by test modules: boxes and camera poses drawn
inside the validity regime of a viewpoint class, where the edge-vertex
table of :mod:`semtrack.boxinfer` is exact."""

import numpy as np

from semtrack import geometry as geom
from semtrack.boxinfer import (SECTOR_WIDTH, Viewpoint,
                               brute_force_extremes_camera,
                               classify_viewpoint_world,
                               infer_pose_candidates, selection_set,
                               tight_bbox)
from semtrack.errors import DegenerateGeometry, NoConvergence
from semtrack.geometry import Box3D, ObjectState, Pose, rot_y, wrap_angle

# The viewpoint whose selection set matches the published edge-vertex
# matrices: camera rear-left of the object, slightly above it.
REFERENCE_VIEWPOINT = Viewpoint(horizontal=3, vertical=1)


def camera_viewpoint(box: Box3D) -> Viewpoint:
    """Viewpoint of a camera-frame box, seen by a level camera at the
    origin."""
    return classify_viewpoint_world(
        Pose.identity(), ObjectState(box.center, box.yaw, box.dims))


def _sample_camera_position(vp: Viewpoint, rng, half, range_m, max_pitch_deg):
    """Object-frame camera position inside the viewpoint's validity regime.

    The regime keeps the edge-vertex correspondences unambiguous:
    near-horizontal viewing (elevation within ``max_pitch_deg``), two
    object faces toward the camera for diagonal sectors, a single face
    (on the sector's positive-azimuth side) for cardinal sectors, and for
    the level class a camera height strictly inside the box's vertical
    span.
    """
    center_az = vp.horizontal * SECTOR_WIDTH
    guard = np.deg2rad(3.0)
    for _ in range(10000):
        r = rng.uniform(*range_m)
        azimuth = center_az + rng.uniform(-SECTOR_WIDTH / 2 + guard,
                                          SECTOR_WIDTH / 2 - guard)
        qx = r * np.cos(azimuth)
        qz = r * np.sin(azimuth)
        if vp.vertical == 0:
            qy = rng.uniform(-half[1] + 0.1, half[1] - 0.1)
        else:
            max_drop = r * np.tan(np.deg2rad(max_pitch_deg)) - half[1]
            if max_drop < 0.3:
                continue
            qy = -half[1] - rng.uniform(0.3, max_drop)
        if vp.horizontal % 2 == 1:
            # diagonal sector: strictly outside both face slabs
            if not (abs(qx) > half[0] + 0.3 and abs(qz) > half[2] + 0.3):
                continue
        else:
            # cardinal sector: inside the facing slab, on the positive
            # lateral side with a wide margin (the nearest-corner choice
            # flips at the sector center)
            ca, sa = np.cos(center_az), np.sin(center_az)
            forward = qx * ca + qz * sa
            lateral = -qx * sa + qz * ca
            half_lat = half[2] if vp.horizontal % 4 == 0 else half[0]
            half_fwd = half[0] if vp.horizontal % 4 == 0 else half[2]
            if not (forward > half_fwd + 0.3
                    and 0.3 * half_lat < lateral < 0.85 * half_lat):
                continue
        return np.array([qx, qy, qz])
    raise RuntimeError(f"could not sample a config for {vp}")


def sample_viewpoint_config(vp: Viewpoint, rng, dims=None, range_m=(12.0, 45.0),
                            max_pitch_deg=5.0):
    """Sample a world-frame (camera pose, object state) pair inside the
    viewpoint's validity regime; the camera looks at the box center
    (roll-free, pitch bounded by the regime)."""
    if dims is None:
        dims = np.array([3.9, 1.6, 1.7]) * rng.uniform(0.85, 1.15, 3)
    dims = np.asarray(dims, dtype=float)
    half = dims / 2.0
    q = _sample_camera_position(vp, rng, half, range_m, max_pitch_deg)
    qx, qy, qz = q

    obj_yaw = rng.uniform(-np.pi, np.pi)
    obj_pos = np.array([rng.uniform(-20, 20), -half[1], rng.uniform(-20, 20)])
    state = ObjectState(obj_pos, obj_yaw, dims)
    cam_pos = state.pose.apply(np.array([qx, qy, qz]))
    # camera looks at the box center, roll-free; pitch equals the elevation
    # angle which the regime keeps within max_pitch_deg
    z_axis = state.position - cam_pos
    z_axis = z_axis / np.linalg.norm(z_axis)
    x_axis = np.cross(np.array([0.0, 1.0, 0.0]), z_axis)
    x_axis = x_axis / np.linalg.norm(x_axis)
    y_axis = np.cross(z_axis, x_axis)
    rotation = np.stack([x_axis, y_axis, z_axis], axis=1)
    x_cam = Pose(rotation, cam_pos)
    assert classify_viewpoint_world(x_cam, state) == vp
    return x_cam, state


def _on_axis_yaw(q):
    """Object yaw that puts the box center on the camera's optical axis
    for a level camera at the origin (center = -rot_y(yaw) @ q)."""
    theta = np.arctan2(q[0], -q[2])
    center_z = np.sin(theta) * q[0] - np.cos(theta) * q[2]
    if center_z < 0:
        theta = wrap_angle(theta + np.pi)
    return theta


def _off_axis_bound(q, dims):
    """Largest safe angle between the optical axis and the box center.

    The vertical 2D box edges are attained by depth-extreme vertices of a
    fixed-height vertex group.  On the optical axis the camera-frame depth
    ordering equals the ordering along the camera-to-center direction;
    tilting the axis by beta perturbs each depth by at most diameter * beta,
    so the ordering (and hence the edge-vertex table) survives as long as
    beta stays below the smallest on-axis depth gap over the diameter.
    """
    theta0 = _on_axis_yaw(q)
    rot = rot_y(theta0)
    center = -(rot @ q)
    offsets = (geom.VERTEX_SIGNS * (np.asarray(dims) / 2.0)) @ rot.T
    depth = center[2] + offsets[:, 2]
    gaps = []
    for group in (geom.VERTEX_SIGNS[:, 1] < 0, geom.VERTEX_SIGNS[:, 1] > 0):
        d = np.sort(depth[group])
        gaps.append(min(d[1] - d[0], d[-1] - d[-2]))
    beta = 0.45 * min(gaps) / float(np.linalg.norm(dims))
    return theta0, min(beta, np.deg2rad(10.0))


def sample_camera_frame_box(vp: Viewpoint, rng, dims=None, range_m=(5.0, 60.0),
                            max_pitch_deg=5.0, verify=True):
    """Sample a camera-frame :class:`Box3D` (level camera at the origin)
    inside the viewpoint's validity regime.

    The box yaw is drawn around the value that centers the box on the
    optical axis, within the off-axis allowance of the validity regime;
    the sampled box always agrees with the edge-vertex table and is
    uniquely recoverable from its 2D box (configurations whose tight 2D
    box admits a second exact in-class pose are rejected).
    """
    if dims is None:
        dims = np.array([3.9, 1.6, 1.7]) * rng.uniform(0.85, 1.15, 3)
    dims = np.asarray(dims, dtype=float)
    sel = selection_set(vp)
    for _ in range(200):
        q = _sample_camera_position(vp, rng, dims / 2.0, range_m, max_pitch_deg)
        theta0, beta = _off_axis_bound(q, dims)
        theta = wrap_angle(theta0 + rng.uniform(-beta, beta))
        box = Box3D(-(rot_y(theta) @ q), theta, dims)
        assert camera_viewpoint(box) == vp
        if not verify:
            return box
        signs = geom.VERTEX_SIGNS[list(brute_force_extremes_camera(box))].copy()
        signs[0, 1] = signs[1, 1] = 1.0
        if not np.array_equal(signs, sel.signs):
            continue
        try:
            roots = infer_pose_candidates(tight_bbox(box), vp, dims)
        except (DegenerateGeometry, NoConvergence):
            continue
        exact = [r for r in roots if r[2] < 1e-8 and r[3] < 1e-8]
        if len(exact) == 1:
            return box
    raise RuntimeError(f"could not sample a camera-frame box for {vp}")
