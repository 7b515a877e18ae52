"""Frames, rigid transforms, projection and box geometry.

Conventions used throughout the library:

* Camera frame: x right, y down, z forward.  Projection to the normalized
  image plane is ``pi(p) = (x/z, y/z)``.
* World frame: shares the camera axis convention; y points down, so the
  "up" direction is -y and the ground plane is y = 0.
* Object frame: origin at the box center, x along the heading (length
  ``d_x``), y down (height ``d_y``), z to the object's left (width ``d_z``).
* Yaw rotations are about the vertical (y) axis; ``rot_y(pi/2)`` maps
  (1, 0, 0) to (0, 0, -1).

All types are immutable values and all functions are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BehindCamera

EPS_Z = 1e-6  # behind-camera cutoff (meters)
CAR_WHEELBASE_RATIO = 0.6  # wheelbase as a fraction of box length

# Vertex sign enumeration, fixed order: index i has bit pattern (sx, sy, sz)
# with -1 for a 0 bit, +1 for a 1 bit, sx the most significant bit.
VERTEX_SIGNS = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))

# Face labels: axis and side of the box, e.g. "+x" is the front face.
FACES = ("+x", "-x", "+y", "-y", "+z", "-z")
_FACE_AXIS = np.array([0, 0, 1, 1, 2, 2])
_FACE_SIGN = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def wrap_angle(theta):
    """Wrap an angle (scalar or array) to (-pi, pi]."""
    wrapped = np.mod(-np.asarray(theta) + np.pi, 2.0 * np.pi)
    return -(wrapped - np.pi) if np.ndim(theta) else float(np.pi - wrapped)


def skew(w):
    """Cross-product matrices (..., 3, 3) of vectors (..., 3)."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -w[..., 2], w[..., 1]
    out[..., 1, 0], out[..., 1, 2] = w[..., 2], -w[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -w[..., 1], w[..., 0]
    return out


def so3_exp(w):
    """Rotation matrices (..., 3, 3) from rotation vectors (..., 3)
    (Rodrigues); below an angle of 1e-12 the first-order map I + [w]x."""
    w = np.asarray(w, dtype=float)
    # the norm summed as a one-vector np.linalg.norm sums it, so that a
    # stack rounds as its members do one at a time
    angle = np.sqrt(w[..., None, :] @ w[..., :, None])
    small = angle < 1e-12
    k = skew(w / np.where(small, 1.0, angle)[..., 0])
    rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    return np.where(small, np.eye(3) + skew(w), rot)


def _unit_quaternion(q):
    # (x, y, z, w) order, squares summed in sequence: written trajectory
    # files keep the digits they had with SciPy's Rotation
    return np.asarray(q, dtype=float) / math.sqrt(sum(v * v for v in q))


def rotation_to_quaternion(rot):
    """Unit quaternion (w, x, y, z) of a rotation matrix.

    Branches on the largest of the diagonal entries and the trace, so the
    component divided through stays large near 180 degrees as well.
    """
    rot = np.asarray(rot, dtype=float)
    trace = rot[0, 0] + rot[1, 1] + rot[2, 2]
    i = int(np.argmax([rot[0, 0], rot[1, 1], rot[2, 2], trace]))
    q = np.empty(4)  # (x, y, z, w)
    if i == 3:
        q[:3] = (rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0],
                 rot[1, 0] - rot[0, 1])
        q[3] = 1.0 + trace
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q[i] = 1.0 - trace + 2.0 * rot[i, i]
        q[j] = rot[j, i] + rot[i, j]
        q[k] = rot[k, i] + rot[i, k]
        q[3] = rot[k, j] - rot[j, k]
    return _unit_quaternion(q)[[3, 0, 1, 2]]


def quaternion_to_rotation(q):
    """Rotation matrix of a quaternion (w, x, y, z), normalized first."""
    w, x, y, z = q
    x, y, z, w = _unit_quaternion((x, y, z, w))
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
                     [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
                     [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]])


def project_rotation(rot):
    """Nearest orthonormal matrices with determinant +1 (Frobenius sense)
    of matrices (..., 3, 3).

    Keeps repeatedly updated rotations from drifting off the group.
    """
    u, _, vt = np.linalg.svd(np.asarray(rot, dtype=float))
    # flip the last singular direction of a reflection
    scale = np.ones(u.shape[:-1])
    scale[..., 2] = np.sign(np.linalg.det(u @ vt))
    return (u * scale[..., None, :]) @ vt


def rot_y(theta):
    """Rotation about the vertical (y) axis."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def heading(theta):
    """Unit heading vector of a yaw angle: the rotated object x axis."""
    return rot_y(theta) @ np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class Pose:
    """Rigid transform: applies as R @ p + t.

    ``rotation`` must be orthonormal with determinant +1 (checked to 1e-9).
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if np.max(np.abs(rot @ rot.T - np.eye(3))) > 1e-9:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", t)
        rot.setflags(write=False)
        t.setflags(write=False)

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_yaw(cls, yaw, translation):
        return cls(rot_y(yaw), np.asarray(translation, dtype=float))

    def apply(self, p):
        """Transform point(s): R @ p + t.  Accepts (3,) or (N, 3)."""
        p = np.asarray(p, dtype=float)
        return p @ self.rotation.T + self.translation

    def apply_inverse(self, p):
        """Inverse transform: R^T @ (p - t)."""
        p = np.asarray(p, dtype=float)
        return (p - self.translation) @ self.rotation

    def compose(self, other: "Pose") -> "Pose":
        """self o other: (self.compose(other)).apply(p) == self.apply(other.apply(p))."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -self.rotation.T @ self.translation)


def project(p):
    """Project camera-frame point(s) to the normalized image plane.

    Raises :class:`BehindCamera` if any z <= 1e-6 m.
    """
    p = np.asarray(p, dtype=float)
    z = p[..., 2]
    if np.any(z <= EPS_Z):
        raise BehindCamera(f"point depth {np.min(z):.3g} <= {EPS_Z:.0e}")
    return p[..., :2] / z[..., None]


@dataclass(frozen=True)
class ObjectState:
    """Pose, size and kinematic state of a tracked object (world frame).

    ``yaw`` is normalized to (-pi, pi] on construction; ``dims`` is
    (d_x, d_y, d_z) = (length, height, width) and must be positive.
    Negative speed (reversing) is allowed.
    """

    position: np.ndarray
    yaw: float
    dims: np.ndarray
    speed: float = 0.0
    steer: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float).reshape(3)
        dims = np.asarray(self.dims, dtype=float).reshape(3)
        if not np.all(dims > 0):
            raise ValueError("dims must be strictly positive")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))
        pos.setflags(write=False)
        dims.setflags(write=False)

    @property
    def pose(self) -> Pose:
        """Object-to-world transform."""
        return Pose(rot_y(self.yaw), self.position)

    def replace(self, **kwargs) -> "ObjectState":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center, yaw about the vertical, dims."""

    center: np.ndarray
    yaw: float
    dims: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(3)
        dims = np.asarray(self.dims, dtype=float).reshape(3)
        if not np.all(dims > 0):
            raise ValueError("dims must be strictly positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "yaw", float(self.yaw))
        center.setflags(write=False)
        dims.setflags(write=False)

    @property
    def pose(self) -> Pose:
        return Pose(rot_y(self.yaw), self.center)


@dataclass(frozen=True)
class StereoRig:
    """Stereo extrinsics: ``extrinsic`` maps left-camera to right-camera
    coordinates.  ``focal_px`` converts pixel noise levels to normalized
    units; image size (pixels) bounds the visible field of view."""

    extrinsic: Pose
    focal_px: float = 700.0
    image_w_px: float = 1240.0
    image_h_px: float = 376.0

    def __post_init__(self):
        if np.linalg.norm(self.extrinsic.translation) <= 0:
            raise ValueError("stereo baseline must be positive")

    @classmethod
    def horizontal(cls, baseline_m, focal_px=700.0, image_w_px=1240.0,
                   image_h_px=376.0):
        """Rectified rig: right camera at +baseline along left-camera x."""
        return cls(Pose(np.eye(3), np.array([-baseline_m, 0.0, 0.0])),
                   focal_px, image_w_px, image_h_px)

    @property
    def baseline(self):
        return float(np.linalg.norm(self.extrinsic.translation))

    @property
    def u_half_extent(self):
        return 0.5 * self.image_w_px / self.focal_px

    @property
    def v_half_extent(self):
        return 0.5 * self.image_h_px / self.focal_px


def box_vertices(box: Box3D):
    """The 8 vertices, ordered by :data:`VERTEX_SIGNS`: center + R_yaw (s * d/2)."""
    offsets = VERTEX_SIGNS * (box.dims / 2.0)
    return box.center + offsets @ rot_y(box.yaw).T


def face_offsets(dims, points):
    """Signed offsets (n, 6) of object-frame points from the six face
    planes of a box of ``dims`` ((3,), or (n, 3) one box per point), in
    :data:`FACES` order: each point's coordinate along the face axis minus
    the plane's coordinate."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dims = np.asarray(dims, dtype=float)
    return points[:, _FACE_AXIS] - _FACE_SIGN * dims[..., _FACE_AXIS] / 2.0
