"""Tests for frames, rigid transforms, projection and box geometry."""

import numpy as np
import pytest

from semtrack import geometry as geom
from semtrack.errors import BehindCamera
from semtrack.geometry import (FACES, Box3D, ObjectState, Pose, StereoRig,
                               box_vertices, face_offsets, project, rot_y,
                               so3_exp, wrap_angle)


def random_rotation(rng):
    return so3_exp(rng.normal(size=3))


def random_pose(rng):
    return Pose(random_rotation(rng), rng.normal(scale=5.0, size=3))


class TestAngles:
    def test_wrap_angle_identity_inside_range(self):
        for theta in (-3.0, -0.5, 0.0, 1.0, np.pi):
            assert wrap_angle(theta) == pytest.approx(theta, abs=1e-15)

    def test_wrap_angle_boundary_is_pi_not_minus_pi(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3.0 * np.pi) == pytest.approx(np.pi)

    def test_wrap_angle_periodicity(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-20.0, 20.0, 200):
            w = wrap_angle(theta)
            assert -np.pi < w <= np.pi
            assert np.cos(w) == pytest.approx(np.cos(theta), abs=1e-12)
            assert np.sin(w) == pytest.approx(np.sin(theta), abs=1e-12)

    def test_wrap_angle_array(self):
        out = wrap_angle(np.array([0.0, 2.0 * np.pi, -np.pi]))
        assert np.allclose(out, [0.0, 0.0, np.pi])


class TestRotations:
    def test_rot_y_explicit_matrix(self):
        # independent oracle: written-out matrix for the chosen convention
        theta = 0.37
        c, s = np.cos(theta), np.sin(theta)
        expected = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
        assert np.allclose(rot_y(theta), expected, atol=1e-15)

    def test_rot_y_quarter_turn_maps_heading_to_minus_z(self):
        assert np.allclose(rot_y(np.pi / 2) @ [1.0, 0.0, 0.0],
                           [0.0, 0.0, -1.0], atol=1e-15)

    def test_heading_matches_rot_y(self):
        for theta in np.linspace(-np.pi, np.pi, 17):
            assert np.allclose(geom.heading(theta),
                               [np.cos(theta), 0.0, -np.sin(theta)], atol=1e-15)

    @staticmethod
    def rotation_vectors(seed):
        """Random rotation vectors with angles from 1e-8 up to pi, the last
        50 within 1e-6 of pi."""
        rng = np.random.default_rng(seed)
        axes = rng.normal(size=(250, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        angles = np.concatenate([rng.uniform(1e-8, np.pi, 200),
                                 np.pi - rng.uniform(0.0, 1e-6, 50)])
        return axes * angles[:, None]

    def test_exp_fixes_its_axis(self):
        for w in self.rotation_vectors(11):
            assert np.allclose(so3_exp(w) @ w, w, rtol=0.0, atol=1e-12)

    def test_exp_is_proper_rotation(self):
        for w in self.rotation_vectors(12):
            rot = so3_exp(w)
            assert np.allclose(rot @ rot.T, np.eye(3), rtol=0.0, atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)

    def test_exp_trace_matches_angle(self):
        for w in self.rotation_vectors(13):
            assert np.trace(so3_exp(w)) == pytest.approx(
                1.0 + 2.0 * np.cos(np.linalg.norm(w)), abs=1e-12)

    def test_exp_about_y_is_rot_y(self):
        for theta in np.linspace(-np.pi, np.pi, 41):
            assert np.allclose(so3_exp(theta * np.array([0.0, 1.0, 0.0])),
                               rot_y(theta), rtol=0.0, atol=1e-15)

    def test_exp_of_zero(self):
        assert np.allclose(so3_exp(np.zeros(3)), np.eye(3))

    def test_stacked_exp_matches_per_vector_loop(self):
        # one stacked call against the per-vector formula, including the
        # first-order branch below an angle of 1e-12
        rng = np.random.default_rng(13)
        w = rng.normal(size=(4, 5, 3))
        w[0, :3] *= 1e-13
        w[1, 0] = 0.0
        w[2, 0] = [np.pi - 1e-9, 0.0, 0.0]

        def rodrigues(v):
            angle = np.linalg.norm(v)
            if angle < 1e-12:
                return np.eye(3) + geom.skew(v)
            k = geom.skew(v / angle)
            return (np.eye(3) + np.sin(angle) * k
                    + (1.0 - np.cos(angle)) * (k @ k))

        stacked = so3_exp(w)
        assert stacked.shape == (4, 5, 3, 3)
        loop = np.array([rodrigues(v) for v in w.reshape(-1, 3)])
        assert np.abs(stacked.reshape(-1, 3, 3) - loop).max() <= 1e-15
        assert np.array_equal(so3_exp(w[0, 0]), stacked[0, 0])

    def test_stacked_projection_matches_per_matrix_loop(self):
        rng = np.random.default_rng(14)
        mats = so3_exp(rng.normal(size=(40, 3))) + rng.normal(
            scale=1e-3, size=(40, 3, 3))
        mats[:10] *= -1.0  # reflections
        mats[10] = np.eye(3)

        def nearest(m):
            u, _, vt = np.linalg.svd(m)
            d = np.sign(np.linalg.det(u @ vt))
            return u @ np.diag([1.0, 1.0, d]) @ vt

        stacked = geom.project_rotation(mats)
        loop = np.array([nearest(m) for m in mats])
        assert np.abs(stacked - loop).max() <= 1e-15
        assert np.allclose(np.linalg.det(stacked), 1.0, atol=1e-12)
        assert np.array_equal(stacked[10], np.eye(3))
        assert np.array_equal(geom.project_rotation(mats[0]), stacked[0])

    def test_quaternion_round_trip(self):
        rng = np.random.default_rng(41)
        rots = [so3_exp(rng.uniform(-np.pi, np.pi, 3)) for _ in range(200)]
        for _ in range(200):
            axis = rng.normal(size=3)
            angle = np.pi - rng.uniform(0.0, 1e-6)
            rots.append(so3_exp(axis / np.linalg.norm(axis) * angle))
        for rot in rots:
            q = geom.rotation_to_quaternion(rot)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-15
            assert np.abs(geom.quaternion_to_rotation(q) - rot).max() < 1e-12

    def test_quaternion_of_known_rotations(self):
        assert np.array_equal(geom.rotation_to_quaternion(np.eye(3)),
                              [1.0, 0.0, 0.0, 0.0])
        # half turn about y: w = 0, the trace branch would divide by ~0
        q = geom.rotation_to_quaternion(rot_y(np.pi))
        assert np.allclose(np.abs(q), [0.0, 0.0, 1.0, 0.0], atol=1e-15)
        q = geom.rotation_to_quaternion(rot_y(0.5))
        assert np.allclose(q, [np.cos(0.25), 0.0, np.sin(0.25), 0.0],
                           atol=1e-15)


class TestPose:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pose = random_pose(rng)
            p = rng.normal(scale=10.0, size=3)
            assert np.allclose(pose.apply_inverse(pose.apply(p)), p, atol=1e-10)

    def test_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x1, x2 = random_pose(rng), random_pose(rng)
            p = rng.normal(scale=10.0, size=3)
            lhs = x1.apply(x2.apply(p))
            rhs = x1.compose(x2).apply(p)
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pose = random_pose(rng)
            ident = pose.compose(pose.inverse())
            assert np.allclose(ident.rotation, np.eye(3), atol=1e-12)
            assert np.allclose(ident.translation, 0.0, atol=1e-12)

    def test_batch_apply_matches_loop(self):
        rng = np.random.default_rng(4)
        pose = random_pose(rng)
        pts = rng.normal(size=(40, 3))
        batch = pose.apply(pts)
        for i in range(len(pts)):
            assert np.allclose(batch[i], pose.apply(pts[i]))

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(refl, np.zeros(3))

    def test_immutable(self):
        pose = Pose.identity()
        with pytest.raises(ValueError):
            pose.translation[0] = 1.0


class TestProjection:
    def test_scale_invariant_along_rays(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = rng.normal(size=3)
            p[2] = abs(p[2]) + 0.1
            lam = rng.uniform(0.1, 50.0)
            assert np.allclose(project(p), project(lam * p), atol=1e-12)

    def test_known_point(self):
        assert np.allclose(project(np.array([2.0, -1.0, 4.0])), [0.5, -0.25])

    def test_behind_camera_raises(self):
        with pytest.raises(BehindCamera):
            project(np.array([0.0, 0.0, -1.0]))
        with pytest.raises(BehindCamera):
            project(np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 0.0]]))


class TestBoxes:
    def test_vertex_count_and_order(self):
        box = Box3D(np.zeros(3), 0.0, np.array([2.0, 4.0, 6.0]))
        verts = box_vertices(box)
        assert verts.shape == (8, 3)
        # first vertex has all-negative signs, last all-positive
        assert np.allclose(verts[0], [-1.0, -2.0, -3.0])
        assert np.allclose(verts[7], [1.0, 2.0, 3.0])

    def test_vertices_rigid_under_yaw(self):
        rng = np.random.default_rng(7)
        dims = np.array([3.9, 1.6, 1.7])
        base = box_vertices(Box3D(np.zeros(3), 0.0, dims))
        ref = np.linalg.norm(base[:, None] - base[None, :], axis=-1)
        for _ in range(50):
            box = Box3D(rng.normal(size=3), rng.uniform(-np.pi, np.pi), dims)
            verts = box_vertices(box)
            dist = np.linalg.norm(verts[:, None] - verts[None, :], axis=-1)
            assert np.allclose(dist, ref, atol=1e-10)

    def test_face_distance_object_frame_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            dims = rng.uniform(0.5, 5.0, 3)
            p = rng.normal(scale=4.0, size=(5, 3))
            # axis-aligned box at origin: distances readable off coordinates
            offsets = face_offsets(dims, p)
            assert offsets.shape == (5, 6)
            assert np.allclose(np.abs(offsets[:, FACES.index("+x")]),
                               np.abs(p[:, 0] - dims[0] / 2))
            assert np.allclose(np.abs(offsets[:, FACES.index("-z")]),
                               np.abs(p[:, 2] + dims[2] / 2))

    def test_face_distance_rigid_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            dims = rng.uniform(0.5, 5.0, 3)
            yaw = rng.uniform(-np.pi, np.pi)
            center = rng.normal(scale=5.0, size=3)
            p = rng.normal(scale=8.0, size=3)
            box = Box3D(center, yaw, dims)
            d0 = face_offsets(dims, box.pose.apply_inverse(p))
            shift = rng.normal(scale=3.0, size=3)
            dyaw = rng.uniform(-np.pi, np.pi)
            moved = Box3D(rot_y(dyaw) @ center + shift, yaw + dyaw, dims)
            p_moved = rot_y(dyaw) @ p + shift
            d1 = face_offsets(dims, moved.pose.apply_inverse(p_moved))
            assert np.allclose(d1, d0, atol=1e-10)

    def test_signed_face_offset_sign(self):
        dims = np.array([2.0, 2.0, 2.0])
        plus_x = FACES.index("+x")
        assert face_offsets(dims, [1.5, 0.0, 0.0])[0, plus_x] > 0
        assert face_offsets(dims, [0.5, 0.0, 0.0])[0, plus_x] < 0
        assert face_offsets(dims, [1.0, 0.0, 0.0])[0, plus_x] == 0.0

    def test_nearest_face_for_surface_points(self):
        # plane distances are meaningful for points near the box surface
        # (the landmark-anchoring use case)
        dims = np.array([2.0, 2.0, 2.0])
        # the third point ties between +x and +z: the first face wins
        points = np.array([[0.99, 0.2, -0.3], [0.1, -1.02, 0.3],
                           [0.75, 0.0, 0.75]])
        nearest = np.argmin(np.abs(face_offsets(dims, points)), axis=1)
        assert [FACES[i] for i in nearest] == ["+x", "-y", "+x"]

    def test_face_offsets_follow_faces_order(self):
        # the centre lies half a side inside every face plane
        offsets = face_offsets([2.0, 4.0, 6.0], np.zeros(3))
        assert offsets.tolist() == [[-1.0, 1.0, -2.0, 2.0, -3.0, 3.0]]
        assert FACES == ("+x", "-x", "+y", "-y", "+z", "-z")


class TestStates:
    def test_object_state_wraps_yaw(self):
        state = ObjectState(np.zeros(3), 3.0 * np.pi, np.ones(3))
        assert state.yaw == pytest.approx(np.pi)

    def test_object_state_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            ObjectState(np.zeros(3), 0.0, np.array([1.0, -1.0, 1.0]))

    def test_object_pose_maps_origin_to_position(self):
        state = ObjectState(np.array([1.0, 2.0, 3.0]), 0.7, np.ones(3))
        assert np.allclose(state.pose.apply(np.zeros(3)), state.position)

    def test_replace(self):
        state = ObjectState(np.zeros(3), 0.0, np.ones(3), speed=1.0)
        faster = state.replace(speed=2.0)
        assert faster.speed == 2.0 and state.speed == 1.0

    def test_stereo_rig_horizontal(self):
        rig = StereoRig.horizontal(0.5)
        assert rig.baseline == pytest.approx(0.5)
        # a point on the left camera axis appears shifted right-to-left
        p_right = rig.extrinsic.apply(np.array([0.0, 0.0, 10.0]))
        assert p_right[0] == pytest.approx(-0.5)

    def test_stereo_rig_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            StereoRig(Pose.identity())
