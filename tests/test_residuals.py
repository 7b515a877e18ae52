"""Finite-difference verification of all residual Jacobians."""

import numpy as np
import pytest

from semtrack import residuals as res
from semtrack.boxinfer import DEFAULT_PRIORS, Viewpoint, selection_set
from semtrack.geometry import (FACES, ObjectState, Pose, StereoRig, rot_y,
                               so3_exp)

STEP = 1e-6
TOL = 1e-5


def central_diff(fun, x0, dim):
    """Central finite-difference Jacobian of fun: R^dim -> R^k at zero."""
    cols = []
    for i in range(dim):
        delta = np.zeros(dim)
        delta[i] = STEP
        cols.append((fun(delta) - fun(-delta)) / (2.0 * STEP))
    return np.column_stack(cols)


def rel_error(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
    return np.abs(analytic - numeric).max() / scale


def random_pose(rng, spread=1.0):
    return Pose(so3_exp(rng.uniform(-0.4, 0.4, 3)),
                rng.uniform(-spread, spread, 3))


def random_object(rng):
    return ObjectState(
        position=rng.uniform([-8.0, -1.5, 8.0], [8.0, 0.5, 40.0]),
        yaw=rng.uniform(-np.pi, np.pi),
        dims=rng.uniform([2.5, 1.2, 1.4], [5.0, 2.0, 2.2]),
        speed=rng.uniform(-2.0, 12.0),
        steer=rng.uniform(-0.4, 0.4),
    )


def perturb_object(obj, d):
    return obj.replace(position=obj.position + d[:3], yaw=obj.yaw + d[3])


def perturb_full(obj, d):
    return obj.replace(position=obj.position + d[:3], yaw=obj.yaw + d[3],
                       steer=obj.steer + d[4], speed=obj.speed + d[5])


def motion_state(obj):
    """The (1, 6) motion-state row (position, yaw, steer, speed)."""
    return np.array([[*obj.position, obj.yaw, obj.steer, obj.speed]])


def feature_rows(cam, obj, n):
    """Per-row camera and object arguments of n rows seen from ``cam``."""
    cam_args = (np.repeat(cam.rotation[None], n, axis=0),
                np.repeat(cam.translation[None], n, axis=0))
    if obj is None:
        return cam_args, {}
    return cam_args, {"position": np.repeat(obj.position[None], n, axis=0),
                      "yaw": np.full(n, obj.yaw)}


def feature_one(obs_l, obs_r, cam, obj, lm, rig, jacobians=True):
    """One feature row: (residual (4,), jac dict of single rows)."""
    cam_args, obj_args = feature_rows(cam, obj, 1)
    r, jac, valid = res.feature_residuals_batch(
        np.reshape(obs_l, (1, 2)), np.reshape(obs_r, (1, 2)), *cam_args,
        lm[None], rig, jacobians=jacobians, **obj_args)
    assert valid.all()
    return r[0], {k: v[0] for k, v in jac.items()}


def semantic_one(edges, valid, sel, cam, obj, jacobians=True):
    """The rows of one detection: (residual, jac dict, row mask (4,))."""
    r, jac, mask = res.semantic_residual(
        np.asarray(edges)[None], np.asarray(valid)[None], sel.signs[None],
        cam.rotation[None], cam.translation[None], obj.position[None],
        np.array([obj.yaw]), obj.dims, jacobians)
    return r, jac, mask[0]


def motion_one(cur, prev, dt, label="car", jacobians=True):
    """One motion pair: (residual (6,), jac dict of single blocks)."""
    r, jac = res.motion_residual(motion_state(cur), motion_state(prev), dt,
                                 prev.dims, label, jacobians)
    return r[0], {k: v[0] for k, v in jac.items()}


class TestFeatureResidual:
    def test_jacobians_background(self):
        rng = np.random.default_rng(11)
        rig = StereoRig.horizontal(0.54)
        for _ in range(400):
            cam = random_pose(rng, 2.0)
            lm = cam.apply(rng.uniform([-8, -4, 5], [8, 2, 50]))
            obs_l = rng.uniform(-0.3, 0.3, 2)
            obs_r = rng.uniform(-0.3, 0.3, 2)
            r0, jac = feature_one(obs_l, obs_r, cam, None, lm, rig)

            def f_cam(d):
                p = Pose(cam.rotation @ so3_exp(d[3:]), cam.translation + d[:3])
                return feature_one(obs_l, obs_r, p, None, lm, rig,
                                   jacobians=False)[0]

            def f_lm(d):
                return feature_one(obs_l, obs_r, cam, None, lm + d, rig,
                                   jacobians=False)[0]

            assert rel_error(jac["camera"], central_diff(f_cam, r0, 6)) < TOL
            assert rel_error(jac["landmark"], central_diff(f_lm, r0, 3)) < TOL

    def test_jacobians_object_anchored(self):
        rng = np.random.default_rng(12)
        rig = StereoRig.horizontal(0.54)
        for _ in range(400):
            cam = Pose(rot_y(rng.uniform(-0.3, 0.3)),
                       rng.uniform(-1.0, 1.0, 3))
            obj = random_object(rng)
            lm = rng.uniform(-1.0, 1.0, 3) * obj.dims / 2.0
            obs_l = rng.uniform(-0.3, 0.3, 2)
            obs_r = rng.uniform(-0.3, 0.3, 2)
            cam_args, obj_args = feature_rows(cam, obj, 1)
            _, jac, valid = res.feature_residuals_batch(
                obs_l[None], obs_r[None], *cam_args, lm[None], rig,
                **obj_args)
            if not valid.all():
                continue
            jac = {k: v[0] for k, v in jac.items()}

            def f_obj(d):
                return feature_one(obs_l, obs_r, cam, perturb_object(obj, d),
                                   lm, rig, jacobians=False)[0]

            def f_lm(d):
                return feature_one(obs_l, obs_r, cam, obj, lm + d, rig,
                                   jacobians=False)[0]

            assert rel_error(jac["object"], central_diff(f_obj, None, 4)) < TOL
            assert rel_error(jac["landmark"], central_diff(f_lm, None, 3)) < TOL

    def test_zero_residual_at_truth(self):
        rig = StereoRig.horizontal(0.54)
        cam = Pose.identity()
        lm = np.array([1.0, -0.5, 12.0])
        p_r = rig.extrinsic.apply(lm)
        r0, _ = feature_one(lm[:2] / lm[2], p_r[:2] / p_r[2], cam, None, lm,
                            rig)
        assert np.abs(r0).max() < 1e-15

    def test_window_call_matches_per_frame_calls(self):
        # one call over rows of several frames, each row with its own
        # camera and object pose, against one call per frame
        rng = np.random.default_rng(14)
        rig = StereoRig.horizontal(0.54)
        for anchored in (False, True):
            frames = []
            for _ in range(4):
                cam = random_pose(rng, 2.0)
                obj = random_object(rng) if anchored else None
                n = int(rng.integers(1, 9))
                if anchored:
                    lms = rng.uniform(-1.0, 1.0, (n, 3)) * obj.dims / 2.0
                else:
                    lms = cam.apply(rng.uniform([-8, -4, 5], [8, 2, 50],
                                                (n, 3)))
                lms[0] = cam.apply(np.array([0.0, 0.0, -3.0])) \
                    if obj is None else obj.pose.apply_inverse(
                        cam.apply(np.array([0.0, 0.0, -3.0])))
                frames.append((cam, obj, lms, rng.uniform(-0.3, 0.3, (n, 2)),
                               rng.uniform(-0.3, 0.3, (n, 2))))
            per_frame = []
            for cam, obj, lms, left, right in frames:
                cam_args, obj_args = feature_rows(cam, obj, len(lms))
                per_frame.append(res.feature_residuals_batch(
                    left, right, *cam_args, lms, rig, **obj_args))
            args = [feature_rows(cam, obj, len(lms))
                    for cam, obj, lms, _, _ in frames]
            obj_args = {k: np.concatenate([a[1][k] for a in args])
                        for k in args[0][1]}
            r, jac, valid = res.feature_residuals_batch(
                *(np.concatenate([f[i] for f in frames]) for i in (3, 4)),
                *(np.concatenate([a[0][i] for a in args]) for i in (0, 1)),
                np.concatenate([f[2] for f in frames]), rig, **obj_args)
            assert not valid.all()
            assert np.array_equal(valid,
                                  np.concatenate([p[2] for p in per_frame]))
            assert np.allclose(r, np.concatenate([p[0] for p in per_frame]),
                               rtol=1e-12, atol=1e-15)
            assert set(jac) == set(per_frame[0][1])
            for key in jac:
                ref = np.concatenate([p[1][key] for p in per_frame])
                assert np.allclose(jac[key], ref, rtol=1e-12, atol=1e-12)

    def test_behind_camera_rows_zeroed(self):
        # every row comes back; one behind either camera has a zero
        # residual and zero Jacobians, and leaves the others as they are
        rig = StereoRig.horizontal(0.54)
        obs = np.full((3, 2), 0.1)
        for obj in (None, ObjectState(position=np.zeros(3), yaw=0.3,
                                      dims=np.ones(3))):
            lms = np.array([[0.0, 0.0, -5.0], [1.0, 0.5, 5.0],
                            [0.0, 0.0, 0.0]])
            cam_args, obj_args = feature_rows(Pose.identity(), obj, 3)
            r, jac, valid = res.feature_residuals_batch(
                obs, obs, *cam_args, lms, rig, **obj_args)
            assert list(valid) == [False, True, False]
            assert r.shape == (3, 4) and jac["landmark"].shape == (3, 4, 3)
            assert not r[~valid].any()
            assert not any(v[~valid].any() for v in jac.values())
            assert np.isfinite(r).all()
            one_r, one_jac = feature_one(obs[1], obs[1], Pose.identity(),
                                         obj, lms[1], rig)
            assert np.array_equal(r[1], one_r)
            for key, value in one_jac.items():
                assert np.array_equal(jac[key][1], value)


class TestSemanticResidual:
    def test_jacobians(self):
        rng = np.random.default_rng(13)
        rig_checked = 0
        while rig_checked < 400:
            cam = Pose(rot_y(rng.uniform(-0.2, 0.2)),
                       np.array([rng.uniform(-2, 2), -1.2,
                                 rng.uniform(-2, 2)]))
            obj = random_object(rng)
            if cam.apply_inverse(obj.position)[2] < 5.0:
                continue
            vp = Viewpoint(int(rng.integers(0, 8)), int(rng.integers(0, 2)))
            sel = selection_set(vp)
            edges = rng.uniform(-0.3, 0.3, 4)
            valid = tuple(bool(b) for b in rng.integers(0, 2, 4))
            if not any(valid):
                continue
            r0, jac, mask = semantic_one(edges, valid, sel, cam, obj)
            if mask.sum() < sum(valid):
                continue  # a selected vertex behind the camera

            def f_obj(d):
                return semantic_one(edges, valid, sel, cam,
                                    perturb_object(obj, d),
                                    jacobians=False)[0]

            def f_dims(d):
                o = obj.replace(dims=obj.dims + d)
                return semantic_one(edges, valid, sel, cam, o,
                                    jacobians=False)[0]

            assert rel_error(jac["object"], central_diff(f_obj, None, 4)) < TOL
            assert rel_error(jac["dims"], central_diff(f_dims, None, 3)) < TOL
            rig_checked += 1

    def test_truncated_edges_dropped(self):
        rng = np.random.default_rng(14)
        cam = Pose.identity()
        obj = ObjectState(position=np.array([2.0, -0.2, 15.0]), yaw=0.4,
                          dims=np.array([3.9, 1.6, 1.7]))
        sel = selection_set(Viewpoint(0, 0))
        edges = rng.uniform(-0.2, 0.2, 4)
        r_all, _, m_all = semantic_one(edges, (True,) * 4, sel, cam, obj)
        r_part, _, m_part = semantic_one(edges, (True, False, True, False),
                                         sel, cam, obj)
        assert m_all.all() and len(r_all) == 4
        # kept rows are u_min and u_max (valid order is u_min,v_min,u_max,v_max)
        assert list(m_part) == [True, True, False, False]
        assert np.allclose(r_part, r_all[:2])

    def test_behind_camera_drops_detection(self):
        sel = selection_set(Viewpoint(0, 0))
        obj = ObjectState(position=np.array([0.0, 0.0, 0.5]), yaw=0.0,
                          dims=np.array([3.9, 1.6, 1.7]))
        r, jac, mask = semantic_one(np.zeros(4), (True,) * 4, sel,
                                    Pose.identity(), obj)
        assert not mask.any() and r.shape == (0,)
        assert jac["object"].shape == (0, 4)

    def test_batch_matches_single_detections(self):
        rng = np.random.default_rng(18)
        cams, objs, sels, edges, valids = [], [], [], [], []
        while len(cams) < 6:
            cam = Pose(rot_y(rng.uniform(-0.2, 0.2)),
                       np.array([rng.uniform(-2, 2), -1.2,
                                 rng.uniform(-2, 2)]))
            obj = random_object(rng)
            if cam.apply_inverse(obj.position)[2] < 5.0:
                continue
            cams.append(cam)
            objs.append(obj.replace(dims=np.array([4.0, 1.7, 1.8])))
            sels.append(selection_set(Viewpoint(int(rng.integers(0, 8)),
                                                int(rng.integers(0, 2)))))
            edges.append(rng.uniform(-0.3, 0.3, 4))
            valids.append(rng.integers(0, 2, 4).astype(bool))
        r, jac, mask = res.semantic_residual(
            np.array(edges), np.array(valids),
            np.array([s.signs for s in sels]),
            np.array([c.rotation for c in cams]),
            np.array([c.translation for c in cams]),
            np.array([o.position for o in objs]),
            np.array([o.yaw for o in objs]), objs[0].dims)
        singles = [semantic_one(*args) for args in
                   zip(edges, valids, sels, cams, objs)]
        assert np.array_equal(mask, [m for _, _, m in singles])
        assert np.allclose(r, np.concatenate([s[0] for s in singles]),
                           rtol=0.0, atol=1e-15)
        for key in ("object", "dims"):
            assert np.allclose(jac[key],
                               np.concatenate([s[1][key] for s in singles]),
                               rtol=0.0, atol=1e-12)


class TestMotionResidual:
    def test_jacobians_car(self):
        rng = np.random.default_rng(15)
        for _ in range(400):
            prev = random_object(rng)
            cur = random_object(rng)
            r0, jac = motion_one(cur, prev, 0.1, "car")

            def f_cur(d):
                return motion_one(perturb_full(cur, d), prev, 0.1, "car",
                                  jacobians=False)[0]

            def f_prev(d):
                return motion_one(cur, perturb_full(prev, d), 0.1, "car",
                                  jacobians=False)[0]

            def f_dims(d):
                return motion_one(cur, prev.replace(dims=prev.dims + d), 0.1,
                                  "car", jacobians=False)[0]

            assert rel_error(jac["cur"], central_diff(f_cur, r0, 6)) < TOL
            assert rel_error(jac["prev"], central_diff(f_prev, r0, 6)) < TOL
            assert rel_error(jac["dims"], central_diff(f_dims, r0, 3)) < TOL

    def test_jacobians_pedestrian(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            prev = random_object(rng)
            cur = random_object(rng)
            r0, jac = motion_one(cur, prev, 0.1, "pedestrian")
            assert r0[4] == 0.0
            assert not jac["cur"][4].any() and not jac["prev"][4].any()
            assert not jac["dims"].any()

            def f_prev(d):
                return motion_one(cur, perturb_full(prev, d), 0.1,
                                  "pedestrian", jacobians=False)[0]

            assert rel_error(jac["prev"], central_diff(f_prev, r0, 6)) < TOL

    def test_batch_matches_single_pairs(self):
        rng = np.random.default_rng(19)
        dims = np.array([4.0, 1.7, 1.8])
        cur = [random_object(rng).replace(dims=dims) for _ in range(5)]
        prev = [random_object(rng).replace(dims=dims) for _ in range(5)]
        dt = rng.uniform(0.05, 0.3, 5)
        r, jac = res.motion_residual(
            np.concatenate([motion_state(o) for o in cur]),
            np.concatenate([motion_state(o) for o in prev]), dt, dims)
        for i in range(5):
            r_i, jac_i = motion_one(cur[i], prev[i], dt[i])
            assert np.array_equal(r[i], r_i)
            for key in jac_i:
                assert np.array_equal(jac[key][i], jac_i[key])

    def test_exact_propagation_zero_residual(self):
        from semtrack.simulate import propagate_object
        prev = ObjectState(position=np.array([1.0, -0.85, 20.0]), yaw=0.3,
                           dims=np.array([4.0, 1.7, 1.8]), speed=6.0,
                           steer=0.1)
        cur = propagate_object(prev, (6.0, 0.1), 0.1, "car")
        r0, _ = motion_one(cur, prev, 0.1, "car")
        assert np.abs(r0).max() < 1e-12

    def test_bad_dt(self):
        obj = ObjectState(position=np.zeros(3), yaw=0.0,
                          dims=np.ones(3))
        with pytest.raises(ValueError):
            motion_one(obj, obj, 0.0)


class TestPriorResidual:
    def test_value(self):
        prior = DEFAULT_PRIORS["car"]
        r0 = res.prior_residual(prior.mean + [0.1, -0.2, 0.05], prior.mean)
        assert np.allclose(r0, [0.1, -0.2, 0.05])


def surface_one(world, obj, face, jacobians=True):
    """One point-surface row: (residual (1,), jac dict of (1, 3))."""
    return res.point_surface_residual(world[None], obj.position, obj.yaw,
                                      obj.dims, [FACES.index(face)],
                                      jacobians)


class TestPointSurfaceResidual:
    def test_on_face_zero(self):
        obj = ObjectState(position=np.array([3.0, -0.85, 20.0]), yaw=0.7,
                          dims=np.array([4.0, 1.7, 1.8]))
        # point on the +x face plane
        local = np.array([2.0, 0.3, -0.4])
        world = rot_y(obj.yaw) @ local + obj.position
        r0, _ = surface_one(world, obj, "+x")
        assert abs(r0[0]) < 1e-12

    def test_jacobians(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            obj = random_object(rng)
            world = obj.position + rng.uniform(-3.0, 3.0, 3)
            face = FACES[rng.integers(0, len(FACES))]
            r0, jac = surface_one(world, obj, face)

            def f_position(d):
                return surface_one(world, obj.replace(
                    position=obj.position + d), face, jacobians=False)[0]

            assert jac["object"].shape == (1, 3)
            assert rel_error(jac["object"],
                             central_diff(f_position, r0, 3)) < TOL

    def test_signed_offsets(self):
        obj = ObjectState(position=np.zeros(3), yaw=0.0,
                          dims=np.array([4.0, 2.0, 2.0]))
        outside = np.array([3.0, 0.0, 0.0])
        inside = np.array([1.0, 0.0, 0.0])
        assert surface_one(outside, obj, "+x")[0][0] > 0
        assert surface_one(inside, obj, "+x")[0][0] < 0
