"""Tests for the synthetic scene simulator."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from semtrack import geometry as geom
from semtrack import simulate as sim
from semtrack.boxinfer import BBox2D, Viewpoint, classify_viewpoint_world
from semtrack.errors import ConfigError
from semtrack.geometry import Box3D, ObjectState, Pose


def base_config(**overrides):
    config = {
        "n_frames": 20,
        "objects": [
            {"class": "car",
             "init": {"x": 3.0, "z": 18.0, "yaw": 0.2, "v": 5.0,
                      "steer": 0.02}},
            {"class": "pedestrian",
             "init": {"x": -4.0, "z": 25.0, "yaw": -1.0, "v": 1.2}},
        ],
        "noise": {"seed": 5},
    }
    config.update(overrides)
    return config


class TestPropagate:
    def test_straight_line(self):
        state = ObjectState(np.zeros(3), 0.0, np.array([4.0, 1.6, 1.7]),
                            speed=2.0, steer=0.0)
        out = sim.propagate_object(state, (2.0, 0.0), 0.5)
        assert np.allclose(out.position, [1.0, 0.0, 0.0])
        assert out.yaw == pytest.approx(0.0)

    def test_yaw_rate_formula(self):
        # wheelbase = 0.6 * 10/3 = 2; dyaw = tan(pi/4) * v * dt / L = 0.5
        dims = np.array([10.0 / 3.0, 1.6, 1.7])
        state = ObjectState(np.zeros(3), 0.0, dims, speed=1.0,
                            steer=np.pi / 4.0)
        out = sim.propagate_object(state, (1.0, np.pi / 4.0), 1.0)
        assert out.yaw == pytest.approx(0.5)

    def test_controls_overwrite_after_step(self):
        state = ObjectState(np.zeros(3), 0.0, np.array([4.0, 1.6, 1.7]),
                            speed=2.0, steer=0.0)
        out = sim.propagate_object(state, (7.0, 0.1), 0.5)
        # motion used the old speed, the new controls are stored
        assert np.allclose(out.position, [1.0, 0.0, 0.0])
        assert out.speed == 7.0 and out.steer == 0.1

    def test_pedestrian_ignores_steer(self):
        state = ObjectState(np.zeros(3), 0.3, np.array([0.8, 1.75, 0.8]),
                            speed=1.0, steer=0.5)
        out = sim.propagate_object(state, (1.0, 0.5), 0.1, label="pedestrian")
        assert out.yaw == pytest.approx(0.3)

    def test_constant_control_traces_circle(self):
        # continuous-time single-track model: turning radius L / tan(steer)
        dims = np.array([4.0, 1.6, 1.7])
        steer = 0.15
        init = ObjectState(np.zeros(3), 0.0, dims, speed=3.0, steer=steer)
        states = sim.rollout(init, [(3.0, steer)] * 300, 0.05)
        pts = np.array([s.position for s in states])[:, [0, 2]]
        a_mat = np.c_[2 * pts, np.ones(len(pts))]
        sol, *_ = np.linalg.lstsq(a_mat, (pts ** 2).sum(axis=1), rcond=None)
        radius_fit = np.sqrt(sol[2] + sol[0] ** 2 + sol[1] ** 2)
        radius = 0.6 * dims[0] / np.tan(steer)
        assert radius_fit == pytest.approx(radius, rel=0.02)

    def test_rejects_bad_dt(self):
        state = ObjectState(np.zeros(3), 0.0, np.ones(3))
        with pytest.raises(ValueError):
            sim.propagate_object(state, (0.0, 0.0), 0.0)


class TestGenerateScenario:
    def test_deterministic(self):
        a = sim.generate_scenario(base_config(), seed=3)
        b = sim.generate_scenario(base_config(), seed=3)
        assert np.array_equal(a.background, b.background)
        for oa, ob in zip(a.objects, b.objects):
            assert np.array_equal(oa.landmarks, ob.landmarks)
            for sa, sb in zip(oa.states, ob.states):
                assert np.array_equal(sa.position, sb.position)

    def test_object_count(self):
        scenario = sim.generate_scenario(base_config(), seed=3)
        assert len(scenario.objects) == 2
        assert scenario.objects[0].label == "car"
        assert scenario.objects[1].label == "pedestrian"

    def test_default_landmark_counts(self):
        scenario = sim.generate_scenario(base_config(), seed=3)
        assert scenario.background.shape == (500, 3)
        for obj in scenario.objects:
            assert obj.landmarks.shape == (100, 3)

    def test_object_landmarks_on_surface(self):
        scenario = sim.generate_scenario(base_config(), seed=4)
        for obj in scenario.objects:
            offsets = geom.face_offsets(obj.states[0].dims, obj.landmarks)
            assert np.all(np.abs(offsets).min(axis=1) < 1e-9)

    def test_face_points_match_per_point_reference(self):
        dims = np.array([4.1, 1.5, 1.8])
        areas = np.repeat([dims[2] * dims[1], dims[0] * dims[1]], 2)
        rng = np.random.default_rng(15)
        got = sim._sample_face_points(dims, 200, rng)
        rng = np.random.default_rng(15)
        faces = rng.choice(4, size=200, p=areas / areas.sum())
        u = rng.uniform(-0.5, 0.5, 200)
        v = rng.uniform(-0.5, 0.5, 200)
        want = np.empty((200, 3))
        for i, f in enumerate(faces):
            sign = 1.0 if f % 2 == 0 else -1.0
            if f < 2:  # +x / -x faces
                want[i] = [sign * dims[0] / 2.0, v[i] * dims[1],
                           u[i] * dims[2]]
            else:  # +z / -z faces
                want[i] = [u[i] * dims[0], v[i] * dims[1],
                           sign * dims[2] / 2.0]
        assert got.tobytes() == want.tobytes()

    def test_landmarks_rigidly_anchored(self):
        scenario = sim.generate_scenario(base_config(), seed=4)
        obj = scenario.objects[0]
        for t in (0, 7, 19):
            world = obj.states[t].pose.apply(obj.landmarks)
            back = obj.states[t].pose.apply_inverse(world)
            assert np.allclose(back, obj.landmarks, atol=1e-10)

    def test_objects_rest_on_ground(self):
        scenario = sim.generate_scenario(base_config(), seed=4)
        for obj in scenario.objects:
            dims = obj.states[0].dims
            assert obj.states[0].position[1] == pytest.approx(-dims[1] / 2.0)

    def test_camera_trajectory_straight_default(self):
        scenario = sim.generate_scenario(base_config(), seed=4)
        pos = np.array([p.translation for p in scenario.camera])
        steps = np.diff(pos, axis=0)
        assert np.allclose(steps, steps[0])
        assert steps[0][2] == pytest.approx(8.0 * scenario.dt)

    def test_config_error_paths(self):
        with pytest.raises(ConfigError, match="dt_s"):
            sim.generate_scenario(base_config(dt_s=-0.1), seed=0)
        with pytest.raises(ConfigError, match=r"objects\[0\]\.class"):
            bad = base_config()
            bad["objects"][0]["class"] = "bicycle"
            sim.generate_scenario(bad, seed=0)
        with pytest.raises(ConfigError, match=r"objects\[0\]\.init"):
            sim.generate_scenario({"objects": [{"class": "car"}]}, seed=0)
        with pytest.raises(ConfigError, match="rig.baseline_m"):
            sim.generate_scenario({"rig": {"baseline_m": 0.0}}, seed=0)
        nan, inf = float("nan"), float("inf")
        controls = [[5.0, 0.02]] * 19

        def car(**entries):
            return base_config(objects=[{"init": {}, **entries}])

        for field, config in [
                ("dt_s", base_config(dt_s=nan)),
                ("camera.speed", base_config(camera={"speed": inf})),
                ("camera.yaw_rate", base_config(camera={"yaw_rate": nan})),
                ("camera.start", base_config(camera={"start": [0, "x", 0]})),
                ("rig.baseline_m", base_config(rig={"baseline_m": nan})),
                ("rig.focal_px", base_config(rig={"focal_px": inf})),
                ("noise.seed", base_config(noise={"seed": -1})),
                ("n_frames", base_config(n_frames=True)),
                (r"objects\[0\]\.init\.x", base_config(
                    objects=[{"init": {"x": False}}])),
                (r"objects\[0\]\.dims", car(dims=[4.0, nan, 1.7])),
                (r"objects\[0\]\.controls\[1\]",
                 car(controls=controls[:1] + [[5.0]] + controls[2:])),
                (r"objects\[0\]\.controls\[0\]",
                 car(controls=[[1, "a"]] + controls[1:])),
                (r"objects\[0\]\.controls\[2\]",
                 car(controls=controls[:2] + [5.0] + controls[3:]))]:
            with pytest.raises(ConfigError, match=field):
                sim.generate_scenario(config, seed=0)

    def test_explicit_controls_length_checked(self):
        bad = base_config()
        bad["objects"][0]["controls"] = [[1.0, 0.0]] * 5
        with pytest.raises(ConfigError, match="controls"):
            sim.generate_scenario(bad, seed=0)


class TestSynthesizeFrame:
    def test_zero_noise_box_is_vertex_hull(self):
        scenario = sim.generate_scenario(base_config(), seed=6)
        frame = sim.synthesize_frame(scenario, 0, sim.NoiseSpec.zero())
        for s in frame.semantic:
            obj = scenario.objects[s.object_id - 1]
            verts = geom.box_vertices(Box3D(
                obj.states[0].position, obj.states[0].yaw, obj.states[0].dims))
            uv = geom.project(scenario.camera[0].apply_inverse(verts))
            assert s.box.u_min == pytest.approx(uv[:, 0].min(), abs=1e-12)
            assert s.box.u_max == pytest.approx(uv[:, 0].max(), abs=1e-12)
            assert s.box.v_min == pytest.approx(uv[:, 1].min(), abs=1e-12)
            assert s.box.v_max == pytest.approx(uv[:, 1].max(), abs=1e-12)

    def test_deterministic_per_seed_and_frame(self):
        scenario = sim.generate_scenario(base_config(), seed=6)
        a = sim.synthesize_frame(scenario, 3)
        b = sim.synthesize_frame(scenario, 3)
        assert sim.frame_to_dict(a) == sim.frame_to_dict(b)

    def test_stereo_observations_satisfy_epipolar_geometry(self):
        # rectified horizontal rig: same v in both views, positive disparity
        scenario = sim.generate_scenario(base_config(), seed=6)
        frame = sim.synthesize_frame(scenario, 2, sim.NoiseSpec.zero())
        assert len(frame.features) > 100
        for f in frame.features:
            assert f.left[1] == pytest.approx(f.right[1], abs=1e-12)
            assert f.left[0] > f.right[0] - 1e-12

    def test_feature_ids_stable_across_frames(self):
        scenario = sim.generate_scenario(base_config(), seed=6)
        f0 = sim.synthesize_frame(scenario, 0, sim.NoiseSpec.zero())
        f1 = sim.synthesize_frame(scenario, 1, sim.NoiseSpec.zero())
        anchors0 = {f.feature_id: f.anchor_id for f in f0.features}
        anchors1 = {f.feature_id: f.anchor_id for f in f1.features}
        shared = set(anchors0) & set(anchors1)
        assert len(shared) > 100
        for fid in shared:
            assert anchors0[fid] == anchors1[fid]

    def test_truncated_object_flagged_with_invalid_edges(self):
        config = base_config()
        # a car straddling the left image border
        config["objects"] = [{"class": "car",
                              "init": {"x": -9.0, "z": 10.0, "yaw": 0.0}}]
        scenario = sim.generate_scenario(config, seed=7)
        frame = sim.synthesize_frame(scenario, 0, sim.NoiseSpec.zero())
        assert len(frame.semantic) == 1
        s = frame.semantic[0]
        assert s.truncated
        assert not s.valid_edges[0]  # left edge clipped by the border
        assert s.valid_edges[2]  # right edge genuine
        assert s.box.u_min == pytest.approx(-scenario.rig.u_half_extent)

    def test_fully_occluded_object_dropped(self):
        config = base_config()
        config["objects"] = [
            {"class": "car", "init": {"x": 0.0, "z": 8.0, "yaw": 0.0},
             "dims": [4.5, 2.2, 2.4]},
            {"class": "car", "init": {"x": 0.0, "z": 40.0, "yaw": 0.0},
             "dims": [3.5, 1.4, 1.5]},
        ]
        config["camera"] = {"start": [0.0, -1.0, 0.0], "speed": 0.0}
        scenario = sim.generate_scenario(config, seed=8)
        frame = sim.synthesize_frame(scenario, 0, sim.NoiseSpec.zero())
        detected = {s.object_id for s in frame.semantic}
        assert detected == {1}
        # and the hidden object contributes no features
        assert all(f.anchor_id != 2 for f in frame.features)

    def test_behind_camera_object_skipped(self):
        config = base_config()
        config["objects"] = [{"class": "car",
                              "init": {"x": 0.0, "z": -15.0, "yaw": 0.0}}]
        scenario = sim.generate_scenario(config, seed=9)
        frame = sim.synthesize_frame(scenario, 0, sim.NoiseSpec.zero())
        assert frame.semantic == ()

    def test_dropout_removes_detections(self):
        scenario = sim.generate_scenario(base_config(), seed=10)
        noise = sim.NoiseSpec(0.0, 0.0, 0.0, 1.0, seed=1)
        frame = sim.synthesize_frame(scenario, 0, noise)
        assert frame.semantic == ()

    def test_viewpoint_corruption_rate(self):
        scenario = sim.generate_scenario(base_config(), seed=10)
        noise = sim.NoiseSpec(0.0, 0.0, 1.0, 0.0, seed=2)
        clean = sim.synthesize_frame(scenario, 0, sim.NoiseSpec.zero())
        noisy = sim.synthesize_frame(scenario, 0, noise)
        for s_clean, s_noisy in zip(clean.semantic, noisy.semantic):
            dh = (s_noisy.viewpoint.horizontal
                  - s_clean.viewpoint.horizontal) % 8
            assert dh in (1, 7)

    def test_out_of_range_frame_rejected(self):
        scenario = sim.generate_scenario(base_config(), seed=10)
        with pytest.raises(ValueError):
            sim.synthesize_frame(scenario, scenario.n_frames)


class TestMismatch:
    """From frame 1 on, features take the points of their nearest other
    feature in the left image: both (temporal) or the right one alone
    (stereo)."""

    @staticmethod
    def scenario(**noise):
        config = base_config(
            n_frames=6, landmarks={"background_n": 60, "per_object_n": 20},
            noise={"seed": 5, "viewpoint_error_rate": 0.3,
                   "dropout_rate": 0.2, **noise})
        return sim.generate_scenario(config, seed=4)

    def test_zero_rates_leave_the_stream_unchanged(self, monkeypatch):
        # the sha256 of this stream before the rates existed: at rate 0
        # the generator draws nothing more
        def drawn(*args):
            raise AssertionError("mismatches drawn at rate 0")

        monkeypatch.setattr(sim, "_mismatch", drawn)
        frames = sim.synthesize_all(self.scenario(
            temporal_mismatch_rate=0, stereo_mismatch_rate=0.0))
        text = json.dumps([sim.frame_to_dict(f) for f in frames],
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "7a96040f29a66bf5416226406a1ef7f993b08a1a638a3eb7441bf36aa0fad0b2"

    def test_config_sets_the_rates(self):
        noise = self.scenario(temporal_mismatch_rate=0.1,
                              stereo_mismatch_rate=1).noise
        assert (noise.temporal_mismatch_rate,
                noise.stereo_mismatch_rate) == (0.1, 1.0)
        assert self.scenario().noise == replace(
            noise, temporal_mismatch_rate=0.0, stereo_mismatch_rate=0.0)

    def test_rates_outside_the_unit_interval_refused(self):
        for name in ("temporal_mismatch_rate", "stereo_mismatch_rate"):
            for rate in (-0.1, 1.5, float("nan")):
                with pytest.raises(ValueError, match=name):
                    sim.NoiseSpec(**{name: rate})
            with pytest.raises(ConfigError, match="noise"):
                self.scenario(**{name: 2.0})
        assert sim.NoiseSpec.zero(3) == sim.NoiseSpec(0.0, 0.0, 0.0, 0.0, 3)

    @pytest.mark.parametrize("kind", ["temporal", "stereo"])
    def test_every_feature_takes_its_nearest_neighbour(self, kind):
        scenario = self.scenario()
        mixed = replace(scenario.noise, **{f"{kind}_mismatch_rate": 1.0})
        for t in range(3):
            clean = sim.synthesize_frame(scenario, t)
            got = sim.synthesize_frame(scenario, t, mixed)
            assert [f.feature_id for f in got.features] == \
                [f.feature_id for f in clean.features]
            assert got.semantic == clean.semantic
            left = np.array([f.left for f in clean.features])
            right = np.array([f.right for f in clean.features])
            if t == 0:
                near = np.arange(len(left))
            else:
                gap = np.linalg.norm(left[:, None] - left[None], axis=2)
                np.fill_diagonal(gap, np.inf)
                near = np.argmin(gap, axis=1)
                assert (near != np.arange(len(left))).all()
            taken = near if kind == "temporal" else np.arange(len(left))
            assert np.array_equal([f.left for f in got.features],
                                  left[taken])
            assert np.array_equal([f.right for f in got.features],
                                  right[near])

    def test_rate_draws_per_feature(self):
        scenario = self.scenario(stereo_mismatch_rate=0.25)
        clean = replace(scenario.noise, stereo_mismatch_rate=0.0)
        moved = total = 0
        for t in range(1, 6):
            a = sim.synthesize_frame(scenario, t, clean).features
            b = sim.synthesize_frame(scenario, t).features
            assert all(np.array_equal(f.left, g.left) for f, g in zip(a, b))
            moved += sum(not np.array_equal(f.right, g.right)
                         for f, g in zip(a, b))
            total += len(a)
        assert 0.15 < moved / total < 0.35


# ---------------------------------------------------------------------------
# Per-point reference synthesis: the scalar ray casting and feature loop
# that synthesize_frame computes with arrays.


def reference_ray_hits_box(origin, point, box: Box3D, margin=1e-6):
    """True if the open segment origin->point passes through the box."""
    pose = box.pose
    o = pose.apply_inverse(origin)
    d = pose.apply_inverse(point) - o
    half = box.dims / 2.0
    t_lo, t_hi = 0.0, 1.0 - margin
    for axis in range(3):
        if abs(d[axis]) < 1e-12:
            if abs(o[axis]) > half[axis]:
                return False
            continue
        t1 = (-half[axis] - o[axis]) / d[axis]
        t2 = (half[axis] - o[axis]) / d[axis]
        if t1 > t2:
            t1, t2 = t2, t1
        t_lo = max(t_lo, t1)
        t_hi = min(t_hi, t2)
        if t_lo > t_hi:
            return False
    return True


def reference_occluded(world_point, cam_center, boxes, skip_index):
    return any(reference_ray_hits_box(cam_center, world_point, box)
               for j, box in enumerate(boxes) if j != skip_index)


def reference_in_image(uv, rig):
    return (abs(uv[0]) <= rig.u_half_extent
            and abs(uv[1]) <= rig.v_half_extent)


def reference_synthesize_frame(scenario, t, noise):
    rng = np.random.default_rng((noise.seed, t))
    rig = scenario.rig
    x_cam = scenario.camera[t]
    x_right = x_cam.compose(rig.extrinsic.inverse())
    boxes = [Box3D(obj.states[t].position, obj.states[t].yaw,
                   obj.states[t].dims) for obj in scenario.objects]

    semantic = []
    for j, (obj, box) in enumerate(zip(scenario.objects, boxes)):
        state = obj.states[t]
        verts_cam = x_cam.apply_inverse(geom.box_vertices(box))
        if np.any(verts_cam[:, 2] <= geom.EPS_Z):
            continue
        uv = verts_cam[:, :2] / verts_cam[:, 2:]
        raw = np.array([uv[:, 0].min(), uv[:, 1].min(),
                        uv[:, 0].max(), uv[:, 1].max()])
        lo = np.array([-rig.u_half_extent, -rig.v_half_extent])
        hi = -lo
        clipped = np.clip(raw, np.concatenate([lo, lo]),
                          np.concatenate([hi, hi]))
        if clipped[0] >= clipped[2] or clipped[1] >= clipped[3]:
            continue
        valid = tuple(bool(abs(c - r) < 1e-12)
                      for c, r in zip(clipped, raw))
        if all(reference_occluded(v, x_cam.translation, boxes, j)
               for v in geom.box_vertices(box)):
            continue
        if rng.uniform() < noise.dropout_rate:
            continue
        edges = clipped.copy()
        for i in range(4):
            if valid[i]:
                edges[i] += rng.normal(0.0, noise.box_sigma)
        if edges[0] > edges[2] or edges[1] > edges[3]:
            continue
        vp = classify_viewpoint_world(x_cam, state)
        if rng.uniform() < noise.viewpoint_error_rate:
            shift = 1 if rng.uniform() < 0.5 else -1
            vp = Viewpoint((vp.horizontal + shift) % 8, vp.vertical)
        semantic.append(sim.SemanticMeasurement(
            obj.object_id, obj.label, BBox2D(*edges), vp,
            truncated=not all(valid), valid_edges=valid))

    features = []
    next_id = 0
    groups = [(0, scenario.background, None)]
    for j, obj in enumerate(scenario.objects):
        groups.append((obj.object_id, obj.states[t].pose.apply(obj.landmarks),
                       j))
    for anchor_id, pts, skip in groups:
        for p in pts:
            fid = next_id
            next_id += 1
            pl = x_cam.apply_inverse(p)
            pr = x_right.apply_inverse(p)
            if pl[2] <= geom.EPS_Z or pr[2] <= geom.EPS_Z:
                continue
            uvl = pl[:2] / pl[2]
            uvr = pr[:2] / pr[2]
            if not (reference_in_image(uvl, rig)
                    and reference_in_image(uvr, rig)):
                continue
            if (reference_occluded(p, x_cam.translation, boxes, skip)
                    or reference_occluded(p, x_right.translation, boxes,
                                          skip)):
                continue
            uvl = uvl + rng.normal(0.0, noise.feature_sigma, 2)
            uvr = uvr + rng.normal(0.0, noise.feature_sigma, 2)
            features.append(sim.FeatureObs(fid, anchor_id, uvl, uvr))
    return sim.FrameMeasurements(t * scenario.dt, tuple(semantic),
                                 tuple(features), noise.feature_sigma,
                                 noise.box_sigma)


class TestArraySynthesis:
    def occlusion_scene(self, background_n):
        config = base_config(n_frames=6)
        config["objects"] = [
            # a near car partly hiding a far one
            {"class": "car", "init": {"x": 0.5, "z": 9.0, "yaw": 0.3,
                                      "v": 2.0}},
            {"class": "car", "init": {"x": -0.5, "z": 22.0, "yaw": -0.4}},
            # one fully hidden behind the near car
            {"class": "pedestrian", "init": {"x": 0.6, "z": 30.0}},
            # a car straddling the left image border
            {"class": "car", "init": {"x": -9.0, "z": 10.0, "yaw": 0.0}},
        ]
        config["camera"] = {"start": [0.0, -1.0, 0.0], "speed": 3.0,
                            "yaw_rate": 0.05}
        config["landmarks"] = {"background_n": background_n,
                               "per_object_n": 150}
        config["noise"] = {"feature_sigma_px": 0.7, "box_sigma_px": 1.5,
                           "viewpoint_error_rate": 0.3,
                           "dropout_rate": 0.1, "seed": 13}
        return sim.generate_scenario(config, seed=12)

    @pytest.mark.parametrize("background_n", [0, 400])
    def test_matches_per_point_reference_bit_for_bit(self, background_n):
        scenario = self.occlusion_scene(background_n)
        truncated = partly_hidden = False
        for t in range(scenario.n_frames):
            got = sim.synthesize_frame(scenario, t)
            want = reference_synthesize_frame(scenario, t, scenario.noise)
            assert got.semantic == want.semantic
            ids = [(f.feature_id, f.anchor_id) for f in got.features]
            assert ids == [(f.feature_id, f.anchor_id)
                           for f in want.features]
            for a, b in zip(got.features, want.features):
                assert a.left.tobytes() == b.left.tobytes()
                assert a.right.tobytes() == b.right.tobytes()
            truncated |= any(s.truncated for s in got.semantic)
            # the far car shows a corner but none of its landmarks
            partly_hidden |= (2 in {s.object_id for s in got.semantic}
                              and 2 not in {f.anchor_id
                                            for f in got.features})
        # the scene exercises what it is meant to
        assert truncated and partly_hidden
        assert len(got.features) > 50

    def test_hidden_matches_reference_on_random_segments(self):
        rng = np.random.default_rng(14)
        boxes = [ObjectState(rng.normal(scale=2.0, size=3),
                             rng.uniform(-np.pi, np.pi),
                             rng.uniform(0.5, 3.0, 3)) for _ in range(3)]
        ref_boxes = [Box3D(b.position, b.yaw, b.dims) for b in boxes]
        points = rng.normal(scale=4.0, size=(500, 3))
        origin = rng.normal(scale=4.0, size=3)
        points[:50] = origin + (points[:50] - origin) * [1.0, 0.0, 0.0]
        for skip in (None, 1):
            got = sim._hidden(points, origin, boxes, skip)
            want = [reference_occluded(p, origin, ref_boxes, skip)
                    for p in points]
            assert got.tolist() == want
            assert 0 < got.sum() < len(points)


class TestHidden:
    # one 2 x 2 x 2 box at the origin, axis-aligned
    box = ObjectState(np.zeros(3), 0.0, np.full(3, 2.0))

    def hidden(self, origin, points, boxes=None):
        return sim._hidden(np.asarray(points, dtype=float),
                           np.asarray(origin, dtype=float),
                           [self.box] if boxes is None else boxes,
                           None).tolist()

    def test_axis_parallel_segments(self):
        # along x through the box, stopping short of it, beside it; along
        # z above it
        assert self.hidden([-5.0, 0.0, 0.0], [[5.0, 0.0, 0.0],
                                              [-2.0, 0.0, 0.0]]) == \
            [True, False]
        assert self.hidden([-5.0, 0.0, 1.5], [[5.0, 0.0, 1.5]]) == [False]
        assert self.hidden([0.0, -3.0, -5.0], [[0.0, -3.0, 5.0]]) == [False]
        # parallel to two slabs and inside both: only the third one counts
        assert self.hidden([0.0, 0.5, -5.0], [[0.0, 0.5, 5.0],
                                              [0.0, 0.5, -1.5]]) == \
            [True, False]

    def test_segments_ending_on_a_face(self):
        # a point on the near face is not hidden by its own box; a point on
        # the far face, or just past the near one, is
        assert self.hidden([-5.0, 0.2, 0.1], [[-1.0, 0.2, 0.1],
                                              [1.0, 0.2, 0.1],
                                              [-0.999, 0.2, 0.1]]) == \
            [False, True, True]
        # a segment that only grazes an edge of the box at its end
        assert self.hidden([-5.0, -3.0, 0.0], [[-1.0, -1.0, 0.0]]) == \
            [False]

    def test_skip_and_no_boxes(self):
        points = [[5.0, 0.0, 0.0]]
        assert sim._hidden(np.asarray(points), np.array([-5.0, 0.0, 0.0]),
                           [self.box], 0).tolist() == [False]
        assert self.hidden([-5.0, 0.0, 0.0], points, boxes=[]) == [False]
        assert self.hidden([-5.0, 0.0, 0.0], np.empty((0, 3))) == []


class TestSerialization:
    def test_round_trip(self, tmp_path):
        scenario = sim.generate_scenario(base_config(), seed=11)
        frames = sim.synthesize_all(scenario)
        path = tmp_path / "log.jsonl"
        sim.write_measurements(path, frames)
        back = sim.read_measurements(path)
        assert len(back) == len(frames)
        for a, b in zip(frames, back):
            assert sim.frame_to_dict(a) == sim.frame_to_dict(b)

    def test_written_files_byte_identical(self, tmp_path):
        scenario = sim.generate_scenario(base_config(), seed=11)
        frames = sim.synthesize_all(scenario)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        sim.write_measurements(p1, frames)
        sim.write_measurements(p2, frames)
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_feature_ids_rejected(self):
        obs = sim.FeatureObs(1, 0, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            sim.FrameMeasurements(0.0, (), (obs, obs))
