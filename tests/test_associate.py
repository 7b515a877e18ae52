"""Tests for box-similarity association and RANSAC."""

import sys
from pathlib import Path

import numpy as np
import pytest

import ransac_reference as reference
from semtrack import associate as assoc
from semtrack import simulate as sim
from semtrack.boxinfer import BBox2D
from semtrack.errors import DegenerateGroup
from semtrack.geometry import Pose, rot_y

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402


def scenario_fixture(seed=6, **overrides):
    config = {
        "n_frames": 10,
        "objects": [
            {"class": "car",
             "init": {"x": 3.0, "z": 18.0, "yaw": 0.2, "v": 5.0}},
        ],
        "noise": {"seed": seed},
    }
    config.update(overrides)
    return sim.generate_scenario(config, seed=seed)


class TestBoxSimilarity:
    def test_identical_boxes_score_one(self):
        box = BBox2D(-0.1, -0.05, 0.1, 0.05)
        assert assoc.box_similarity(box, box) == pytest.approx(1.0)
        assert assoc.box_similarity(box, box, np.eye(3)) == pytest.approx(1.0)

    def test_score_decays_with_center_distance(self):
        a = BBox2D(-0.1, -0.05, 0.1, 0.05)
        scores = []
        for shift in (0.0, 0.05, 0.2, 0.8):
            b = BBox2D(-0.1 + shift, -0.05, 0.1 + shift, 0.05)
            scores.append(assoc.box_similarity(a, b))
        assert scores == sorted(scores, reverse=True)
        assert scores[-1] < 1e-4

    def test_rotation_compensation_exact_for_pure_rotation(self):
        # static far object, camera yaws between frames: warped score = 1
        scenario = scenario_fixture()
        state = scenario.objects[0].states[0]
        far = state.replace(position=np.array([2.0, state.position[1], 55.0]),
                            speed=0.0)
        dyaw = 0.03
        cam0 = Pose.identity()
        cam1 = Pose(rot_y(dyaw), np.zeros(3))
        from semtrack import geometry as geom
        from semtrack.boxinfer import tight_bbox
        from semtrack.geometry import Box3D
        box_w = Box3D(far.position, far.yaw, far.dims)
        bb0 = tight_bbox(Box3D(cam0.apply_inverse(box_w.center), box_w.yaw,
                               box_w.dims))
        verts1 = cam1.apply_inverse(geom.box_vertices(box_w))
        uv1 = geom.project(verts1)
        bb1 = BBox2D(uv1[:, 0].min(), uv1[:, 1].min(),
                     uv1[:, 0].max(), uv1[:, 1].max())
        rot_rel = cam1.rotation.T @ cam0.rotation
        score = assoc.box_similarity(bb0, bb1, rot_rel)
        assert score > 0.95  # residual is the box-shape change only

    def test_score_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = rng.uniform(-0.3, 0.3, 4)
            a = BBox2D(c[0], c[1], c[0] + abs(c[2]) + 0.01,
                       c[1] + abs(c[3]) + 0.01)
            d = rng.uniform(-0.3, 0.3, 4)
            b = BBox2D(d[0], d[1], d[0] + abs(d[2]) + 0.01,
                       d[1] + abs(d[3]) + 0.01)
            assert 0.0 <= assoc.box_similarity(a, b) <= 1.0


class TestAssociateObjects:
    def test_single_pair_matched(self):
        box = BBox2D(-0.1, -0.05, 0.1, 0.05)
        near = BBox2D(-0.098, -0.05, 0.102, 0.05)
        matches, lost, new = assoc.associate_objects({1: box}, {7: near})
        assert matches == {1: 7} and not lost and not new

    def test_missing_current_is_lost(self):
        box = BBox2D(-0.1, -0.05, 0.1, 0.05)
        matches, lost, new = assoc.associate_objects({1: box}, {})
        assert matches == {} and lost == {1} and new == set()

    def test_sub_threshold_is_lost_and_new(self):
        a = BBox2D(-0.3, -0.1, -0.2, 0.0)
        b = BBox2D(0.2, 0.0, 0.3, 0.1)
        matches, lost, new = assoc.associate_objects({1: a}, {2: b})
        assert matches == {} and lost == {1} and new == {2}

    def test_order_invariance_with_tie_break(self):
        box = BBox2D(-0.1, -0.05, 0.1, 0.05)
        prev = {2: box, 1: box}
        cur = {9: box, 4: box}
        matches, _, _ = assoc.associate_objects(prev, cur)
        # identical scores: lowest prev id takes lowest cur id
        assert matches == {1: 4, 2: 9}

    def test_no_identity_swaps_across_simulated_track(self):
        scenario = scenario_fixture(n_frames=15, objects=[
            {"class": "car", "init": {"x": 3.0, "z": 18.0, "yaw": 0.2,
                                      "v": 4.0}},
            {"class": "car", "init": {"x": -4.0, "z": 30.0, "yaw": -0.2,
                                      "v": 3.0}},
        ])
        frames = [sim.synthesize_frame(scenario, t, sim.NoiseSpec.zero())
                  for t in range(scenario.n_frames)]
        for prev, cur, t in zip(frames, frames[1:], range(1, 15)):
            prev_boxes = {s.object_id: s.box for s in prev.semantic}
            cur_boxes = {s.object_id: s.box for s in cur.semantic}
            rot_rel = (scenario.camera[t].rotation.T
                       @ scenario.camera[t - 1].rotation)
            matches, _, _ = assoc.associate_objects(prev_boxes, cur_boxes,
                                                    rot_rel)
            for pid, cid in matches.items():
                assert pid == cid


class TestRejectOutliers:
    def rigid_pairs(self, n, noise_sigma, rng):
        # points on a rigid scene viewed from two nearby camera poses
        pts = rng.uniform([-10, -4, 8], [10, 0, 50], size=(n, 3))
        cam0 = Pose.identity()
        cam1 = Pose(rot_y(0.02), np.array([0.3, 0.0, 0.8]))
        p0 = cam0.apply_inverse(pts)
        p1 = cam1.apply_inverse(pts)
        uv0 = p0[:, :2] / p0[:, 2:]
        uv1 = p1[:, :2] / p1[:, 2:]
        uv0 += rng.normal(0.0, noise_sigma, uv0.shape)
        uv1 += rng.normal(0.0, noise_sigma, uv1.shape)
        return uv0, uv1

    def test_noise_free_group_all_inliers(self):
        rng = np.random.default_rng(5)
        uv0, uv1 = self.rigid_pairs(60, 0.0, rng)
        mask, passthrough = assoc.reject_outliers(uv0, uv1,
                                                  feature_sigma=0.0, seed=1)
        assert not passthrough
        assert mask.all()

    def test_small_group_passes_through(self):
        rng = np.random.default_rng(6)
        uv0, uv1 = self.rigid_pairs(7, 0.0, rng)
        mask, passthrough = assoc.reject_outliers(uv0, uv1, seed=1)
        assert passthrough and mask.all() and len(mask) == 7

    def test_injected_mismatches_removed(self):
        sigma = 0.5 / 700.0
        kept_true = removed_bad = total_true = total_bad = 0
        for trial in range(100):
            rng = np.random.default_rng(100 + trial)
            uv0, uv1 = self.rigid_pairs(80, sigma, rng)
            n_bad = 24
            bad_idx = rng.choice(80, size=n_bad, replace=False)
            uv1[bad_idx] = rng.uniform(-0.5, 0.5, size=(n_bad, 2))
            mask, _ = assoc.reject_outliers(uv0, uv1, feature_sigma=sigma,
                                            seed=trial)
            good = np.ones(80, dtype=bool)
            good[bad_idx] = False
            kept_true += int(mask[good].sum())
            total_true += int(good.sum())
            removed_bad += int((~mask[~good]).sum())
            total_bad += n_bad
        assert kept_true / total_true >= 0.95
        assert removed_bad / total_bad >= 0.90

    def test_degenerate_group_raises(self):
        # all points identical: every 8-point sample is rank-deficient
        uv = np.zeros((10, 2))
        with pytest.raises(DegenerateGroup):
            assoc.reject_outliers(uv, uv, seed=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assoc.reject_outliers(np.zeros((9, 2)), np.zeros((8, 2)))

    def test_refit_collapse_keeps_the_consensus(self):
        # highway_long seed 13, frame 37: the first refit of the 233-pair
        # consensus of 284 keeps 6 pairs, and that mask used to be
        # returned; now the consensus is
        _, scenario = workloads.build_scenario("highway_long", 13)
        prev_frame = sim.synthesize_frame(scenario, 36)
        frame = sim.synthesize_frame(scenario, 37)
        prev = {f.feature_id: f.left for f in prev_frame.features
                if f.anchor_id == 0}
        pairs = [(prev[f.feature_id], f.left) for f in frame.features
                 if f.anchor_id == 0 and f.feature_id in prev]
        uv0, uv1 = (np.array(side) for side in zip(*pairs))
        mask, passthrough = assoc.reject_outliers(uv0, uv1, seed=37)
        assert not passthrough
        assert mask.sum() >= 0.8 * len(pairs)


class TestStackedRansac:
    """``reject_outliers`` evaluates its hypotheses in stacks; the masks
    must be those of the sequential reference, sample for sample."""

    def group(self, rng):
        n = int(rng.integers(8, 301))
        sigma = 0.5 / 700.0
        uv0, uv1 = TestRejectOutliers().rigid_pairs(n, sigma, rng)
        n_bad = int(rng.uniform(0.0, 0.4) * n)
        bad = rng.choice(n, size=n_bad, replace=False)
        uv1[bad] = rng.uniform(-0.5, 0.5, size=(n_bad, 2))
        if rng.random() < 0.2:
            # copies of one pair make many samples rank-deficient
            copies = rng.choice(n, size=int(rng.uniform(0.3, 0.7) * n),
                                replace=False)
            uv0[copies], uv1[copies] = uv0[copies[0]], uv1[copies[0]]
        return uv0, uv1, sigma

    def test_masks_equal_the_sequential_reference(self):
        draws = []
        for trial in range(200):
            rng = np.random.default_rng(1000 + trial)
            uv0, uv1, sigma = self.group(rng)
            got = assoc.reject_outliers(uv0, uv1, feature_sigma=sigma,
                                        seed=trial)
            want = reference.reject_outliers(uv0, uv1, feature_sigma=sigma,
                                             seed=trial, draws=draws)
            assert np.array_equal(got[0], want[0]), trial
            assert got[1] == want[1]
        # the searches ended after one stack, after several, and within
        # a stack as well as at its end
        stack = assoc.RANSAC_STACK
        assert min(draws) < stack < max(draws)
        assert any(d % stack for d in draws if d > stack)
        assert any(d % stack == 0 for d in draws)

    def test_rank_deficient_samples_are_skipped(self):
        # 9 of 12 pairs are one point: most samples are rank-deficient,
        # and both searches skip the same ones
        rng = np.random.default_rng(7)
        uv0, uv1 = TestRejectOutliers().rigid_pairs(12, 0.0, rng)
        uv0[3:], uv1[3:] = uv0[3], uv1[3]
        for seed in range(20):
            try:
                want = reference.reject_outliers(uv0, uv1, seed=seed)
            except DegenerateGroup:
                with pytest.raises(DegenerateGroup):
                    assoc.reject_outliers(uv0, uv1, seed=seed)
                continue
            got = assoc.reject_outliers(uv0, uv1, seed=seed)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_passthrough_and_degenerate_groups_match(self):
        uv = np.random.default_rng(3).uniform(-0.5, 0.5, (7, 2))
        got = assoc.reject_outliers(uv, uv, seed=2)
        want = reference.reject_outliers(uv, uv, seed=2)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        for fn in (assoc.reject_outliers, reference.reject_outliers):
            with pytest.raises(DegenerateGroup):
                fn(np.zeros((10, 2)), np.zeros((10, 2)), seed=0)


class TestEightPoint:
    @pytest.mark.parametrize("n", [8, 900])
    def test_matches_full_svd(self, n, monkeypatch):
        # the thin SVD is used from 9 rows on; an 8-row thin vt lacks the
        # null vector, so the minimal sample must keep the full form
        rng = np.random.default_rng(n)
        uv0, uv1 = TestRejectOutliers().rigid_pairs(n, 1e-3, rng)
        # one stacked sample
        f_mat, deficient = assoc._eight_point_batch(uv0[None], uv1[None])
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, full_matrices=True: svd(a))
        f_ref, ref_deficient = assoc._eight_point_batch(uv0[None], uv1[None])
        assert deficient.tolist() == ref_deficient.tolist() == [False]
        assert np.allclose(f_mat[0], f_ref[0], rtol=0.0,
                           atol=1e-12 * np.abs(f_ref).max())
