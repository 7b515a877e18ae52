"""Tests for viewpoint classification, the edge-vertex selection table and
single-box pose inference."""

import numpy as np
import pytest

from viewpoints import (REFERENCE_VIEWPOINT, camera_viewpoint,
                        sample_camera_frame_box,
                        sample_viewpoint_config)

from semtrack import geometry as geom
from semtrack import boxinfer as bi
from semtrack.errors import DegenerateGeometry, NoConvergence
from semtrack.geometry import Box3D, ObjectState, Pose, rot_y, wrap_angle


class TestClassifyViewpoint:
    def test_sector_centers(self):
        # camera straight ahead of the object (+x in the object frame) is
        # sector 0; sectors increase toward the object's left (+z)
        dims = np.array([3.9, 1.6, 1.7])
        for h in range(8):
            az = h * np.pi / 4.0
            q = 20.0 * np.array([np.cos(az), 0.0, np.sin(az)])
            vp = bi._classify_from_camera_position(q, dims)
            assert vp.horizontal == h
            assert vp.vertical == 0

    def test_sector_boundaries_at_22_5_degrees(self):
        dims = np.array([3.9, 1.6, 1.7])
        for eps, expected in ((-1e-6, 0), (1e-6, 1)):
            az = np.deg2rad(22.5) + eps
            q = 20.0 * np.array([np.cos(az), 0.0, np.sin(az)])
            assert bi._classify_from_camera_position(q, dims).horizontal == expected

    def test_vertical_class_threshold_is_roof_plane(self):
        dims = np.array([3.9, 1.6, 1.7])
        q_level = np.array([15.0, -dims[1] / 2 + 1e-6, 0.0])
        q_above = np.array([15.0, -dims[1] / 2 - 1e-6, 0.0])
        assert bi._classify_from_camera_position(q_level, dims).vertical == 0
        assert bi._classify_from_camera_position(q_above, dims).vertical == 1

    def test_camera_and_world_classifications_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            vp = bi.Viewpoint(int(rng.integers(0, 8)), int(rng.integers(0, 2)))
            box = sample_camera_frame_box(vp, rng, verify=False)
            state = ObjectState(box.center, box.yaw, box.dims)
            # level camera at the origin, expressed as a world pose
            assert bi.classify_viewpoint_world(Pose.identity(), state) == vp

    def test_world_classification_ignores_camera_orientation(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            vp = bi.Viewpoint(int(rng.integers(0, 8)), int(rng.integers(0, 2)))
            x_cam, state = sample_viewpoint_config(vp, rng)
            assert bi.classify_viewpoint_world(x_cam, state) == vp

    def test_viewpoint_validation(self):
        with pytest.raises(ValueError):
            bi.Viewpoint(8, 0)
        with pytest.raises(ValueError):
            bi.Viewpoint(0, 2)


class TestSelectionTable:
    def test_reference_entry_frozen(self):
        # frozen expected value for the rear-left, looking-down viewpoint
        sel = bi.selection_set(REFERENCE_VIEWPOINT)
        expected = np.array([
            [1.0, 1.0, 1.0],
            [-1.0, 1.0, -1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, 1.0],
        ])
        assert np.array_equal(sel.signs, expected)

    def test_row_structure(self):
        for v in (0, 1):
            for h in range(8):
                sel = bi.selection_set(bi.Viewpoint(h, v))
                # u rows normalized to bottom vertices
                assert sel.signs[0, 1] == 1.0 and sel.signs[1, 1] == 1.0
                # upper 2D edge from a roof vertex, lower from a floor vertex
                assert sel.signs[2, 1] == -1.0
                assert sel.signs[3, 1] == 1.0
                # the two u rows use distinct horizontal corners
                assert np.any(sel.signs[0, [0, 2]] != sel.signs[1, [0, 2]])

    def test_vertex_offsets(self):
        sel = bi.selection_set(bi.Viewpoint(5, 1))
        dims = np.array([4.0, 2.0, 1.0])
        offsets = sel.vertex_offsets(dims)
        assert np.allclose(offsets, sel.signs * dims / 2.0)

    def test_selected_vertices_attain_extremes(self):
        # the core tightness property: within the validity regime the
        # brute-force extreme projected vertex is the selected vertex
        rng = np.random.default_rng(23)
        for _ in range(400):
            vp = bi.Viewpoint(int(rng.integers(0, 8)), int(rng.integers(0, 2)))
            box = sample_camera_frame_box(vp, rng, verify=False)
            idx = bi.brute_force_extremes_camera(box)
            signs = geom.VERTEX_SIGNS[list(idx)].copy()
            signs[0, 1] = signs[1, 1] = 1.0
            assert np.array_equal(signs, bi.selection_set(vp).signs), vp

    def test_selection_set_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            bi.SelectionSet(np.zeros((4, 3)))


class TestTightBBox:
    def test_known_axis_aligned_box(self):
        box = Box3D(np.array([0.0, 0.0, 10.0]), 0.0,
                    np.array([2.0, 2.0, 2.0]))
        bb = bi.tight_bbox(box)
        # near face at z=9, half extent 1 -> widest edges at 1/9
        assert bb.u_max == pytest.approx(1.0 / 9.0)
        assert bb.u_min == pytest.approx(-1.0 / 9.0)
        assert bb.v_max == pytest.approx(1.0 / 9.0)

    def test_contains_all_vertices(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            vp = bi.Viewpoint(int(rng.integers(0, 8)), int(rng.integers(0, 2)))
            box = sample_camera_frame_box(vp, rng, verify=False)
            bb = bi.tight_bbox(box)
            uv = geom.project(geom.box_vertices(box))
            assert np.all(uv[:, 0] >= bb.u_min - 1e-12)
            assert np.all(uv[:, 0] <= bb.u_max + 1e-12)
            assert np.all(uv[:, 1] >= bb.v_min - 1e-12)
            assert np.all(uv[:, 1] <= bb.v_max + 1e-12)


class TestInferPose:
    def test_known_pose_from_tangency_box(self):
        # fixed worked example: box built from the selected vertices only
        p = np.array([2.0, 1.0, 15.0])
        theta = 0.3
        dims = np.array([4.0, 1.6, 1.8])
        box3 = Box3D(p, theta, dims)
        vp = camera_viewpoint(box3)
        sel = bi.selection_set(vp)
        verts = p + sel.vertex_offsets(dims) @ rot_y(theta).T
        uv = geom.project(verts)
        bb = bi.BBox2D(uv[0, 0], uv[2, 1], uv[1, 0], uv[3, 1])
        p_hat, theta_hat, residual = bi.infer_pose(bb, vp, dims)
        assert np.linalg.norm(p_hat - p) < 1e-3
        assert abs(wrap_angle(theta_hat - theta)) < 1e-3
        assert residual < 1e-8

    def test_round_trip_over_regimes(self):
        rng = np.random.default_rng(25)
        for _ in range(150):
            vp = bi.Viewpoint(int(rng.integers(0, 8)), int(rng.integers(0, 2)))
            box3 = sample_camera_frame_box(vp, rng)
            bb = bi.tight_bbox(box3)
            p_hat, theta_hat, residual = bi.infer_pose(bb, vp, box3.dims)
            assert np.linalg.norm(p_hat - box3.center) < 1e-6
            assert abs(wrap_angle(theta_hat - box3.yaw)) < 1e-6
            assert residual < 1e-8

    def test_on_axis_symmetric_box_centered_horizontally(self):
        # object dead ahead, seen exactly broadside: the inferred center
        # must sit on the box's horizontal midline
        dims = np.array([3.9, 1.6, 1.7])
        box3 = Box3D(np.array([0.0, 0.4, 20.0]), 0.0, dims)
        vp = camera_viewpoint(box3)
        bb = bi.tight_bbox(box3)
        p_hat, _, _ = bi.infer_pose(bb, vp, dims)
        assert abs(p_hat[0] / p_hat[2]
                   - (bb.u_min + bb.u_max) / 2.0) < 1e-6

    def test_zero_size_box_rejected(self):
        dims = np.array([3.9, 1.6, 1.7])
        flat = bi.BBox2D(-0.1, 0.0, 0.1, 0.0)
        with pytest.raises(DegenerateGeometry):
            bi.infer_pose(flat, bi.Viewpoint(0, 0), dims)

    def test_candidates_sorted_and_contain_best(self):
        rng = np.random.default_rng(26)
        vp = bi.Viewpoint(1, 0)
        box3 = sample_camera_frame_box(vp, rng)
        bb = bi.tight_bbox(box3)
        roots = bi.infer_pose_candidates(bb, vp, box3.dims)
        devs = [r[3] for r in roots]
        assert devs == sorted(devs)
        p_hat, theta_hat, residual = bi.infer_pose(bb, vp, box3.dims)
        assert np.allclose(p_hat, roots[0][0])

    def test_inferred_residual_zero_on_noise_free_input(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            vp = bi.Viewpoint(int(rng.integers(0, 8)), int(rng.integers(0, 2)))
            box3 = sample_camera_frame_box(vp, rng)
            _, _, residual = bi.infer_pose(bi.tight_bbox(box3), vp, box3.dims)
            assert residual < 1e-8


class TestRefine:
    """The refinement behind :func:`boxinfer.infer_pose`: one
    :func:`nls.solve_nls` block per start."""

    def problem(self):
        # a box whose edges the selected vertices touch: an exact root
        dims = np.array([3.9, 1.6, 1.7])
        box3 = Box3D(np.array([2.0, 0.7, 18.0]), 0.4, dims)
        vp = camera_viewpoint(box3)
        sel = bi.selection_set(vp)
        uv = geom.project(box3.center
                          + sel.vertex_offsets(dims) @ rot_y(box3.yaw).T)
        box = bi.BBox2D(uv[0, 0], uv[2, 1], uv[1, 0], uv[3, 1])
        return box, vp, dims, box3

    def test_start_behind_camera_is_never_a_candidate(self, monkeypatch):
        box, vp, dims, box3 = self.problem()
        starts = np.array([[*box3.center, box3.yaw],
                           [0.0, 0.7, 0.5, 0.4]])  # the box around the camera
        monkeypatch.setattr(bi, "_grid_candidates",
                            lambda *args: (starts, np.zeros(2)))
        roots = bi.infer_pose_candidates(box, vp, dims)
        assert len(roots) == 1
        p, theta, residual, _ = roots[0]
        assert np.allclose([*p, theta], starts[0], rtol=0.0, atol=1e-9)
        assert residual < 1e-10
        # alone, it leaves no candidate at all
        monkeypatch.setattr(bi, "_grid_candidates",
                            lambda *args: (starts[1:], np.zeros(1)))
        with pytest.raises(NoConvergence):
            bi.infer_pose_candidates(box, vp, dims)


class TestPriors:
    def test_default_priors_present(self):
        assert set(bi.DEFAULT_PRIORS) == {"car", "pedestrian"}
        car = bi.DEFAULT_PRIORS["car"]
        assert np.all(car.mean > 0) and np.all(car.sigma > 0)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            bi.DimensionPrior("bad", (1.0, -1.0, 1.0), (0.1, 0.1, 0.1))
