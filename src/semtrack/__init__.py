"""Stereo-vision tracking of camera ego-motion and 3D semantic objects.

The library couples a closed-form 3D box inference from 2D detections and
viewpoint classes, sliding-window bundle adjustment for the ego camera,
per-object dynamic bundle adjustment with a kinematic vehicle model, and a
synthetic scene simulator plus evaluation metrics to verify the whole
pipeline without images.
"""

from .geometry import (Box3D, ObjectState, Pose, StereoRig, box_vertices,
                       face_offsets, project)
from .boxinfer import (BBox2D, DEFAULT_PRIORS, DimensionPrior, SelectionSet,
                       Viewpoint, classify_viewpoint_world, infer_pose,
                       infer_pose_candidates, selection_set, tight_bbox)
from .simulate import (FrameMeasurements, NoiseSpec, Scenario,
                       generate_scenario, propagate_object, read_measurements,
                       synthesize_all, synthesize_frame, write_measurements)
from .associate import associate_objects, box_similarity, reject_outliers
from .estimator import (EstimatorConfig, FeatureRows, ObjectTrack,
                        SemanticRows, WindowTracker, align_point_cloud,
                        align_point_clouds, feature_rows, semantic_rows,
                        solve_ego, solve_object, solve_objects)
from .metrics import (DetectionRecord, Trajectory, ap_and_error_curves,
                      ate_rmse, iou_3d, iou_bev, rpe)
from .pipeline import run_pipeline

__all__ = [
    "Box3D", "ObjectState", "Pose", "StereoRig", "box_vertices",
    "face_offsets", "project",
    "BBox2D", "DEFAULT_PRIORS", "DimensionPrior", "SelectionSet", "Viewpoint",
    "classify_viewpoint_world", "infer_pose", "infer_pose_candidates",
    "selection_set", "tight_bbox",
    "FrameMeasurements", "NoiseSpec", "Scenario", "generate_scenario",
    "propagate_object", "read_measurements", "synthesize_all",
    "synthesize_frame", "write_measurements",
    "associate_objects", "box_similarity", "reject_outliers",
    "EstimatorConfig", "FeatureRows", "ObjectTrack", "SemanticRows",
    "WindowTracker", "align_point_cloud", "align_point_clouds",
    "feature_rows", "semantic_rows", "solve_ego", "solve_object",
    "solve_objects",
    "DetectionRecord", "Trajectory", "ap_and_error_curves", "ate_rmse",
    "iou_3d", "iou_bev", "rpe",
    "run_pipeline",
]

__version__ = "0.1.0"
