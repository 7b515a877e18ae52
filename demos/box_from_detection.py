"""Recover a 3D box from a single 2D detection plus a viewpoint class.

Walks the closed-form inference end to end: place a car in front of the
camera, project its tight 2D box, classify the viewpoint, then invert
the four edge-vertex constraints and compare against the truth.
"""

import numpy as np

from semtrack import (DEFAULT_PRIORS, Box3D, ObjectState, Pose,
                      classify_viewpoint_world, infer_pose,
                      infer_pose_candidates, selection_set, tight_bbox)

# a camera-frame car inside the validity regime of the rear-left diagonal
# view, seen level: there the selected vertices really attain the 2D
# extremes, which is what makes the constraints invertible
dims = DEFAULT_PRIORS["car"].mean
truth = Box3D(
    [-1.9339937110565084, -0.021455785458998844, 49.237192657404314],
    -2.185844783958137, dims)
print("ground truth")
print(f"  center {truth.center}, yaw {truth.yaw:.3f}, dims {truth.dims}")

bb = tight_bbox(truth)
# the camera is level at the origin, so its pose is the identity
vp = classify_viewpoint_world(Pose.identity(),
                              ObjectState(truth.center, truth.yaw, truth.dims))
print("\nmeasurement")
print(f"  2D box (u_min, v_min, u_max, v_max) = {np.round(bb.as_array(), 4)}")
print(f"  viewpoint class: horizontal {vp.horizontal}, vertical {vp.vertical}")

sel = selection_set(vp)
print("\nvertex selection for this viewpoint (sign rows for the")
print("u_min, u_max, v_min, v_max edges):")
print(sel.signs)

p_hat, yaw_hat, residual = infer_pose(bb, vp, dims)
print("\ninferred pose")
print(f"  center {np.round(p_hat, 6)}  (error "
      f"{np.linalg.norm(p_hat - truth.center):.2e} m)")
print(f"  yaw {yaw_hat:.6f}  (error {abs(yaw_hat - truth.yaw):.2e} rad)")
print(f"  constraint residual {residual:.2e}")

print("\nall refined candidate roots (position, yaw, residual, tightness):")
for p, th, r, dev in infer_pose_candidates(bb, vp, dims):
    print(f"  p={np.round(p, 3)}  yaw={th:+.3f}  res={r:.1e}  dev={dev:.1e}")
