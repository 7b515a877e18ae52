"""Rasterization oracle for oriented box IoU, shared by test modules."""

import numpy as np

from semtrack.geometry import rot_y


def _footprint_mask(points, box):
    """Boolean mask of 2D points (x, z) inside the box footprint."""
    rot = box.rotation if hasattr(box, "rotation") else rot_y(box.yaw)
    head = np.array([rot[0, 0], rot[2, 0]])
    lat = np.array([rot[0, 2], rot[2, 2]])
    rel = points - np.array([box.center[0], box.center[2]])
    u = rel @ head
    w = rel @ lat
    return (np.abs(u) <= box.dims[0] / 2.0) & (np.abs(w) <= box.dims[2] / 2.0)


def _grid(a, b, resolution):
    """Cell-center sample points covering both footprints."""
    centers = np.array([[a.center[0], a.center[2]],
                        [b.center[0], b.center[2]]])
    radii = np.array([np.hypot(a.dims[0], a.dims[2]),
                      np.hypot(b.dims[0], b.dims[2])]) / 2.0
    lo = (centers - radii[:, None]).min(axis=0)
    hi = (centers + radii[:, None]).max(axis=0)
    xs = lo[0] + (np.arange(resolution) + 0.5) * (hi[0] - lo[0]) / resolution
    zs = lo[1] + (np.arange(resolution) + 0.5) * (hi[1] - lo[1]) / resolution
    gx, gz = np.meshgrid(xs, zs)
    cell_area = ((hi[0] - lo[0]) / resolution) * ((hi[1] - lo[1]) / resolution)
    return np.column_stack([gx.ravel(), gz.ravel()]), cell_area


def raster_iou(a, b, resolution=1000):
    """Oracle (BEV IoU, 3D IoU) of two boxes from one grid: footprints
    counted on a regular grid, the vertical overlap analytic."""
    points, cell_area = _grid(a, b, resolution)
    in_a = _footprint_mask(points, a)
    in_b = _footprint_mask(points, b)
    n_inter = np.count_nonzero(in_a & in_b)
    n_union = np.count_nonzero(in_a | in_b)
    bev = n_inter / n_union if n_union else 0.0
    inter_area = n_inter * cell_area
    area_a = np.count_nonzero(in_a) * cell_area
    area_b = np.count_nonzero(in_b) * cell_area
    lo = max(a.center[1] - a.dims[1] / 2.0, b.center[1] - b.dims[1] / 2.0)
    hi = min(a.center[1] + a.dims[1] / 2.0, b.center[1] + b.dims[1] / 2.0)
    overlap = max(hi - lo, 0.0)
    inter = inter_area * overlap
    union = area_a * a.dims[1] + area_b * b.dims[1] - inter
    return bev, (inter / union if union > 0 else 0.0)


def random_box_pair(rng, allow_disjoint=True):
    """Seeded pair of nearby oriented boxes for oracle comparisons."""
    from semtrack.geometry import Box3D

    center = rng.uniform([-5.0, -2.0, 5.0], [5.0, 0.0, 40.0])
    dims = rng.uniform([2.5, 1.2, 1.4], [5.5, 2.2, 2.4])
    yaw = rng.uniform(-np.pi, np.pi)
    a = Box3D(center=center, dims=dims, yaw=yaw)
    spread = 3.0 if allow_disjoint else 1.0
    offset = rng.uniform(-spread, spread, size=3) * np.array([1.0, 0.4, 1.0])
    b = Box3D(center=center + offset,
              dims=rng.uniform([2.5, 1.2, 1.4], [5.5, 2.2, 2.4]),
              yaw=yaw + rng.uniform(-np.pi / 2, np.pi / 2))
    return a, b
