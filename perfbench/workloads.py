"""Seeded simulator drives for the benchmark.

Every drive follows a circular road: the camera starts at the origin
heading +z and turns right at a constant rate, so the road centre is the
circle of radius ``radius_m`` about (radius_m, 0) in the ground plane.
The static background is a band of landmarks along that road which runs
a quarter turn past the end of the drive.  A point on the circle a
central angle phi ahead is seen at bearing phi / 2, so the part of the
band in view is the same from every frame and the per-frame load stays
even over the stream.  (The simulator's own landmark box is
axis-aligned around the camera path: a straight drive sees ever fewer
points as it nears the end of the box, and a turning one leaves it.)

Cars keep their lane by steering to the lane's curvature; their speed
is the camera's angular rate in their lane plus a set offset, so some
fall behind and leave the view.  Every car is first seen where box
inference from one detection converges: about straight ahead along its
heading, or 24 to 38 degrees off it on the camera's left.  The seed
draws the background landmarks, the points on each car and all
measurement noise.  Car places and speeds are fixed, so that every seed
asks for about the same work (occlusion tests and solver effort follow
where the cars are) and run-to-run spread stays small.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from semtrack import simulate as sim
from semtrack.simulate import CAR_WHEELBASE_RATIO

CAR_LENGTH = 3.9  # DEFAULT_PRIORS["car"] length, which sets the wheelbase
N_FRAMES = 100
DT = 0.1


# name -> drive parameters.  ``cars`` rows are (lane offset to the right
# in m, arc distance ahead in m, speed relative to the camera's lane
# speed in m/s).
WORKLOADS = {
    "highway_long": {
        "why": "fast gentle curve, dense static background, one car that "
               "falls behind: RANSAC and ego BA over hundreds of pairs",
        "speed": 20.0, "radius_m": 400.0, "window": 10,
        "background_per_m": 0.5, "per_object_n": 12,
        "cars": [(-10.0, 18.0, -3.0)],
        "noise": {"feature_sigma_px": 0.5, "box_sigma_px": 1.0},
    },
    "dense_traffic": {
        "why": "four cars with anchored points on a tight curve, three or "
               "four in view: object BA and alignment dominate",
        "speed": 10.0, "radius_m": 80.0, "window": 5,
        "background_per_m": 1.0, "per_object_n": 16,
        "cars": [(2.5, 20.0, 0.0), (-7.0, 18.0, -2.0), (-7.0, 40.0, -2.0),
                 (-12.0, 40.0, -3.5)],
        "noise": {"feature_sigma_px": 0.5, "box_sigma_px": 1.0},
    },
}

BAND_HALF_WIDTH = 25.0  # lateral extent of the background band (m)
BAND_HEIGHT = (-7.5, 0.0)  # world y range of background points (y down)


def _road_point(radius, arc, lane):
    """Ground-plane (x, z) and heading angle of a lane point on the road."""
    psi = arc / radius
    r = radius - lane
    return radius - r * math.cos(psi), r * math.sin(psi), psi


def _car(radius, lane, arc, speed):
    x, z, psi = _road_point(radius, arc, lane)
    steer = math.atan(CAR_WHEELBASE_RATIO * CAR_LENGTH / (radius - lane))
    return {"class": "car",
            "init": {"x": x, "z": z, "yaw": psi - math.pi / 2,
                     "v": speed, "steer": steer}}


def scenario_config(name, seed):
    """Run config (as ``semtrack eval`` reads it) for one workload."""
    spec = WORKLOADS[name]
    radius, speed = spec["radius_m"], spec["speed"]
    objects = []
    for lane, ahead, dv in spec["cars"]:
        # the camera's angular rate in the car's lane, plus its own offset
        v = speed * (radius - lane) / radius + dv
        objects.append(_car(radius, lane, ahead, v))
    noise = dict(spec["noise"], seed=int(seed))
    return {
        "seed": int(seed),
        "scenario": {
            "n_frames": N_FRAMES, "dt_s": DT,
            "camera": {"speed": speed, "yaw_rate": speed / radius},
            "landmarks": {"background_n": 0,
                          "per_object_n": spec["per_object_n"]},
            "objects": objects,
            "noise": noise,
        },
        "estimator": {"window": spec["window"]},
        "evaluation": {"rpe_step": 1},
    }


def background_band(name, seed):
    """World-frame background landmarks (N, 3) along the workload's road."""
    spec = WORKLOADS[name]
    radius = spec["radius_m"]
    arc_lo = -20.0
    arc_hi = spec["speed"] * DT * N_FRAMES + radius * math.pi / 2.0
    count = int(round(spec["background_per_m"] * (arc_hi - arc_lo)))
    rng = np.random.default_rng([seed, 2])
    arc = rng.uniform(arc_lo, arc_hi, count)
    lane = rng.uniform(-BAND_HALF_WIDTH, BAND_HALF_WIDTH, count)
    psi = arc / radius
    r = radius - lane
    x = radius - r * np.cos(psi)
    z = r * np.sin(psi)
    y = rng.uniform(BAND_HEIGHT[0], BAND_HEIGHT[1], count)
    return np.column_stack([x, y, z])


def build_scenario(name, seed):
    """Run config and scenario: ``generate_scenario`` plus the road band."""
    config = scenario_config(name, seed)
    scenario = sim.generate_scenario(config["scenario"], seed)
    scenario = dataclasses.replace(scenario,
                                   background=background_band(name, seed))
    return config, scenario
