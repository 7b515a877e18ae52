"""Scan of single-box pose inference over car placements.

Usage (from the repository root)::

    python3 tools/boxscan.py
    python3 tools/boxscan.py --against ../parent

One car, of the car prior's mean size and resting on the ground, is
placed at each x in -12..12 m (steps of 1.5 m), z in 8, 12, 16, 20, 25,
30 and 40 m and yaw in -pi/2, pi/2, 0 and pi/4, in front of the default
camera (1.5 m above the ground, looking along +z).  Its noise-free
detection, when the image border does not truncate it, goes through
``infer_pose`` with the true size.  The scan prints how many of those
placements converge (``infer_pose`` accepts only fits within
``boxinfer.FIT_TOL`` box heights), how many of their roots lie within
0.1 m and 1 degree of the truth, and how many are exact roots: fits
whose residual norm, kept in each record as ``fit`` in box heights, is
at most 1e-9.

Each checkout is scanned in a subprocess that imports the ``semtrack`` of
its own ``src``.  ``--against DIR`` scans a second checkout too, prints
its counts, lists the placements whose outcome differs or whose root
moved by more than 1e-9, and says how many of the placements whose root
in DIR lies near the truth keep that root to 1e-9.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
XS = [-12.0 + 1.5 * i for i in range(17)]
ZS = [8.0, 12.0, 16.0, 20.0, 25.0, 30.0, 40.0]
YAWS = [-math.pi / 2, math.pi / 2, 0.0, math.pi / 4]
PLACEMENTS = [(x, z, yaw) for yaw in YAWS for z in ZS for x in XS]
NEAR_M = 0.1
NEAR_RAD = math.radians(1.0)
SAME_ROOT = 1e-9
EXACT_FIT = 1e-9  # box heights


def scan_placement(x, z, yaw):
    """The outcome of one placement: "converged" with the root and the
    truth, each (x, y, z, yaw) in the camera frame, and the residual norm
    of the fit in box heights, the name of the error
    ``infer_pose`` raised, or "unseen" / "truncated" for a detection that
    is missing or cut by the image border."""
    from semtrack import simulate as sim
    from semtrack.boxinfer import infer_pose
    from semtrack.errors import SemtrackError

    config = {"n_frames": 1,
              "landmarks": {"background_n": 0, "per_object_n": 0},
              "objects": [{"class": "car",
                           "init": {"x": x, "z": z, "yaw": yaw}}]}
    scenario = sim.generate_scenario(config, 0)
    frame = sim.synthesize_frame(scenario, 0, sim.NoiseSpec.zero())
    record = {"x": x, "z": z, "yaw": yaw, "root": None, "truth": None}
    if not frame.semantic:
        return dict(record, outcome="unseen")
    det = frame.semantic[0]
    if det.truncated:
        return dict(record, outcome="truncated")
    camera, state = scenario.camera[0], scenario.objects[0].states[0]
    rot = camera.rotation.T @ state.pose.rotation
    truth = [*camera.apply_inverse(state.position).tolist(),
             math.atan2(rot[0, 2], rot[0, 0])]
    try:
        p, theta, residual = infer_pose(det.box, det.viewpoint, state.dims)
    except SemtrackError as exc:
        return dict(record, outcome=type(exc).__name__, truth=truth)
    return dict(record, outcome="converged", truth=truth,
                root=[*p.tolist(), float(theta)],
                fit=residual / det.box.height)


def run_scan(checkout, placements):
    """:func:`scan_placement` of each placement, run in a subprocess on
    the ``src`` of ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(checkout) / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        input=json.dumps(placements), cwd=checkout, env=env,
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _angle(a, b):
    return abs(math.remainder(a - b, 2.0 * math.pi))


def near_truth(record):
    """Whether a placement's root lies within 0.1 m and 1 degree of the
    truth."""
    root, truth = record["root"], record["truth"]
    return (root is not None and math.dist(root[:3], truth[:3]) <= NEAR_M
            and _angle(root[3], truth[3]) <= NEAR_RAD)


def root_distance(a, b):
    """The largest difference between two roots' coordinates, the yaw
    wrapped."""
    return max(*(abs(u - v) for u, v in zip(a[:3], b[:3])),
               _angle(a[3], b[3]))


def counts(records):
    """Placements with an untruncated detection, converged, near truth."""
    seen = [r for r in records if r["outcome"] not in ("unseen", "truncated")]
    return (len(seen), sum(r["outcome"] == "converged" for r in seen),
            sum(map(near_truth, seen)))


def describe(label, records):
    seen, converged, near = counts(records)
    return (f"{label}: {seen} placements, {converged} converge, "
            f"{near} within {NEAR_M} m and 1 deg of the truth")


def describe_fits(records):
    """How many converged placements are exact roots, and the largest
    fit."""
    fits = [r["fit"] for r in records if r["outcome"] == "converged"]
    exact = sum(fit <= EXACT_FIT for fit in fits)
    return (f"  {exact} of {len(fits)} converged are exact roots (fit at "
            f"most {EXACT_FIT:g} box heights), largest fit "
            f"{max(fits, default=0.0):.3g}")


def _where(r):
    return f"x {r['x']:+.1f} z {r['z']:.0f} yaw {math.degrees(r['yaw']):+.0f}"


def differences(mine, theirs):
    """Lines for the placements whose outcome differs or whose root moved
    by more than 1e-9, then how many of the placements near the truth in
    ``theirs`` keep their root to 1e-9, with the largest move among them."""
    lines = []
    kept, near, largest = 0, 0, 0.0
    for a, b in zip(mine, theirs):
        moved = (root_distance(a["root"], b["root"])
                 if a["root"] and b["root"] else None)
        if near_truth(b):
            near += 1
            if moved is not None:
                largest = max(largest, moved)
                kept += moved <= SAME_ROOT
        if a["outcome"] != b["outcome"]:
            lines.append(f"{_where(a)}: {b['outcome']} -> {a['outcome']}"
                         f" (near the truth: {near_truth(b)} -> "
                         f"{near_truth(a)})")
        elif moved is not None and moved > SAME_ROOT:
            lines.append(f"{_where(a)}: root moved by {moved:.3g}")
    lines.append(f"near the truth in the other checkout: {kept} of {near} "
                 f"keep their root to {SAME_ROOT:g}, largest move "
                 f"{largest:.3g}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path,
                        help="a second checkout to scan and compare")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        placements = json.load(sys.stdin)
        print(json.dumps([scan_placement(*p) for p in placements]))
        return 0
    mine = run_scan(ROOT, PLACEMENTS)
    print(describe(str(ROOT), mine))
    print(describe_fits(mine))
    if args.against:
        theirs = run_scan(args.against.resolve(), PLACEMENTS)
        print(describe(str(args.against), theirs))
        print(describe_fits(theirs))
        print("== placements that differ (other -> this checkout)")
        for line in differences(mine, theirs):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
