"""How well the pace kernel follows the program's own slow-downs.

Usage (from the repository root)::

    python3 perfbench/pacecheck.py --workload dense_traffic --seconds 240

Tracks the first 30 frames of one workload (seed 1), then, for
``--seconds``, replays frame 30 on a fresh copy of that tracker again and
again, taking a pace sample after each replay.  The work of a replay is
always the same, so any change in its CPU time is the machine's.  The
replays are cut into ten blocks in time order.  For each block it prints
the median raw CPU time and the median CPU time scaled as ``run.py``
scales a frame (by the pace samples right before and after it), both
relative to their mean over the blocks.  Last it prints, for raw and for
scaled times, the spread of the block medians (interquartile range over
median) and the ratio of the largest to the smallest.
"""

from __future__ import annotations

import argparse
import copy
import os
import statistics
import sys
import time
from pathlib import Path

# one BLAS thread, as in the benchmark command; must precede numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import pace, workloads  # noqa: E402
from semtrack import pipeline, simulate as sim  # noqa: E402
from semtrack.estimator import WindowTracker  # noqa: E402

WARM_FRAMES = 30
BLOCKS = 10


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="dense_traffic")
    parser.add_argument("--seconds", type=float, default=240.0)
    args = parser.parse_args(argv)

    config, scenario = workloads.build_scenario(args.workload, 1)
    est_cfg = pipeline.estimator_config_from(config.get("estimator", {}),
                                             scenario.dt)
    tracker = WindowTracker(scenario.rig, est_cfg,
                            initial_pose=scenario.camera[0])
    for t in range(WARM_FRAMES):
        tracker.process(sim.synthesize_frame(scenario, t))
    frame = sim.synthesize_frame(scenario, WARM_FRAMES)

    pace.kernel()  # warm-up
    cpu, paces = [], [pace.sample()]
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end:
        replay = copy.deepcopy(tracker)
        c0 = time.process_time()
        replay.process(frame)
        cpu.append(time.process_time() - c0)
        paces.append(pace.sample())
    scaled = pace.normalise(cpu, pace.local_pace(paces))

    raw_blocks = [float(np.median(b)) for b in np.array_split(cpu, BLOCKS)]
    scaled_blocks = [float(np.median(b))
                     for b in np.array_split(scaled, BLOCKS)]
    print(f"{args.workload}: {len(cpu)} replays of frame {WARM_FRAMES} in "
          f"{BLOCKS} blocks; median raw {1e3 * np.median(cpu):.1f} ms, "
          f"median pace {1e3 * np.median(paces):.3f} ms")
    print(f"{'block':>5} {'raw':>7} {'scaled':>7}")
    raw_mean, scaled_mean = np.mean(raw_blocks), np.mean(scaled_blocks)
    for k, (r, s) in enumerate(zip(raw_blocks, scaled_blocks)):
        print(f"{k + 1:>5} {r / raw_mean:>7.3f} {s / scaled_mean:>7.3f}")
    for name, blocks in (("raw", raw_blocks), ("scaled", scaled_blocks)):
        print(f"{name}: spread {spread(blocks):.3f}, "
              f"largest/smallest {max(blocks) / min(blocks):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
