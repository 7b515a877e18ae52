"""The tracker on a benchmark drive whose features are mismatched, as
``tools/mismatch.py`` drives it."""

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, workloads  # noqa: E402
from semtrack import estimator as est  # noqa: E402
from semtrack import pipeline, simulate as sim  # noqa: E402


def test_stereo_mismatches_keep_object_error_in_budget():
    # a fifth of the features of dense_traffic seed 4 take the right point
    # of their nearest neighbour.  The object solve gates those rows out;
    # without the gate one car's range runs away at frame 41
    config, scenario = workloads.build_scenario("dense_traffic", 4)
    scenario = replace(scenario, noise=replace(scenario.noise,
                                               stereo_mismatch_rate=0.2))
    tracker = est.WindowTracker(
        scenario.rig,
        pipeline.estimator_config_from(config["estimator"], scenario.dt),
        initial_pose=scenario.camera[0])
    for t in range(45):
        tracker.process(sim.synthesize_frame(scenario, t))
    matched, pos_pct, _ = checks.object_errors(
        scenario, tracker.object_trajectories, tracker.camera_trajectory)
    assert len(set(matched.values())) == 4
    assert pos_pct.mean() < checks.OBJ_ERR_BUDGET_PCT
