"""Fast self-test of the benchmark harness.

Usage (from the repository root)::

    python3 perfbench/selftest.py

or ``python3 -m pytest perfbench/selftest.py``.  It drives a 12-frame
version of one workload, so it takes seconds, not minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import checks, pace, run, spans, workloads  # noqa: E402
from semtrack import simulate as sim  # noqa: E402
from semtrack.geometry import Pose, so3_exp  # noqa: E402
from semtrack.metrics import Trajectory, ate_rmse  # noqa: E402

SHORT = 12
WORKLOAD = "dense_traffic"


def _short(broken_frame=None):
    """Context that shortens every drive to SHORT frames; the frame
    numbered ``broken_frame`` is synthesized as None."""
    class Short:
        def __enter__(self):
            self.saved = (workloads.N_FRAMES, sim.synthesize_frame)
            workloads.N_FRAMES = SHORT
            if broken_frame is not None:
                synthesize = self.saved[1]
                sim.synthesize_frame = lambda scenario, t: (
                    None if t == broken_frame else synthesize(scenario, t))
            return self

        def __exit__(self, *exc):
            workloads.N_FRAMES, sim.synthesize_frame = self.saved
            return False
    return Short()


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_emitted_with_unit(tmp_path=None):
    out = Path(tmp_path or run.OUT) / "selftest"
    with _short():
        untraced = run.drive(WORKLOAD, 1, out)
        tracer = spans.Tracer()
        with tracer:
            traced = run.drive(WORKLOAD, 1, out, tracer)
    bench = _benchmark()
    emitted = {"end_to_end": run.end_to_end([untraced], 0.5),
               "per_layer": run.per_layer(tracer, traced,
                                          run.measure_imports())}
    for kind, metrics in emitted.items():
        names = {m["name"] for m in bench[kind]}
        assert set(metrics) == names, (kind, set(metrics) ^ names)
        for spec in bench[kind]:
            got = metrics[spec["name"]]
            assert got["unit"] == spec["unit"], spec["name"]
            assert isinstance(got["value"], (int, float)), spec["name"]
            assert np.isfinite(got["value"]), spec["name"]


def test_wrappers_restore_originals():
    before = [owner.__dict__[attr] for owner, attr, *_ in spans.PATCHES]
    tracer = spans.Tracer()
    try:
        with tracer:
            patched = [owner.__dict__[attr]
                       for owner, attr, *_ in spans.PATCHES]
            raise RuntimeError("leave the block by an exception")
    except RuntimeError:
        pass
    after = [owner.__dict__[attr] for owner, attr, *_ in spans.PATCHES]
    assert all(p is not b for p, b in zip(patched, before))
    assert all(a is b for a, b in zip(after, before))


def test_raising_frame_counted_not_fatal(tmp_path=None):
    with _short(broken_frame=5):
        result = run.drive(WORKLOAD, 1, Path(tmp_path or run.OUT) / "self")
    assert result["frames"] == SHORT
    assert result["failed"] >= 1
    assert result["errors"][0].startswith("frame 5: AttributeError")
    assert result["faults"], "a failed frame must fail the checks"


def test_own_ate_hand_case():
    # est is gt scaled by 2, then rotated and moved: a rigid alignment
    # cannot undo the scale, the best one leaves each unit-distance
    # point 1 m off, so the RMSE is exactly 1
    gt = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                   [0, 0, 1], [0, 0, -1]])
    rot = so3_exp(np.array([0.3, -1.1, 0.7]))
    est = 2.0 * gt @ rot.T + np.array([5.0, -2.0, 3.0])
    assert abs(checks.ate_rmse(est, gt) - 1.0) < 1e-12
    assert checks.ate_rmse(gt @ rot.T + 4.0, gt) < 1e-12
    # and it agrees with the program's SVD-based ATE on a random path
    rng = np.random.default_rng(4)
    pos = np.cumsum(rng.normal(size=(30, 3)), axis=0)
    noisy = pos @ rot.T + rng.normal(scale=0.1, size=pos.shape)
    times = np.arange(30) * 0.1
    traj = [Trajectory(times, tuple(Pose(np.eye(3), p) for p in ps))
            for ps in (noisy, pos)]
    assert abs(checks.ate_rmse(noisy, pos) - ate_rmse(*traj)) < 1e-9


def test_pace_scaling_hand_case():
    # samples 2, 2, 4, 4 ms bound three frames; with a half window of one,
    # each frame's pace is the median of the two samples around it
    local = pace.local_pace([2e-3, 2e-3, 4e-3, 4e-3], half=1)
    assert np.allclose(local, [2e-3, 3e-3, 4e-3])
    # a frame of 0.1 CPU s while the kernel took twice NOMINAL_S counts as
    # 0.05 s at nominal pace
    scaled = pace.normalise([0.1, 0.3], [2 * pace.NOMINAL_S, pace.NOMINAL_S])
    assert np.allclose(scaled, [0.05, 0.3])
    assert pace.sample(2) > 0.0


def main():
    tests = [v for k, v in sorted(globals().items())
             if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
