"""The size of a difference that ``tools/sweep.py --against`` reports for
an artifact that differs between two checkouts, the placements that
``tools/boxscan.py`` scans and compares, and the drives with mismatched
features of ``tools/mismatch.py``."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = _load("sweep")
boxscan = _load("boxscan")
mismatch = _load("mismatch")


def test_numbers_of_each_kind(tmp_path):
    table = tmp_path / "a.csv"
    table.write_text("t,x\n0.0,1.5\n0.1,-2.0\n")
    assert sweep.numbers(table) == [0.0, 1.5, 0.1, -2.0]
    record = tmp_path / "m.json"
    record.write_text(json.dumps({"b": [1, 2.5], "a": 3, "ok": True,
                                  "name": "x"}))
    assert sweep.numbers(record) == [3.0, 1.0, 2.5]
    log = tmp_path / "m.jsonl"
    log.write_text('{"t": 0.0}\n{"t": 0.1}\n')
    assert sweep.numbers(log) == [0.0, 0.1]
    assert sweep.numbers(tmp_path / "absent.csv") is None


def test_largest_difference(tmp_path):
    a, b, c = (tmp_path / f"{n}.csv" for n in "abc")
    a.write_text("t,x\n0.0,1.0\n0.1,nan\n")
    b.write_text("t,x\n0.0,1.25\n0.1,nan\n")
    c.write_text("t,x\n0.0,1.0\n")
    assert sweep.largest_difference(a, b) == "largest difference 0.25"
    assert sweep.largest_difference(a, a) == "largest difference 0"
    assert sweep.largest_difference(a, c) == "4 vs 2 numbers"
    assert sweep.largest_difference(a, tmp_path / "d.csv") == \
        "not comparable"


def test_largest_ate():
    def runs(ates):
        return {("w", s): {"accuracy": {} if a is None
                           else {"ate_rmse_m": a}}
                for s, a in ates.items()}

    mine = runs({1: 0.1, 2: 0.5, 3: None, 4: 0.3, 5: 0.2})
    theirs = runs({1: 0.1, 2: 0.25, 3: 0.9, 4: None, 5: 0.2})
    seeds = [1, 2, 3, 4, 5]
    assert sweep.largest_ate(mine, "w", seeds) == \
        "largest ATE: seed 2 0.5 m, seed 4 0.3 m, seed 5 0.2 m"
    assert sweep.largest_ate(mine, "w", seeds, theirs, n=2) == \
        "largest ATE: seed 2 0.5 m (other 0.25 m), seed 4 0.3 m (other n/a)"


def test_ap_3d_at(tmp_path):
    path = tmp_path / "metrics.json"
    thresholds = [k / 40 for k in range(40)]
    path.write_text(json.dumps({
        "ap_3d": [1.0 - t for t in thresholds],
        "error_curve": {"thresholds": thresholds}}))
    assert sweep.ap_3d_at(path) == 1.0 - 28 / 40
    assert sweep.ap_3d_at(path, threshold=0.71) is None
    assert sweep.ap_3d_at(tmp_path / "absent.json") is None


def test_identical_by_artifact():
    mine = {("w", 1): {"artifacts": {"a.csv": "1", "b.csv": "2"}},
            ("w", 2): {"artifacts": {"a.csv": "1", "b.csv": "3"}},
            ("w", 3): {"artifacts": {"a.csv": "1"}}}
    theirs = {("w", 1): {"artifacts": {"a.csv": "1", "b.csv": "2"}},
              ("w", 2): {"artifacts": {"a.csv": "1", "b.csv": "4"}},
              ("w", 3): {"artifacts": {"a.csv": "5", "c.csv": "6"}}}
    assert sweep.identical_by_artifact(mine, theirs) == {
        "a.csv": (2, 3), "b.csv": (1, 2), "c.csv": (0, 1)}


def test_speed_error(tmp_path):
    header = "t,x,y,z,yaw,dx,dy,dz,v,steer\n"

    def table(name, rows):
        (tmp_path / name).write_text(header + "".join(
            f"{t},{x},0.0,{z},0.0,4.0,1.6,1.5,{v},0.0\n"
            for t, x, z, v in rows))

    # two true cars side by side; the estimates swap file ids with them
    table("object_1_gt.csv", [(0.0, 0.0, 20.0, 10.0), (0.1, 0.0, 21.0, 10.0)])
    table("object_2_gt.csv", [(0.0, 3.5, 20.0, 5.0), (0.1, 3.5, 20.5, 5.0),
                              (0.2, 3.5, 21.0, 5.0)])
    # near car 2 at t 0.0 (error 1.0) and near car 1 at t 0.1 (error 0.5)
    table("object_1_est.csv", [(0.0, 3.0, 20.2, 6.0), (0.1, 0.4, 21.0, 9.5)])
    # near car 1 (error 2.0); t 0.3 has no truth and is left out
    table("object_7_est.csv", [(0.0, 0.5, 19.0, 12.0), (0.3, 3.5, 21.5, 0.0)])
    table("object_8_est.csv", [])
    assert sweep.speed_error(tmp_path) == pytest.approx(3.5 / 3)
    (tmp_path / "object_2_gt.csv").unlink()
    (tmp_path / "object_1_gt.csv").unlink()
    assert sweep.speed_error(tmp_path) is None


def test_boxscan_two_placements():
    # a car straight ahead seen from behind converges; one 3 m to the
    # side does not (the viewpoint table's mismatch off the optical axis)
    placements = [(0.0, 20.0, -math.pi / 2), (3.0, 20.0, -math.pi / 2)]
    records = boxscan.run_scan(ROOT, placements)
    assert [r["outcome"] for r in records] == ["converged", "NoConvergence"]
    assert records[0]["truth"] == pytest.approx([0.0, 0.7, 20.0, -math.pi / 2])
    assert boxscan.counts(records) == (2, 1, 1)
    assert boxscan.differences(records, records) == [
        "near the truth in the other checkout: 1 of 1 keep their root to "
        "1e-09, largest move 0"]

    root = records[0]["root"]
    moved = [dict(records[0], root=root[:3] + [root[3] + 2 * math.pi + 1e-6]),
             dict(records[1], outcome="DegenerateGeometry")]
    assert boxscan.differences(moved, records) == [
        "x +0.0 z 20 yaw -90: root moved by 1e-06",
        "x +3.0 z 20 yaw -90: NoConvergence -> DegenerateGeometry "
        "(near the truth: False -> False)",
        "near the truth in the other checkout: 0 of 1 keep their root to "
        "1e-09, largest move 1e-06"]


def test_boxscan_exact_roots():
    records = [{"outcome": "converged", "fit": fit}
               for fit in (0.0, 1e-12, 0.02)]
    records.append({"outcome": "NoConvergence"})
    assert boxscan.describe_fits(records) == (
        "  2 of 3 converged are exact roots (fit at most 1e-09 box "
        "heights), largest fit 0.02")


def test_mismatch_two_seeds(capsys):
    assert mismatch.main(["--workload", "dense_traffic", "--seeds", "1-2",
                          "--temporal", "0.1", "--stereo", "0.1",
                          "--frames", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dense_traffic: temporal 0.1, stereo 0.1, 4 frames"
    assert [line.split(":")[0] for line in lines[1:]] == \
        ["seed 1", "seed 2", "mean"]
    for line in lines[1:]:
        assert "object error" in line and "yaw error" in line
        assert "ATE" in line and "failed" not in line
    with pytest.raises(SystemExit):
        mismatch.main(["--seeds", "1", "--stereo", "1.5", "--frames", "2"])
