"""Tests for the scenario runner, artifact I/O and the CLI."""

import json
import pickle
import subprocess
import sys

import numpy as np
import pytest

from semtrack import cli, pipeline
from semtrack.errors import ConfigError, IoError
from semtrack.estimator import EstimatorConfig, WindowTracker
from semtrack.geometry import ObjectState, Pose, so3_exp
from semtrack.metrics import Trajectory
from semtrack.simulate import read_measurements

FORWARD = -np.pi / 2


def small_config(n_frames=8):
    return {
        "seed": 3,
        "scenario": {
            "n_frames": n_frames,
            "objects": [{"class": "car",
                         "init": {"x": -10.0, "z": 18.0, "yaw": FORWARD,
                                  "v": 8.0}}],
            "landmarks": {"background_n": 300, "per_object_n": 60},
            "noise": {"seed": 3},
        },
    }


def random_trajectory(rng, n=6):
    poses = []
    for i in range(n):
        poses.append(Pose(so3_exp(rng.uniform(-0.5, 0.5, 3)),
                          rng.uniform(-10.0, 10.0, 3)))
    return Trajectory(np.arange(n, dtype=float) * 0.1, tuple(poses))


def random_states(rng, n=6):
    return [ObjectState(rng.uniform(-10.0, 10.0, 3),
                        rng.uniform(-np.pi, np.pi),
                        rng.uniform([3.0, 1.2, 1.5], [5.0, 2.0, 2.2]),
                        rng.uniform(0.0, 10.0), rng.uniform(-0.3, 0.3))
            for _ in range(n)]


class TestTrajectoryIO:

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_camera_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(0)
        traj = random_trajectory(rng)
        path = tmp_path / f"cam.{fmt}"
        pipeline.write_camera_trajectory(path, traj, fmt)
        back = pipeline.read_camera_trajectory(path)
        assert np.array_equal(back.times, traj.times)
        for a, b in zip(back.poses, traj.poses):
            assert np.array_equal(a.translation, b.translation)
            assert np.max(np.abs(a.rotation - b.rotation)) < 1e-12
        # writing the same trajectory again reproduces the file exactly
        path2 = tmp_path / f"cam2.{fmt}"
        pipeline.write_camera_trajectory(path2, traj, fmt)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_object_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(1)
        states = random_states(rng)
        times = np.arange(len(states)) * 0.1
        path = tmp_path / f"obj.{fmt}"
        pipeline.write_object_trajectory(path, times, states, fmt)
        back_times, back = pipeline.read_object_trajectory(path)
        assert np.array_equal(back_times, times)
        for a, b in zip(back, states):
            assert np.array_equal(a.position, b.position)
            assert np.array_equal(a.dims, b.dims)
            assert a.yaw == b.yaw
            assert a.speed == b.speed
            assert a.steer == b.steer

    def test_header_is_mandatory(self, tmp_path):
        path = tmp_path / "cam.csv"
        path.write_text("0.0,1.0,2.0,3.0,1.0,0.0,0.0,0.0\n")
        with pytest.raises(IoError):
            pipeline.read_camera_trajectory(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError) as exc:
            pipeline.read_camera_trajectory(tmp_path / "absent.csv")
        assert "absent.csv" in str(exc.value)


class TestRunPipeline:

    def test_artifacts_exist(self, tmp_path):
        arts = pipeline.run_pipeline(small_config(), tmp_path / "out")
        expected = {"measurements", "camera_est", "camera_gt", "metrics",
                    "curve_bev", "curve_3d", "object_1_gt"}
        assert expected <= set(arts)
        for path in arts.values():
            assert path.exists()
        metrics = json.loads(arts["metrics"].read_text())
        for key in ("ate_rmse_m", "rpe_trans", "rpe_rot", "ap_bev", "ap_3d",
                    "error_curve"):
            assert key in metrics
        assert len(metrics["ap_bev"]) == 40
        assert len(metrics["rpe_trans"]) == 7

    def test_deterministic_metrics(self, tmp_path):
        a = pipeline.run_pipeline(small_config(), tmp_path / "a")
        b = pipeline.run_pipeline(small_config(), tmp_path / "b")
        assert a["metrics"].read_bytes() == b["metrics"].read_bytes()
        assert a["camera_est"].read_bytes() == b["camera_est"].read_bytes()

    def test_missing_measurement_log(self, tmp_path):
        config = small_config()
        config["measurements"] = str(tmp_path / "nolog.jsonl")
        with pytest.raises(IoError) as exc:
            pipeline.run_pipeline(config, tmp_path / "out")
        assert "nolog.jsonl" in str(exc.value)

    def test_external_measurement_log(self, tmp_path):
        # a run from its own recorded log reproduces the direct run
        config = small_config()
        direct = pipeline.run_pipeline(config, tmp_path / "direct")
        config["measurements"] = str(direct["measurements"])
        replay = pipeline.run_pipeline(config, tmp_path / "replay")
        assert direct["metrics"].read_bytes() == replay["metrics"].read_bytes()

    def test_bad_estimator_key(self, tmp_path):
        config = small_config()
        config["estimator"] = {"not_a_key": 1.0}
        with pytest.raises(ConfigError):
            pipeline.run_pipeline(config, tmp_path / "out")
        # the noise models, the loss and the iteration cap are constants
        # of the estimator, not settings; only the window is
        for key, value in (("feature_sigma", 0.5 / 700.0),
                           ("box_sigma", 1.0 / 700.0),
                           ("motion_sigmas", [0.05] * 6),
                           ("surface_sigma", 0.05), ("huber_scale", 3.0),
                           ("max_iterations", 50)):
            with pytest.raises(ConfigError, match=key):
                pipeline.estimator_config_from({key: value}, 0.1)
        assert pipeline.estimator_config_from({"window": 5}, 0.1) == \
            EstimatorConfig(window=5, dt=0.1)

    def test_bad_config_type(self, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.run_pipeline(["nonsense"], tmp_path / "out")

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(IoError):
            pipeline.load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            pipeline.load_config(bad)
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="mapping"):
            pipeline.load_config(listed)


class TestCli:

    def write_config(self, tmp_path, n_frames=6):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config(n_frames)))
        return path

    def test_simulate(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(config),
                         "--out", str(out)]) == 0
        assert (out / "measurements.jsonl").exists()
        assert (out / "camera_gt.csv").exists()
        assert (out / "object_1_gt.csv").exists()

    def test_track_json_format(self, tmp_path):
        config = self.write_config(tmp_path)
        out = tmp_path / "trk"
        assert cli.main(["track", "--config", str(config),
                         "--out", str(out), "--format", "json"]) == 0
        assert (out / "camera_est.json").exists()
        traj = pipeline.read_camera_trajectory(out / "camera_est.json")
        assert len(traj) == 6

    def test_eval(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "ev"
        assert cli.main(["eval", "--config", str(config),
                         "--out", str(out)]) == 0
        assert (out / "metrics.json").exists()
        assert "ate_rmse_m" in capsys.readouterr().out

    def test_seed_override_changes_output(self, tmp_path):
        config = self.write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["eval", "--config", str(config), "--out",
                         str(out_a), "--seed", "3"]) == 0
        assert cli.main(["eval", "--config", str(config), "--out",
                         str(out_b), "--seed", "4"]) == 0
        assert (out_a / "metrics.json").read_bytes() != \
            (out_b / "metrics.json").read_bytes()

    def test_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["eval", "--config", str(tmp_path / "no.json"),
                         "--out", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_log_line_reports_line(self, tmp_path, capsys):
        config = small_config(3)
        log = tmp_path / "measurements.jsonl"
        direct = pipeline.run_pipeline(config, tmp_path / "direct")
        lines = direct["measurements"].read_text().splitlines()
        record = json.loads(lines[1])
        del record["semantic"]
        lines[1] = json.dumps(record)
        log.write_text("\n".join(lines) + "\n")
        config["measurements"] = str(log)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["eval", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{log}:2" in err and "semantic" in err

    def test_bad_detection_refused(self, tmp_path, capsys):
        # a replayed detection whose id is not an integer or whose label
        # has no prior ends in an error, and the tracker refuses its frame
        # before changing any state
        config = small_config(3)
        direct = pipeline.run_pipeline(config, tmp_path / "direct")
        lines = direct["measurements"].read_text().splitlines()
        scenario, frames = pipeline.simulate_stage(config, 3)
        log = tmp_path / "measurements.jsonl"
        config["measurements"] = str(log)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        for key, value in (("object_id", None), ("object_id", "a"),
                           ("object_id", [1]), ("object_id", True),
                           ("label", ["car"]), ("label", "truck")):
            record = json.loads(lines[1])
            record["semantic"][0][key] = value
            log.write_text("\n".join([lines[0], json.dumps(record),
                                      *lines[2:]]) + "\n")
            assert cli.main(["eval", "--config", str(path),
                             "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: frame 1: detection"), (key, value)
            tracker = WindowTracker(scenario.rig,
                                    EstimatorConfig(dt=scenario.dt),
                                    initial_pose=scenario.camera[0])
            tracker.process(frames[0])
            before = pickle.dumps(tracker.__dict__)
            with pytest.raises(ConfigError, match="frame 1"):
                tracker.process(read_measurements(log)[1])
            assert pickle.dumps(tracker.__dict__) == before

    def test_config_not_a_mapping(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert cli.main(["eval", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mapping" in err

    def test_out_below_a_file(self, tmp_path, capsys):
        config = self.write_config(tmp_path, n_frames=3)
        blocker = tmp_path / "file"
        blocker.write_text("")
        for command in ("simulate", "track"):
            assert cli.main([command, "--config", str(config),
                             "--out", str(blocker / "sub")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and str(blocker / "sub") in err

    def test_measurement_log_is_a_directory(self, tmp_path, capsys):
        config = self.write_config(tmp_path, n_frames=3)
        out = tmp_path / "out"
        (out / "measurements.jsonl").mkdir(parents=True)
        assert cli.main(["eval", "--config", str(config),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "measurements.jsonl" in err

    def run_eval(self, tmp_path, capsys, **entries):
        """Exit status and standard error of ``semtrack eval`` on a 3-frame
        config with ``entries`` set."""
        config = small_config(3)
        config.update(entries)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        status = cli.main(["eval", "--config", str(path),
                           "--out", str(tmp_path / "out")])
        return status, capsys.readouterr().err

    def test_window_not_an_integer(self, tmp_path, capsys):
        for window in ("ten", 1, 0, -3, True, 4.0, 2.5):
            status, err = self.run_eval(tmp_path, capsys,
                                        estimator={"window": window})
            assert status == 1
            assert err.startswith("error: estimator.window:"), window

    def test_scenario_number_not_finite(self, tmp_path, capsys):
        scenario = {**small_config(3)["scenario"], "dt_s": float("nan")}
        status, err = self.run_eval(tmp_path, capsys, scenario=scenario)
        assert status == 1
        assert err.startswith("error: dt_s: expected a finite number"), err

    def test_measurement_entry_names_a_directory(self, tmp_path, capsys):
        folder = tmp_path / "logs"
        folder.mkdir()
        binary = tmp_path / "binary.jsonl"
        binary.write_bytes(b"\xff\xfe{}\n")
        for log in (folder, binary):
            status, err = self.run_eval(tmp_path, capsys,
                                        measurements=str(log))
            assert status == 1
            assert err.startswith(f"error: {log}:")

    def test_seed_not_an_integer(self, tmp_path, capsys):
        for seed in ("x", -1, 2.5, False):
            status, err = self.run_eval(tmp_path, capsys, seed=seed)
            assert status == 1
            assert err.startswith("error: seed:"), seed
        with pytest.raises(ConfigError, match="seed"):
            pipeline.run_pipeline({**small_config(3), "seed": "x"},
                                  tmp_path / "direct")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config(3)))
        assert cli.main(["eval", "--config", str(path), "--seed", "-1",
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: seed:")

    def refused_before_tracking(self, tmp_path, capsys, monkeypatch,
                                config):
        """Standard error of ``semtrack eval`` on ``config``, which must
        exit with status 1 without tracking a frame."""
        def no_tracking(*args):
            raise AssertionError("the stream was tracked")

        monkeypatch.setattr(pipeline, "track_stage", no_tracking)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["eval", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        return capsys.readouterr().err

    @pytest.mark.parametrize("step", ["x", 0, 1.7, 3])
    def test_rpe_step_not_a_step(self, tmp_path, capsys, monkeypatch, step):
        config = {**small_config(3), "evaluation": {"rpe_step": step}}
        err = self.refused_before_tracking(tmp_path, capsys, monkeypatch,
                                           config)
        assert err.startswith("error: evaluation.rpe_step:")

    def test_evaluation_not_a_mapping(self, tmp_path, capsys, monkeypatch):
        config = {**small_config(3), "evaluation": [1]}
        err = self.refused_before_tracking(tmp_path, capsys, monkeypatch,
                                           config)
        assert err.startswith("error: evaluation: expected a mapping")

    def test_measurements_not_a_path(self, tmp_path, capsys, monkeypatch):
        config = {**small_config(3), "measurements": 5}
        err = self.refused_before_tracking(tmp_path, capsys, monkeypatch,
                                           config)
        assert err.startswith("error: measurements:")

    def test_too_few_frames_to_evaluate(self, tmp_path, capsys,
                                        monkeypatch):
        err = self.refused_before_tracking(tmp_path, capsys, monkeypatch,
                                           small_config(2))
        assert err.startswith("error: scenario.n_frames:")

    def test_waypoint_not_numbers(self, tmp_path, capsys, monkeypatch):
        config = small_config(3)
        config["scenario"]["camera"] = {"waypoints": [
            [0, -1.5, 0, 0], [0, -1.5, 1, 0], [0, 0, 0, "a"]]}
        err = self.refused_before_tracking(tmp_path, capsys, monkeypatch,
                                           config)
        assert err.startswith("error: camera.waypoints[2]:")

    def test_rejects_bad_format(self, tmp_path):
        config = self.write_config(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["eval", "--config", str(config), "--format", "xml"])


def test_import_does_not_load_scipy():
    code = ("import sys, semtrack; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
