"""Command-line entry point.

Subcommands:

* ``simulate``: generate a scenario and write its measurement log plus
  ground-truth trajectories.
* ``track``: run the sliding-window tracker and write estimated
  trajectories.
* ``eval``: full simulate -> track -> evaluate run with metrics and
  curve artifacts.
* ``demo``: the ``eval`` run on a bundled self-contained config.

Shared flags: ``--config <path>``, ``--seed <int>``, ``--out <dir>``,
``--format csv|json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline
from .errors import SemtrackError
from .metrics import Trajectory


def _add_common(parser, config_required=True):
    parser.add_argument("--config", required=config_required,
                        help="run config JSON path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default="out",
                        help="output directory (created if missing)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="trajectory table format")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semtrack",
        description="Stereo semantic tracking: simulate, track, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser(
        "simulate", help="write measurement log and ground truth"))
    _add_common(sub.add_parser(
        "track", help="write estimated trajectories"))
    _add_common(sub.add_parser(
        "eval", help="full run with metrics and curves"))
    _add_common(sub.add_parser(
        "demo", help="full run on the bundled demo config"),
        config_required=False)
    return parser


def _resolve(args):
    if args.command == "demo" and args.config is None:
        config = pipeline.demo_config()
    else:
        config = pipeline.load_config(args.config)
    if args.seed is not None:
        config = {**config, "seed": args.seed}
    return config, pipeline.config_seed(config)


def _cmd_simulate(args):
    config, seed = _resolve(args)
    out = pipeline.out_directory(args.out)
    scenario, frames = pipeline.simulate_stage(config, seed)
    pipeline.write_simulation(out, scenario, frames, args.format)
    print(f"wrote {scenario.n_frames} frames to {out}")


def _cmd_track(args):
    config, seed = _resolve(args)
    out = pipeline.out_directory(args.out)
    scenario, frames = pipeline.simulate_stage(config, seed)
    tracker = pipeline.track_stage(scenario, frames, config)
    pipeline.write_trajectories(
        out, "est", Trajectory(scenario.timestamps(),
                               tuple(tracker.camera_trajectory)),
        tracker.object_trajectories, args.format)
    print(f"tracked {scenario.n_frames} frames, "
          f"{len(tracker.object_trajectories)} objects; wrote {out}")


def _cmd_eval(args):
    config, seed = _resolve(args)
    artifacts = pipeline.run_pipeline(config, args.out, seed=seed,
                                      fmt=args.format)
    with open(artifacts["metrics"]) as fh:
        metrics = json.load(fh)
    print(f"ate_rmse_m: {metrics['ate_rmse_m']:.6f}")
    print(f"wrote {len(artifacts)} artifacts to {args.out}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {"simulate": _cmd_simulate, "track": _cmd_track,
               "eval": _cmd_eval, "demo": _cmd_eval}[args.command]
    try:
        handler(args)
    except SemtrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
