"""Correctness sweep: the benchmark's checks over many seeds.

Usage (from the repository root)::

    python3 tools/sweep.py --seeds 1-30
    python3 tools/sweep.py --workloads dense_traffic --seeds 1-10 \
        --against ../parent --jobs 2

Each run is the command of ``BENCHMARK.json`` with ``--workload W --seed
S --trace 0 --seconds 1``, one subprocess per run with
``PYTHONDONTWRITEBYTECODE=1``, started in the checkout it measures.  For
each workload the sweep prints the runs that are ``correct``, the failed
frames, the median and mean object error (% of range), the mean object
yaw error, the median of ``rpe_p50_mm``, the median AP_3d at IoU 0.7
(read from each run's ``metrics.json``), the median of each run's mean
object speed error (each row of an ``object_*_est.csv`` against the
ground-truth object nearest in position at the same ``t``) and the
largest ATE, and under it the 3 seeds of largest ATE.  ``--against DIR``
runs the same command in a second checkout, prints the same summary for
it, the ATE of those seeds on both sides, the per-seed ``rpe_p50_mm``
differences (this checkout minus the other), and the runs whose
measurement stream (``stream_sha256``) or artifacts (the sha256 of each
file under ``.perfbench_out/<workload>-<seed>/``) differ between the
checkouts, with the largest absolute difference between the numbers of
each CSV, JSON or JSON-lines artifact that differs, then the runs in
which each artifact is identical (``camera_est.csv: k of n``), ending
with a line ``artifacts identical: k of n``.  The exit status is 1 if a
run is not ``correct`` or failed a frame.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """Seeds from a list such as ``1-10,13,20-22``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def artifact_digests(checkout, workload, seed):
    """File name to sha256 of each artifact of one run in ``checkout``."""
    out = checkout / ".perfbench_out" / f"{workload}-{seed}"
    if not out.is_dir():
        return {}
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def ap_3d_at(path, threshold=0.7):
    """The AP_3d of a run's ``metrics.json`` at the IoU ``threshold``;
    None for a missing file or a threshold it does not hold."""
    if not path.is_file():
        return None
    metrics = json.loads(path.read_text())
    for value, ap in zip(metrics["error_curve"]["thresholds"],
                         metrics["ap_3d"]):
        if math.isclose(value, threshold):
            return ap
    return None


def _table(path):
    """The rows of an object CSV, as dicts of floats."""
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def speed_error(out):
    """Mean |v_est - v_true| over the rows of the ``object_*_est.csv``
    tables in ``out``, each against the ``object_*_gt.csv`` row nearest
    in position at the same ``t``; None when no row has a match."""
    truth = {}
    for path in sorted(out.glob("object_*_gt.csv")):
        for row in _table(path):
            truth.setdefault(row["t"], []).append(row)
    errors = []
    for path in sorted(out.glob("object_*_est.csv")):
        for row in _table(path):
            if row["t"] not in truth:
                continue
            near = min(truth[row["t"]], key=lambda g: math.dist(
                (g["x"], g["y"], g["z"]), (row["x"], row["y"], row["z"])))
            errors.append(abs(row["v"] - near["v"]))
    return statistics.fmean(errors) if errors else None


def _json_numbers(node):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _json_numbers(node[key])
    elif isinstance(node, list):
        for item in node:
            yield from _json_numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield float(node)


def numbers(path):
    """The numbers of a CSV, JSON or JSON-lines file, in file order (JSON
    keys sorted); None for a missing file or another kind of file."""
    if not path.is_file():
        return None
    text = path.read_text()
    if path.suffix == ".csv":
        values = []
        for row in csv.reader(text.splitlines()):
            for cell in row:
                try:
                    values.append(float(cell))
                except ValueError:  # a header
                    pass
        return values
    if path.suffix == ".json":
        return list(_json_numbers(json.loads(text)))
    if path.suffix == ".jsonl":
        return list(_json_numbers([json.loads(line)
                                   for line in text.splitlines() if line]))
    return None


def largest_difference(path_a, path_b):
    """How far the numbers of two versions of an artifact are apart, as
    text: the largest absolute difference, or why there is none."""
    a, b = numbers(path_a), numbers(path_b)
    if a is None or b is None:
        return "not comparable"
    if len(a) != len(b):
        return f"{len(a)} vs {len(b)} numbers"
    diffs = [0.0 if x == y or (math.isnan(x) and math.isnan(y))
             else abs(x - y) for x, y in zip(a, b)]
    return f"largest difference {max(diffs, default=0.0):.3g}"


def run(checkout, command, workload, seed):
    """One benchmark run; its accuracy record, correctness line, stream
    digest and artifact digests."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--trace", "0", "--seconds", "1"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2 or \
            not lines[-2].startswith("record: "):
        return {"correct": False, "failed": None, "accuracy": {},
                "error": proc.stderr.strip().splitlines()[-1:],
                "stream": None, "artifacts": {}}
    record = json.loads(lines[-2][len("record: "):])
    result = json.loads(lines[-1])
    out = checkout / ".perfbench_out" / f"{workload}-{seed}"
    accuracy = dict(record["accuracy"],
                    ap_3d_07=ap_3d_at(out / "metrics.json"),
                    speed_err_mps=speed_error(out))
    return {"correct": result["correct"], "failed": result["failed"],
            "accuracy": accuracy, "error": record["faults"],
            "stream": record["stream_sha256"],
            "artifacts": artifact_digests(checkout, workload, seed)}


def differences(a, b):
    """What differs between two runs of one seed: "stream" and the names
    of the artifacts that differ or are missing on one side."""
    if a["stream"] is None or b["stream"] is None:
        return ["no record"]
    names = sorted(set(a["artifacts"]) | set(b["artifacts"]))
    return ((["stream"] if a["stream"] != b["stream"] else [])
            + [name for name in names
               if a["artifacts"].get(name) != b["artifacts"].get(name)])


def sweep(checkout, command, workloads, seeds, jobs):
    """{(workload, seed): run} for every pair, run in ``checkout``."""
    keys = [(w, s) for w in workloads for s in seeds]
    with ThreadPoolExecutor(jobs) as pool:
        runs = list(pool.map(lambda k: run(checkout, command, *k), keys))
    return dict(zip(keys, runs))


def _values(runs, key):
    return [r["accuracy"][key] for r in runs
            if r["accuracy"].get(key) is not None]


def summary(runs):
    """The sweep's figures for the runs of one workload."""
    obj = _values(runs, "obj_err_pct")
    yaw = _values(runs, "obj_yaw_err_deg")
    rpe = _values(runs, "rpe_p50_mm")
    ap = _values(runs, "ap_3d_07")
    speed = _values(runs, "speed_err_mps")
    ate = _values(runs, "ate_rmse_m")
    failed = [r["failed"] for r in runs if r["failed"] is not None]
    return {
        "correct": f"{sum(r['correct'] for r in runs)}/{len(runs)}",
        "failed_frames": sum(failed),
        "obj_err_pct_median": statistics.median(obj) if obj else None,
        "obj_err_pct_mean": statistics.fmean(obj) if obj else None,
        "yaw_err_deg_mean": statistics.fmean(yaw) if yaw else None,
        "rpe_p50_mm_median": statistics.median(rpe) if rpe else None,
        "ap_3d_07_median": statistics.median(ap) if ap else None,
        "speed_err_mps_median": statistics.median(speed) if speed else None,
        "ate_rmse_m_max": max(ate) if ate else None,
    }


def identical_by_artifact(runs, other):
    """For each artifact name, the runs (keys shared by ``runs`` and
    ``other``) in which it is identical on both sides, and the runs in
    which either side has it."""
    counts = {}
    for key, a in runs.items():
        b = other[key]["artifacts"]
        for name in set(a["artifacts"]) | set(b):
            same, seen = counts.get(name, (0, 0))
            counts[name] = (same + (a["artifacts"].get(name) == b.get(name)),
                            seen + 1)
    return dict(sorted(counts.items()))


def largest_ate(results, workload, seeds, other=None, n=3):
    """The ``n`` seeds of ``workload`` with the largest ATE, as text, with
    the ATE of the same seed in ``other`` when it is given."""
    def ate(runs, s):
        return runs[workload, s]["accuracy"].get("ate_rmse_m")

    known = [s for s in seeds if ate(results, s) is not None]
    parts = []
    for s in sorted(known, key=lambda s: -ate(results, s))[:n]:
        part = f"seed {s} {ate(results, s):.4g} m"
        if other is not None:
            b = ate(other, s)
            part += f" (other {b:.4g} m)" if b is not None else " (other n/a)"
        parts.append(part)
    return "largest ATE: " + ", ".join(parts)


def report(label, results, workloads, seeds, other=None):
    """The summary of each workload, its seeds of largest ATE (beside the
    same seeds of ``other``, when given) and its failed runs."""
    print(f"== {label}")
    for w in workloads:
        runs = [results[w, s] for s in seeds]
        figures = "  ".join(
            f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
            for k, v in summary(runs).items())
        print(f"{w}: {figures}")
        print("  " + largest_ate(results, w, seeds, other))
        for s in seeds:
            r = results[w, s]
            if not r["correct"] or r["failed"]:
                print(f"  seed {s}: correct {r['correct']}, failed frames "
                      f"{r['failed']}: {r['error']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default="1-30",
                        help="seeds such as 1-10,13 (default 1-30)")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--against", type=Path,
                        help="a second checkout to run and compare")
    parser.add_argument("--jobs", type=int, default=1,
                        help="runs at a time (default 1)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    command = bench["command"]

    results = sweep(ROOT, command, workloads, args.seeds, args.jobs)
    bad = any(not r["correct"] or r["failed"] for r in results.values())
    other = None
    if args.against:
        other = sweep(args.against.resolve(), command, workloads,
                      args.seeds, args.jobs)
    report(str(ROOT), results, workloads, args.seeds, other)
    if args.against:
        report(str(args.against), other, workloads, args.seeds, results)
        print("== rpe_p50_mm, this checkout minus the other")
        for w in workloads:
            diffs = []
            for s in args.seeds:
                a = results[w, s]["accuracy"].get("rpe_p50_mm")
                b = other[w, s]["accuracy"].get("rpe_p50_mm")
                diffs.append(f"{s}:{a - b:+.4f}" if None not in (a, b)
                             else f"{s}:n/a")
            print(f"{w}: " + " ".join(diffs))
        print("== streams and artifacts that differ")
        identical = 0
        for w in workloads:
            for s in args.seeds:
                differ = differences(results[w, s], other[w, s])
                if not differ:
                    identical += 1
                    continue
                print(f"{w} seed {s}:")
                out = Path(".perfbench_out") / f"{w}-{s}"
                for name in differ:
                    size = ("" if name in ("stream", "no record") else
                            ": " + largest_difference(
                                ROOT / out / name,
                                args.against.resolve() / out / name))
                    print(f"  {name}{size}")
        print("== runs in which each artifact is identical")
        for name, (same, seen) in identical_by_artifact(results,
                                                        other).items():
            print(f"{name}: {same} of {seen}")
        print(f"artifacts identical: {identical} of "
              f"{len(workloads) * len(args.seeds)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
