"""Steadiness check: two sets of benchmark runs of one checkout.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload dense_traffic --runs 10 --sets 2

Runs the command of ``BENCHMARK.json`` ``--runs`` times per set, on
seeds 1 to ``--runs``, with its run length and tracing off.  For every
end-to-end metric it prints, per set, the median and the
spread (distance between the first and third quartile, as a share of
the median), then the second median's change against the first, each
beside the metric's bound; and the share of failed operations per set.
Below them, for comparison, it prints the same figures for the unscaled
wall time of tracking, which is not a metric of the benchmark.
Raw results go to ``.perfbench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2].split(" ", 1)[1])
    result["track_wall_s"] = statistics.median(record["unscaled"]["track_s"])
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for a spread")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for k in range(args.sets):
        runs = []
        for seed in range(1, args.runs + 1):
            result = run_once(bench, args.workload, seed)
            runs.append(dict(result, seed=seed))
            print(f"set {k + 1} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        sets.append(runs)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(sets))

    print(f"{args.workload}: {args.runs} runs x {args.sets} sets, "
          f"{bench['run_seconds']} s each")
    header = f"{'metric':<22}"
    for k in range(args.sets):
        header += f" {'median ' + str(k + 1):>12} {'spread ' + str(k + 1):>9}"
    print(header + f" {'change':>8} {'bound':>6}")
    ok = True
    for name, spec in specs.items():
        values = [[r["metrics"][name]["value"] for r in runs]
                  for runs in sets]
        row = f"{name:<22}"
        for vals in values:
            row += f" {statistics.median(vals):>12.6g} {spread(vals):>9.3f}"
        bound = spec["bound"]
        if len(values) > 1:
            m1, m2 = (statistics.median(v) for v in values[:2])
            worse = (m2 - m1) / m1 if spec["better"] == "lower" \
                else (m1 - m2) / m1
            row += f" {worse:>+8.3f}"
            ok = ok and worse <= bound
        row += f" {bound:>6.3f}"
        if name != "setup_s" and any(spread(v) > bound for v in values):
            ok = False
        print(row)
    values = [[r["track_wall_s"] for r in runs] for runs in sets]
    row = f"{'(unscaled track wall s)':<22}"
    for vals in values:
        row += f" {statistics.median(vals):>12.6g} {spread(vals):>9.3f}"
    print(row)
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"]
                                                   for r in runs)
              for runs in sets]
    print("failed share per set: " + ", ".join(f"{s:.6f}" for s in shares))
    correct = all(r["correct"] for runs in sets for r in runs)
    print(f"all runs correct: {correct}")
    ok = ok and correct and len(set(shares)) == 1
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
