"""Measure every workload over several seeds and append one point to the
bench trajectory (``perfbench/trajectory.json``).

    python3 perfbench/trajectory.py --label TEXT [--no-write]

Runs ``run.py`` as a separate command per run, as any caller would: ten
untraced runs (seeds 1..10) and three traced runs on every workload in
``BENCHMARK.json``, each for its ``run_seconds``.  For every metric it
records the median and quartiles over the runs
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.
An end-to-end metric is steady when its spread is below a third of its
bound; the spread of ``setup_s`` is reported but not required, only its
median is held to its bound.  It checks that every run was correct with no
failed pass and that the exact counts (``run.EXACT_COUNTS``) were identical
across traced runs.  When the last recorded point measured the same source
(same ``src_sha256``), each end-to-end median must also be within its
bound of that point's: two sets of runs of the same code agree.
``--no-write`` makes such a repeat set without appending it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from run import (EXACT_COUNTS, HERE, ROOT, commit, load_spec, quartiles,
                 src_digest)

TRAJECTORY = HERE / "trajectory.json"
RUNS = 10
TRACED_RUNS = 3


def bench(name: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    machine = next((json.loads(l[len("# machine: "):]) for l in lines
                    if l.startswith("# machine: ")), None)
    return json.loads(lines[-1]), machine


def measure(name: str, spec: dict) -> tuple:
    seconds = spec["run_seconds"]
    point = {"metrics": {}, "problems": []}
    machine = None
    for trace, count in ((0, RUNS), (1, TRACED_RUNS)):
        values = {}
        for seed in range(1, count + 1):
            t0 = time.perf_counter()
            line, machine = bench(name, seed, seconds, trace)
            if not line["correct"] or line["failed"]:
                point["problems"].append(
                    f"trace {trace} seed {seed}: correct={line['correct']} "
                    f"failed={line['failed']}/{line['attempted']}")
            for metric, m in line["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"  {name} trace {trace} seed {seed}: "
                  f"{time.perf_counter() - t0:.1f} s wall, "
                  + ", ".join(f"{k}={v['value']:.4g}"
                              for k, v in list(line["metrics"].items())[:3]),
                  flush=True)
        for metric, vals in values.items():
            point["metrics"][metric] = quartiles(vals)
            point["metrics"][metric]["unit"] = next(
                m["unit"] for m in spec["end_to_end" if trace == 0
                                        else "per_layer"]
                if m["name"] == metric)
            if metric in EXACT_COUNTS and len(set(vals)) > 1:
                point["problems"].append(f"{metric} not exact: {vals}")
    return point, machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--no-write", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() \
        else []
    point = {"label": args.label, "commit": commit(),
             "src_sha256": src_digest(), "run_seconds": spec["run_seconds"],
             "runs": RUNS, "traced_runs": TRACED_RUNS,
             "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "workloads": {}}
    earlier = points[-1] if points and \
        points[-1]["src_sha256"] == point["src_sha256"] else None
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        result, point["machine"] = measure(name, spec)
        point["workloads"][name] = result
        for problem in result["problems"]:
            ok = False
            print(f"PROBLEM {name}: {problem}")
        for metric, bound in bounds.items():
            s = result["metrics"][metric]
            spread = s["spread"]
            steady = spread is not None and spread < bound / 3
            ok &= steady or metric == "setup_s"
            spread = "n/a" if spread is None else f"{spread:.4f}"
            print(f"{name:15s} {metric:12s} median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {spread} "
                  f"(bound/3 {bound / 3:.4f})"
                  f"{'' if steady else '  WIDE'}", flush=True)
            if earlier is not None:
                before = earlier["workloads"][name]["metrics"][metric]["median"]
                worse = (s["median"] - before) / before
                if better[metric] == "higher":
                    worse = -worse
                agree = worse <= bound
                ok &= agree
                print(f"{name:15s} {metric:12s} vs {earlier['label']!r}: "
                      f"{before:.4f} -> {s['median']:.4f}, worse by "
                      f"{worse:+.4f} (bound {bound})"
                      f"{'' if agree else '  DISAGREES'}", flush=True)
    if not args.no_write:
        points.append(point)
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
        print(f"appended point {args.label!r} to "
              f"{TRAJECTORY.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
