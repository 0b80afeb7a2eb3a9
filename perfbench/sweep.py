"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads class-d1k,operator]
                               [--trace-seeds 1-3] [--record "label"]
                               [--record-covering]

For each workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  The
benchmark's acceptance asks every spread except ``setup_s`` to stay
within the metric's bound.  Traced runs give the per-layer medians and
the tracing overhead: traced ``trace.pts_per_s`` against untraced
``pts_per_s``.  ``--record`` appends the summary to
``perfbench/trajectory.json`` as the next point of the trajectory;
``--record-covering`` stores each seed's ``covering_pct`` in
``perfbench/covering_ref.json``, which later runs are checked against.
"""
from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time

import run


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    saved = run.OUT / f"{workload}-seed{seed}-trace{trace}.json"
    if saved.exists():
        result["env"] = json.loads(saved.read_text())["env"]
    result.update(seed=seed, returncode=proc.returncode,
                  wall_s=time.perf_counter() - t0)
    if proc.returncode or not result.get("correct"):
        print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
    return result


def summarise(results: list[dict]) -> dict[str, dict]:
    out = {}
    for name in results[0].get("metrics", {}):
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else vals * 3)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "values": vals}
    return out


def record_covering(workload: str, results: list[dict]) -> None:
    """Merge each seed's covering_pct into ``covering_ref.json``."""
    path = run.HERE / "covering_ref.json"      # workloads.COVERING_REF
    ref = json.loads(path.read_text()) if path.exists() else {}
    seeds = ref.setdefault(workload, {})
    for r in results:
        if r.get("correct"):
            seeds[str(r["seed"])] = r["metrics"]["covering_pct"]["value"]
    ref[workload] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(ref, indent=1) + "\n")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--record", default="")
    ap.add_argument("--record-covering", action="store_true",
                    help="store each seed's covering_pct as the figure "
                         "later runs of that seed are checked against")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary, ok = {}, True
    for workload in args.workloads.split(","):
        plain = [one_run(workload, s, seconds, 0)
                 for s in seed_list(args.seeds)]
        traced = ([one_run(workload, s, seconds, 1)
                   for s in seed_list(args.trace_seeds)]
                  if args.trace_seeds else [])
        ok &= all(r["returncode"] == 0 for r in plain + traced)
        e2e = summarise(plain)
        entry = {"runs": len(plain), "env": plain[0].get("env"),
                 "run_wall_s": statistics.mean(r["wall_s"] for r in plain),
                 "end_to_end": e2e}
        print(f"== {workload}: {len(plain)} runs, "
              f"{entry['run_wall_s']:.1f} s each on average")
        for name, m in e2e.items():
            flag = "" if name == "setup_s" or m["spread"] is None or \
                m["spread"] <= bounds[name] / 3 else "  (above bound/3)"
            print(f"   {name:14s} median {m['median']:.6g} {m['unit']:5s} "
                  f"spread {m['spread']:.4f} bound {bounds[name]}{flag}")
        if traced:
            layers = summarise(traced)
            entry["per_layer_median"] = {k: v["median"]
                                         for k, v in layers.items()}
            overhead = (1 - layers["trace.pts_per_s"]["median"]
                        / e2e["pts_per_s"]["median"])
            entry["tracing_overhead"] = overhead
            print(f"   tracing overhead on pts_per_s: {100 * overhead:.1f}%")
        summary[workload] = entry
        if args.record_covering:
            record_covering(workload, plain)
    if args.record:
        path = run.HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append({"label": args.record, "git_sha": run.git_sha(),
                       "date": datetime.date.today().isoformat(),
                       "run_seconds": seconds, "env": run.environment(),
                       "workloads": summary})
        path.write_text(json.dumps(points, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
