"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload class-d1k --seed 1 --seconds 10 \
        --trace 0

Run it from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` wraps the
program's layers and reports the per-layer metrics instead.  Human-
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result, with the environment, goes to ``perfbench/out/``, and a
traced run writes its spans there too.

Exit status: 0 when every check passed, 1 when a check failed or the
workload raised, 2 when the checkout does not hold the program.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import signal
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def spin_ms() -> float:
    """A fixed pure-Python CPU loop; its time shows how loaded the host
    was around a run.  Reported, never used to drop runs."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return 1e3 * (time.perf_counter() - t0)


def driver_mem() -> str:
    """Half the machine's memory in GiB, clipped to 2..8, as the tier-1
    test command sets it."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    gib = int(line.split()[1]) // 2097152
                    return f"{min(8, max(2, gib))}g"
    except (OSError, ValueError, IndexError):
        pass
    return "2g"


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def prepare_environment() -> None:
    """Make the program importable here and in Spark's Python workers
    (``repro`` is not installed), and keep Spark's scratch files inside
    the checkout.  Spark settings are left to the program's own
    ``jobs/_session.get_session``."""
    for sub in ("spark-local", "tmp"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    paths = [str(ROOT / "src"), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ.setdefault("SPARK_DRIVER_MEM", driver_mem())
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    os.environ["TMPDIR"] = str(OUT / "tmp")
    # The JVM would also keep its perf-data file in the system /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = (f"-Djava.io.tmpdir={OUT / 'tmp'} "
                                       "-XX:-UsePerfData")
    for inherited in ("PYSPARK_SUBMIT_ARGS", "SPARK_SHUFFLE_PARTITIONS"):
        os.environ.pop(inherited, None)
    tempfile.tempdir = None
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs")]


PR_SET_CHILD_SUBREAPER = 36   # from <linux/prctl.h>


def adopt_orphans() -> None:
    """Make this process the parent of every orphaned descendant, so
    that :func:`reap_descendants` can wait for it.  The launch script of
    Spark's JVM leaves a child behind that would otherwise outlive the
    run, parented to init.  Linux only; elsewhere a no-op."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """The processes whose parent is this one, zombies included."""
    me, out = os.getpid(), []
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                stat = Path(entry.path, "stat").read_text()
            except OSError:
                continue
            # The fields after the parenthesised command: state, ppid, ...
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                out.append(int(entry.name))
    return out


def reap_descendants(grace_s: float = 30.0) -> None:
    """Wait until no child of this process is left; kill the ones still
    running after ``grace_s`` seconds."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in child_pids():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.02)


def environment() -> dict[str, object]:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "pyspark": version("pyspark"), "machine": platform.machine(),
            "spark_driver_mem": os.environ.get("SPARK_DRIVER_MEM",
                                               driver_mem()),
            # Standalone workloads start no Spark session.
            "spark_master": None, "default_parallelism": None,
            "spark.sql.adaptive.enabled": None,
            "spark.sql.shuffle.partitions": None}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not ((ROOT / "src" / "repro").is_dir()
            and (ROOT / "jobs" / "_session.py").is_file()
            and (ROOT / "BENCHMARK.json").is_file()):
        print("perfbench: run from the root of a checkout holding src/repro, "
              "jobs/_session.py and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2

    prepare_environment()
    adopt_orphans()
    import workloads

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    spin_before = spin_ms()
    try:
        res = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), OUT)
    except Exception:
        traceback.print_exc()
        res = None
    finally:
        reap_descendants()
    spin_after = spin_ms()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if res is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    # The run's answers must be as good as the ones recorded for its seed.
    covering_checks = workloads.check_covering(
        args.workload, args.seed, res.metrics["covering_pct"])
    if covering_checks:
        res.checks += covering_checks
        res.failed = min(res.attempted, res.failed + 1)
    env.update(res.env)
    host = {"spin_before_ms": spin_before, "spin_after_ms": spin_after}
    # A workload that runs its work in worker processes reports their RSS.
    values = ({"peak_rss_mb": peak_rss_mb, **res.metrics} if not args.trace
              else dict(res.layers, **{f"host.{k}": v
                                       for k, v in host.items()}))
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in spec[kind]}
    correct = not res.checks
    extras = dict(res.extras, failed_ops_frac=res.failed / res.attempted)

    for k, v in env.items():
        print(f"env {k} = {v}")
    for k, v in host.items():
        print(f"host {k} = {v:.1f}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for k, v in extras.items():
        print(f"extra {k} = {v}")
    for line in res.checks:
        print(f"CHECK FAILED {line}")
    print(f"checks {'passed' if correct else 'FAILED'}: "
          f"{res.failed} of {res.attempted} operations failed")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "host": host, "metrics": metrics, "extras": extras,
        "checks": res.checks, "attempted": res.attempted,
        "failed": res.failed, "correct": correct}, indent=1, default=str))
    if res.tracer is not None:
        res.tracer.write(str(OUT / f"spans-{stem}.jsonl.gz"))
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
