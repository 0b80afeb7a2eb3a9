"""The benchmark's workloads, their seeded inputs and their output checks.

Every workload is a closed loop: the next point (or micro-batch, or
sweep) is sent only after the previous one returned.  Inputs come only
from the seed; the program sees nothing but the generated values.

* ``class-d1k`` / ``class-d10k`` -- standalone :class:`ClaSS`;
* ``operator`` -- the Structured Streaming operator ``class_cp_stream``;
* ``table3``   -- ``run_table3`` on a scaled-down corpus.

Each ``run_*`` function returns a :class:`Result`; ``run.py`` prints it.
"""
from __future__ import annotations

import array
import contextlib
import dataclasses
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import class_stream
from repro.core.class_stream import ClaSS, ClaSSConfig
from repro.datasets.generators import (distinct_regime, gen_segment,
                                       sample_regime)
from repro.metrics.covering import covering
from spans import Tracer, patched, percentile, typical

# Spark session set-ups per run; setup_s is their median.
SETUP_REPS = 3
# Every stream tried when the benchmark was defined covered at least 71%;
# a stream below this floor has lost CPs (see README).
COVERING_FLOOR_PCT = 50.0
# covering_pct per workload and seed, recorded from the program when the
# benchmark was defined (see ``sweep.py --record-covering``).  A run of a
# recorded seed fails its check when it falls more than
# COVERING_SLACK_PCT points below that figure; a higher figure passes.
COVERING_REF = Path(__file__).with_name("covering_ref.json")
COVERING_SLACK_PCT = 0.5
WORKER = Path(__file__).with_name("worker.py")


@dataclasses.dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: dict[str, float]          # end-to-end, untraced runs only
    layers: dict[str, float]           # per-layer, traced runs only
    extras: dict[str, object]          # printed and saved, not gated
    env: dict[str, object]
    attempted: int
    failed: int
    checks: list[str]                  # one line per failed check
    tracer: Tracer | None = None


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def regime_segments(seed, seg: tuple[int, int], noise: float = 0.1):
    """An endless stream of regimes with segment lengths drawn from
    ``seg``; yields ``(segment values, position where it ends)``."""
    rng = np.random.default_rng(seed)
    regime = sample_regime(rng)
    pos = 0
    while True:
        ln = int(rng.integers(seg[0], seg[1] + 1))
        values = gen_segment(regime, ln, rng, noise)
        pos += ln
        yield values, pos
        regime = distinct_regime(regime, rng)


def regime_stream(seed, n: int, seg: tuple[int, int],
                  noise: float = 0.1) -> tuple[np.ndarray, list[int]]:
    """The first ``n`` points of :func:`regime_segments` and the true
    change points among them."""
    parts, cps = [], []
    for values, end in regime_segments(seed, seg, noise):
        parts.append(values)
        cps.append(end)
        if end >= n:
            break
    return np.concatenate(parts)[:n], [c for c in cps if c < n]


def _prefix_cps(reported: list[tuple[int, int]], end: int) -> list[int]:
    """CPs reported while the first ``end`` points were processed, from
    ``(update index, cp)`` pairs."""
    return [cp for i, cp in reported if i < end]


def _increasing_and_causal(reported: list[tuple[int, int]]) -> bool:
    """CPs strictly increase, each before the point that reported it."""
    cps = [cp for _, cp in reported]
    return (all(a < b for a, b in zip(cps, cps[1:]))
            and all(0 < cp <= i for i, cp in reported))


def check_covering(workload: str, seed: int, cover: float,
                   ref: dict | None = None) -> list[str]:
    """A line if ``cover`` fell short of the figure recorded for this
    workload and seed; no line for a seed without a record."""
    if ref is None:
        ref = (json.loads(COVERING_REF.read_text())
               if COVERING_REF.exists() else {})
    want = ref.get(workload, {}).get(str(seed))
    if want is None or cover >= want - COVERING_SLACK_PCT:
        return []
    return [f"covering {cover:.4f}% is more than {COVERING_SLACK_PCT} "
            f"points below the {want:.4f}% recorded for seed {seed}"]


def in_processes(fn, calls: list[tuple]) -> list:
    """``fn(*args)`` for every ``args`` in ``calls``, each in a Python
    process of its own and all at once.  Every process is waited for,
    and killed first if the wait is cut short, so none outlives the run.
    Unlike a ``multiprocessing`` pool, this starts no helper process."""
    # The workers import what this process can: the program and ``fn``.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path
                                                       if p))
    with tempfile.TemporaryDirectory(prefix="calls-") as tmp:
        procs = []
        try:
            for k, args in enumerate(calls):
                call, result = Path(tmp, f"{k}.call"), Path(tmp, f"{k}.out")
                call.write_bytes(pickle.dumps((fn, args)))
                procs.append((subprocess.Popen(
                    [sys.executable, str(WORKER), str(call), str(result)],
                    env=env), result))
            for proc, _ in procs:
                proc.wait()
        finally:
            for proc, _ in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        failed = [k for k, (proc, _) in enumerate(procs) if proc.returncode]
        if failed:
            raise RuntimeError(f"{fn.__name__} failed in calls {failed}")
        return [pickle.loads(result.read_bytes()) for _, result in procs]


# ----------------------------------------------------------------------
# Standalone ClaSS
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class StandaloneSpec:
    d: int
    seg: tuple[int, int]   # segment length range of the input stream
    prefix: int            # points after warm-up that every run processes
    setup_reps: int        # set-ups per stream; setup_s is their median


STANDALONE = {
    # A CP every 2k points: regions stay short, per-point constants and
    # the Python driver dominate.  Segment lengths are fixed so that the
    # seed changes the regimes but not how long regions grow, which
    # sets the cost of an update.
    "class-d1k": StandaloneSpec(1000, (2000, 2000), 24_000, setup_reps=3),
    # Segments on the order of d: the unsegmented region spans most of
    # the window, so the O(d) k-NN and scoring math dominates.  One
    # set-up (the warm-up call) takes ~7 s here, so each stream does one.
    "class-d10k": StandaloneSpec(10_000, (7000, 7000), 8000, setup_reps=1),
}


def standalone_targets(tracer: Tracer, p_threshold: float):
    """The names ``repro.core.class_stream`` calls, wrapped."""
    def rows(tr, args, _):
        tr.counts["scoring.rows_scored"] += len(args[0])

    def rejected(tr, _, p):
        tr.counts["significance.rejected"] += p <= p_threshold

    wrap = tracer.wrap
    return [
        (ClaSS, "update", lambda f: wrap("class_stream.update", f)),
        (class_stream.StreamingKNN, "update",
         lambda f: wrap("streaming_knn.update", f)),
        (class_stream, "cross_val_scores",
         lambda f: wrap("scoring.cross_val_scores", f, rows)),
        (class_stream, "split_label_counts",
         lambda f: wrap("scoring.split_label_counts", f)),
        (class_stream, "resampled_rank_sum_test",
         lambda f: wrap("significance.test", f, rejected)),
        (class_stream, "learn_width",
         lambda f: wrap("suss.learn_width", f)),
    ]


def _warm_up(d: int, warm: list[float]) -> tuple[ClaSS, float, float]:
    """A fresh ClaSS fed its first ``d`` points (the last is the
    warm-up call that learns ``w`` and replays the buffer); returns it
    with the wall and CPU seconds this took."""
    t0, c0 = time.perf_counter(), time.process_time()
    cls = ClaSS(ClaSSConfig(d=d))
    for v in warm:
        cls.update(v)
    return cls, time.perf_counter() - t0, time.process_time() - c0


def stream_run(spec: StandaloneSpec, seed, seconds: float,
               trace: bool) -> dict:
    """One closed-loop caller feeding one ClaSS its own seeded stream;
    runs in a worker process and returns what it measured."""
    end = spec.d + spec.prefix
    # The input is made one segment at a time, so that the process's
    # peak RSS is the program's and not the input's.
    segments = regime_segments(seed, spec.seg)
    head, true_cps = [], []
    while len(head) < spec.d:
        values, seg_end = next(segments)
        head += values.tolist()
        true_cps.append(seg_end)
    warm, chunk = head[:spec.d], head[spec.d:]
    setups = [_warm_up(spec.d, warm)[1:]
              for _ in range(spec.setup_reps - 1)]
    tracer = Tracer() if trace else None
    tracing = (patched(standalone_targets(tracer, ClaSSConfig().p_threshold))
               if tracer else contextlib.nullcontext())
    lat = array.array("q")
    with tracing:
        cls, *setup = _warm_up(spec.d, warm)
        setups.append(tuple(setup))
        # The warm-up call returns only the latest CP of its replay.
        reported = [(spec.d - 1, cp) for cp in cls.change_points]
        update, clock, record = cls.update, time.perf_counter_ns, lat.append
        cpu = time.process_time_ns
        i, paused, cpu_paused = spec.d, 0, 0
        t_start, c_start = clock(), cpu()
        deadline = t_start + int(seconds * 1e9)
        while True:
            for v in chunk:
                t0 = clock()
                cp = update(v)
                t1 = clock()
                record(t1 - t0)
                if cp is not None:
                    reported.append((i, cp))
                i += 1
                if t1 >= deadline + paused and i >= end:
                    break
            else:
                # Making the next segment is not timed.
                g0, h0 = clock(), cpu()
                values, seg_end = next(segments)
                chunk = values.tolist()
                true_cps.append(seg_end)
                paused += clock() - g0
                cpu_paused += cpu() - h0
                continue
            break
        wall = (clock() - t_start - paused) / 1e9
        cpu_s = (cpu() - c_start - cpu_paused) / 1e9

    cover = 100 * covering([c for c in true_cps if c < end],
                           _prefix_cps(reported, end), end)
    checks = []
    if not _increasing_and_causal(reported):
        checks.append(f"CPs not increasing or ahead of input: {reported}")
    if [cp for _, cp in reported] != cls.change_points:
        checks.append("returned CPs differ from ClaSS.change_points")
    if cover < COVERING_FLOOR_PCT:
        checks.append(f"covering {cover:.2f}% < {COVERING_FLOOR_PCT}%")
    out = {"setups": setups, "lat": lat, "wall": wall, "cpu": cpu_s,
           "cover": cover, "checks": [f"stream {seed}: {c}" for c in checks],
           "width": cls.width, "cps": len(reported),
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        warmup_call = [s for s in tracer.spans
                       if s[2] == "class_stream.update"][spec.d - 1]
        out.update(totals=tracer.totals(), counts=dict(tracer.counts),
                   warmup_call_s=(warmup_call[4] - warmup_call[3]) / 1e9,
                   spans=tracer.spans)
    return out


def run_standalone(name: str, seed: int, seconds: float, trace: bool,
                   spec: StandaloneSpec | None = None) -> Result:
    """``nproc`` streams at once, one process each; ``pts_per_s`` and
    ``op_ms`` are the fastest stream's.  The streams run the same code
    on like inputs, yet their speeds fall into two groups about 1.5x
    apart, and which streams are slow changes from run to run: the host
    runs other work on the same physical cores.  The fastest stream is
    the one least disturbed; a mean over streams moved with the size of
    the slow group, by up to a third between two sets of runs."""
    spec = spec or STANDALONE[name]
    n = len(os.sched_getaffinity(0))
    runs = in_processes(stream_run, [(spec, (seed, k), seconds, trace)
                                     for k in range(n)])
    lat = [t for r in runs for t in r["lat"]]
    checks = [c for r in runs for c in r["checks"]]
    rates = [len(r["lat"]) / r["cpu"] for r in runs]
    ops = [typical(r["lat"]) for r in runs]
    best = max(range(n), key=rates.__getitem__)
    res = Result(
        metrics={"setup_s": statistics.median(c for r in runs
                                              for _, c in r["setups"]),
                 "pts_per_s": rates[best],
                 "op_ms": ops[best][0] / 1e6,
                 "covering_pct": statistics.mean(r["cover"] for r in runs),
                 "peak_rss_mb": max(r["rss_mb"] for r in runs)},
        layers={}, env={},
        extras={"op": "ClaSS.update", "op_stat": ops[best][1],
                "op_samples": len(runs[best]["lat"]), "streams": n,
                "fastest_stream": best,
                "update_p99_us": percentile(lat, 99) / 1e3,
                "stream_pts_per_s": rates,
                "stream_op_ms": [op / 1e6 for op, _ in ops],
                "stream_setup_cpu_s": [[c for _, c in r["setups"]]
                                       for r in runs],
                "stream_setup_wall_s": [[w for w, _ in r["setups"]]
                                        for r in runs],
                "wall_pts_per_s": [len(r["lat"]) / r["wall"] for r in runs],
                "width": [r["width"] for r in runs],
                "cps": [r["cps"] for r in runs]},
        attempted=n, failed=sum(bool(r["checks"]) for r in runs),
        checks=checks)
    if trace:
        res.tracer = Tracer()
        for k, r in enumerate(runs):
            # Span ids are unique per process; keep them unique here.
            off = k << 40
            res.tracer.spans += [(sid + off, parent + off if parent >= 0
                                  else -1, name, t0, t1)
                                 for sid, parent, name, t0, t1 in r["spans"]]
        res.layers = _standalone_layers(runs, lat, res.metrics["pts_per_s"])
    return res


def _standalone_layers(runs: list[dict], lat: list[int],
                       pts_per_s: float) -> dict[str, float]:
    """Per-layer sums over the streams of a traced run."""
    def t(name, key="s"):
        return sum(r["totals"].get(name, {}).get(key, 0) for r in runs)

    def c(name):
        return sum(r["counts"].get(name, 0) for r in runs)

    knn_calls = t("streaming_knn.update", "calls")
    tests = t("significance.test", "calls")
    return {
        "streaming_knn.update_s": t("streaming_knn.update"),
        "streaming_knn.update_calls": knn_calls,
        "streaming_knn.update_us": 1e6 * t("streaming_knn.update")
        / max(1, knn_calls),
        "scoring.cross_val_scores_s": t("scoring.cross_val_scores"),
        "scoring.cross_val_scores_calls": t("scoring.cross_val_scores",
                                            "calls"),
        "scoring.rows_scored": c("scoring.rows_scored"),
        "scoring.split_label_counts_s": t("scoring.split_label_counts"),
        "significance.test_s": t("significance.test"),
        "significance.tests": tests,
        "significance.rejected": c("significance.rejected"),
        "significance.reject_ratio": c("significance.rejected")
        / max(1, tests),
        "suss.learn_width_s": t("suss.learn_width"),
        "suss.width": statistics.median(r["width"] for r in runs),
        "class_stream.self_s": t("class_stream.update", "self_s"),
        "class_stream.update_calls": t("class_stream.update", "calls"),
        "class_stream.warmup_call_s":
            statistics.median(r["warmup_call_s"] for r in runs),
        "class_stream.cps": sum(r["cps"] for r in runs),
        "class_stream.update_p99_us": percentile(lat, 99) / 1e3,
        "trace.pts_per_s": pts_per_s,
    }


# ----------------------------------------------------------------------
# Spark workloads
# ----------------------------------------------------------------------
def _spark_setups(app: str, first_job) -> tuple[object, list[float]]:
    """``SETUP_REPS`` fresh sessions from the program's own helper, each
    followed by the workload's first job; the last one is returned.
    The first set-up also launches the JVM."""
    from _session import get_session

    spark, setups = None, []
    for _ in range(SETUP_REPS):
        if spark is not None:
            spark.stop()
        t0 = time.perf_counter()
        spark = get_session(app)
        spark.sparkContext.setLogLevel("ERROR")
        first_job(spark)
        setups.append(time.perf_counter() - t0)
    return spark, setups


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it.

    A run must not end while its JVM still runs, or the JVM would
    overlap the next run.  After ``spark.stop()`` alone the JVM outlived
    the Python process by about 1.5 s on a 4-core x86_64 VM; PySpark has
    no public call that ends it, so this uses the gateway's handles."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    # The JVM exits when its standard input closes.
    gateway.proc.stdin.close()
    gateway.proc.wait(timeout=60)
    SparkContext._gateway = SparkContext._jvm = None


def spark_env(spark) -> dict[str, object]:
    conf = spark.conf
    return {"spark_master": spark.sparkContext.master,
            "default_parallelism": spark.sparkContext.defaultParallelism,
            "spark.sql.adaptive.enabled":
                conf.get("spark.sql.adaptive.enabled"),
            "spark.sql.shuffle.partitions":
                conf.get("spark.sql.shuffle.partitions")}


# --- operator ---------------------------------------------------------
OP_D = 1000
OP_CHUNK = 1000          # points per key per micro-batch (batch 0 = warm-up)
OP_MIN_TRIGGERS = 2      # measured triggers after the warm-up trigger
OP_MAX_BATCHES = 60
OP_DEADLINE_S = 150      # give up on a stuck query after this long
# operator.<metric> -> the StreamingQueryProgress duration it sums.
_DURATIONS = {"trigger_ms_sum": "triggerExecution",
              "add_batch_ms": "addBatch", "wal_commit_ms": "walCommit",
              "commit_offsets_ms": "commitOffsets",
              "query_planning_ms": "queryPlanning",
              "latest_offset_ms": "latestOffset", "get_batch_ms": "getBatch"}


def replay(values: np.ndarray) -> dict[str, object]:
    """Standalone ClaSS over one key's points, with what the operator
    check and the state-size layer need.  Runs in a worker process."""
    cls = ClaSS(ClaSSConfig(d=OP_D))
    reported = []
    for i, v in enumerate(values.tolist()):
        cp = cls.update(v)
        if cp is not None:
            reported.append((i, cp))
    blob = pickle.dumps(cls)
    serde = []
    for _ in range(5):
        t0 = time.perf_counter()
        pickle.loads(pickle.dumps(cls))
        serde.append(time.perf_counter() - t0)
    return {"reported": reported, "width": cls.width,
            "pickle_bytes": len(blob),
            "serde_ms": 1e3 * statistics.median(serde)}


def check_operator(got: dict[str, list[int]],
                   expected: dict[str, list[int]]) -> list[str]:
    """One line per key whose operator CPs differ from standalone CPs."""
    return [f"key {k}: operator CPs {got.get(k, [])} != standalone {cps}"
            for k, cps in sorted(expected.items()) if got.get(k, []) != cps]


def _input_triggers(query, n: int, deadline: float) -> list:
    """Wait until ``n`` triggers with input have completed."""
    while True:
        done = [p for p in query.recentProgress if p.numInputRows > 0]
        if len(done) >= n:
            return done
        if query.exception() is not None:
            raise RuntimeError(f"streaming query failed: {query.exception()}")
        if time.monotonic() > deadline:
            raise TimeoutError(f"{len(done)} of {n} triggers done in time")
        time.sleep(0.02)


def operator_targets(tracer: Tracer):
    """The driver-side operator call, wrapped."""
    from repro.streaming import operator as op_mod

    return [(op_mod, "class_cp_stream",
             lambda f: tracer.wrap("operator.class_cp_stream", f))]


def run_operator(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    import pandas as pd

    from repro.streaming import operator as op_mod

    keys = [f"k{k}" for k in range(len(os.sched_getaffinity(0)))]
    streams = {k: regime_stream((seed, i), (OP_MAX_BATCHES + 1) * OP_CHUNK,
                                STANDALONE["class-d1k"].seg)
               for i, k in enumerate(keys)}
    root = work / "operator"
    shutil.rmtree(root, ignore_errors=True)
    stage, watched = root / "stage", root / "in"
    stage.mkdir(parents=True)
    watched.mkdir()

    def write_batch(b: int) -> Path:
        """Micro-batch ``b``: the next chunk of every key, in one file."""
        lo, hi = b * OP_CHUNK, (b + 1) * OP_CHUNK
        path = stage / f"batch-{b:05d}.parquet"
        pd.concat([pd.DataFrame({
            "series_id": k, "t": np.arange(lo, hi, dtype=np.int64),
            "value": streams[k][0][lo:hi]}) for k in keys],
            ignore_index=True).to_parquet(path, index=False)
        return path

    staged = write_batch(0)
    spark, setups = _spark_setups(
        "perfbench-operator",
        lambda s: s.read.schema(op_mod.INPUT_SCHEMA)
        .parquet(str(staged)).count())
    tracer = Tracer() if trace else None
    tracing = (patched(operator_targets(tracer)) if tracer
               else contextlib.nullcontext())
    span = tracer.span if tracer else (lambda _: contextlib.nullcontext())
    name = f"perfbench_cps_{seed}"
    try:
        with tracing:
            stream = (spark.readStream.schema(op_mod.INPUT_SCHEMA)
                      .option("maxFilesPerTrigger", 1).parquet(str(watched)))
            query = (op_mod.class_cp_stream(stream, d=OP_D)
                     .writeStream.format("memory").queryName(name)
                     .outputMode("append")
                     .option("checkpointLocation", str(root / "ckpt"))
                     .start())
            deadline = time.monotonic() + OP_DEADLINE_S
            try:
                batches, t_measure = 0, None
                while batches < OP_MAX_BATCHES:
                    with span("operator.batch"):
                        # Files appear atomically, one per finished trigger.
                        os.replace(staged, watched / staged.name)
                        batches += 1
                        staged = write_batch(batches)
                        _input_triggers(query, batches, deadline)
                    if t_measure is None:
                        t_measure = time.perf_counter()
                    elif (batches - 1 >= OP_MIN_TRIGGERS and
                          time.perf_counter() - t_measure >= seconds):
                        break
                progress = _input_triggers(query, batches, deadline)
            finally:
                query.stop()
            out = spark.table(name).toPandas()
        env = spark_env(spark)
    finally:
        stop_spark(spark)

    n_points = batches * OP_CHUNK
    with span("operator.standalone_check"):
        replicas = dict(zip(keys, in_processes(
            replay, [(streams[k][0][:n_points],) for k in keys])))
    got = {k: sorted(int(c) for c in g["cp"])
           for k, g in out.groupby("series_id")}
    checks = check_operator(got, {k: [cp for _, cp in r["reported"]]
                                  for k, r in replicas.items()})
    end = (1 + OP_MIN_TRIGGERS) * OP_CHUNK
    cover = 100 * statistics.mean(
        covering([c for c in streams[k][1] if c < end],
                 _prefix_cps(r["reported"], end), end)
        for k, r in replicas.items())

    measured = progress[1:]
    trig = [p.durationMs["triggerExecution"] for p in measured]
    rows = sum(p.numInputRows for p in measured)
    op, stat = typical(trig)
    res = Result(
        metrics={"setup_s": statistics.median(setups),
                 "pts_per_s": rows / (sum(trig) / 1e3),
                 "op_ms": op,
                 "covering_pct": cover},
        layers={}, env=env,
        extras={"op": "trigger (durationMs.triggerExecution)",
                "op_stat": stat, "op_samples": len(trig),
                "keys": len(keys), "points_per_key": n_points,
                "setup_reps_s": setups,
                "first_trigger_ms":
                    progress[0].durationMs["triggerExecution"]},
        attempted=len(keys), failed=len(checks), checks=checks, tracer=tracer)
    if tracer:
        state = measured[-1].stateOperators[0]
        sums = {f"operator.{k}": sum(p.durationMs.get(v, 0) for p in measured)
                for k, v in _DURATIONS.items()}
        res.layers = {
            "operator.triggers": len(measured), **sums,
            "operator.rows_in": rows,
            "operator.state_rows": state.numRowsTotal,
            "operator.state_bytes": state.memoryUsedBytes,
            "operator.state_partitions": state.numShufflePartitions,
            "operator.first_trigger_ms":
                progress[0].durationMs["triggerExecution"],
            "operator.state_pickle_bytes": replicas[keys[0]]["pickle_bytes"],
            "operator.state_serde_ms": replicas[keys[0]]["serde_ms"],
            "suss.width": replicas[keys[0]]["width"],
            "spark.cold_setup_s": setups[0],
            "trace.pts_per_s": res.metrics["pts_per_s"],
        }
    return res


# --- table3 -----------------------------------------------------------
def table3_specs():
    """Every collection of the corpus, one short series each."""
    from repro.datasets.archives import COLLECTIONS

    return tuple(dataclasses.replace(c, n_series=1, length_range=(1400, 1800))
                 for c in COLLECTIONS)


def table3_targets(tracer: Tracer):
    """Driver-side names ``repro.harness.evaluate`` calls, wrapped."""
    from repro.harness import evaluate

    def detector_time(tr, args, out):
        per_series = out.groupby("series_id")["elapsed"].first()
        tr.counts[f"baselines.{args[1]}.detector_s"] += float(per_series.sum())
        tr.counts["batch_apply.detector_s"] += float(per_series.sum())
        tr.counts["batch_apply.series_runs"] += len(per_series)

    wrap = tracer.wrap
    return [
        (evaluate, "tune_method", lambda f: wrap("evaluate.tune_method", f)),
        (evaluate, "evaluate_method",
         lambda f: wrap("evaluate.evaluate_method", f)),
        (evaluate, "segment_corpus_spark",
         lambda f: wrap("batch_apply.segment_corpus_spark", f, detector_time)),
        (evaluate, "corpus_to_spark",
         lambda f: wrap("archives.corpus_to_spark", f)),
        (evaluate, "summarize_with_oracle",
         lambda f: wrap("evaluate.summarize_with_oracle", f)),
    ]


def run_table3_workload(seed: int, seconds: float, trace: bool) -> Result:
    from repro.datasets.archives import corpus_to_spark, make_corpus
    from repro.harness.evaluate import METHODS, run_table3

    specs = table3_specs()
    corpus_s, records = [], []

    def first_job(spark):
        t0 = time.perf_counter()
        records[:] = make_corpus(seed, specs)
        corpus_s.append(time.perf_counter() - t0)
        corpus_to_spark(spark, records).count()

    spark, setups = _spark_setups("perfbench-table3", first_job)
    tracer = Tracer() if trace else None
    tracing = (patched(table3_targets(tracer)) if tracer
               else contextlib.nullcontext())
    span = tracer.span if tracer else (lambda _: contextlib.nullcontext())
    sweeps, first = [], None
    try:
        with tracing:
            while not sweeps or sum(sweeps) < seconds:
                t0 = time.perf_counter()
                with span("evaluate.run_table3"):
                    out = run_table3(spark, seed=seed, records=records)
                sweeps.append(time.perf_counter() - t0)
                first = first or out
        env = spark_env(spark)
    finally:
        stop_spark(spark)

    scores, summary = first["scores"], first["summary"]
    expected = len(METHODS) * len(records)
    checks = []
    if len(scores) != expected:
        checks.append(f"{len(scores)} (method, series) results, "
                      f"expected {expected}")
    if not scores["covering"].between(0, 1).all():
        checks.append("Covering outside [0, 1]")
    n_coll = len({r.collection for r in records})
    if len(summary) != len(METHODS) * n_coll:
        checks.append(f"{len(summary)} summary rows, expected "
                      f"{len(METHODS) * n_coll}")
    points = len(METHODS) * sum(r.n for r in records)
    op, stat = typical(sweeps)
    res = Result(
        metrics={"setup_s": statistics.median(setups),
                 "pts_per_s": points / statistics.mean(sweeps),
                 "op_ms": 1e3 * op,
                 "covering_pct": 100 * float(scores["covering"].mean())},
        layers={}, env=env,
        extras={"op": "run_table3 sweep", "op_stat": stat,
                "op_samples": len(sweeps), "sweep_s": sweeps,
                "series": len(records),
                "corpus_points": points // len(METHODS),
                "setup_reps_s": setups},
        attempted=expected, failed=len(checks), checks=checks, tracer=tracer)
    if tracer:
        res.layers = _table3_layers(tracer, corpus_s, setups)
        res.layers["trace.pts_per_s"] = res.metrics["pts_per_s"]
    return res


def _table3_layers(tracer: Tracer, corpus_s, setups) -> dict:
    from repro.harness.evaluate import METHODS

    tot = tracer.totals()
    names = {sid: name for sid, _, name, _, _ in tracer.spans}
    evaluate_s = sum((t1 - t0) / 1e9 for _, parent, name, t0, t1
                     in tracer.spans if name == "evaluate.evaluate_method"
                     and names.get(parent) != "evaluate.tune_method")
    c = tracer.counts
    jobs = tot.get("batch_apply.segment_corpus_spark",
                   {"calls": 0, "s": 0.0})
    return {
        "batch_apply.jobs": jobs["calls"],
        "batch_apply.job_s": jobs["s"],
        "batch_apply.detector_s": c["batch_apply.detector_s"],
        "batch_apply.series_runs": c["batch_apply.series_runs"],
        "batch_apply.parallelism": c["batch_apply.detector_s"]
        / max(jobs["s"], 1e-9),
        "archives.make_corpus_s": statistics.median(corpus_s),
        "archives.corpus_to_spark_s":
            tot.get("archives.corpus_to_spark", {}).get("s", 0.0),
        "archives.corpus_to_spark_calls":
            tot.get("archives.corpus_to_spark", {}).get("calls", 0),
        "evaluate.tune_s": tot.get("evaluate.tune_method", {}).get("s", 0.0),
        "evaluate.evaluate_s": evaluate_s,
        "evaluate.oracle_s":
            tot.get("evaluate.summarize_with_oracle", {}).get("s", 0.0),
        **{f"baselines.{m}.detector_s": c[f"baselines.{m}.detector_s"]
           for m in METHODS},
        "spark.cold_setup_s": setups[0],
    }


WORKLOADS = ("class-d1k", "class-d10k", "operator", "table3")


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> Result:
    if workload in STANDALONE:
        return run_standalone(workload, seed, seconds, trace)
    if workload == "operator":
        return run_operator(seed, seconds, trace, work)
    if workload == "table3":
        return run_table3_workload(seed, seconds, trace)
    raise ValueError(f"unknown workload {workload!r}")
