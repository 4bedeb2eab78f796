"""Seeded closed-loop benchmark of ntpboost.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One process runs one workload's ops one at a time, each starting when
the previous one and its correctness check have ended, with numpy's
thread pools capped at one thread.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced ops with ops that run with
every public entry point wrapped, and prints the per-layer metrics.
Times are in nominal seconds: measured wall or CPU time scaled by the
core speed sampled while it ran (see ``speed.py``); the raw times are in
the report.  The last line of standard output is the result JSON; a full
report with run metadata and per-op output digests goes to
``benchmarks/results/``.
"""

import os

THREAD_CAPS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 9  # fresh processes timed for setup_s
CHILD_TIMEOUT_S = 60


def source_digest() -> str:
    """sha256 over the package and the input generator, so runs of the same
    code and inputs can be told apart from others."""
    pkg = os.path.join(SRC, "ntpboost")
    paths = [os.path.join(HERE, "workloads.py")]
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths += [
            os.path.join(dirpath, f) for f in filenames if f.endswith((".py", ".json"))
        ]
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return out.stdout.strip() or None


def child_setup_seconds(args) -> tuple[float, float]:
    """Wall and nominal time from spawning a fresh ``--setup-only`` process
    until it reports that its first op is ready: interpreter start, imports
    and inputs.  The child samples its own core speed from just after
    importing numpy; the same rate scales the time before that."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        child.stdout.close()
        rc = child.wait(timeout=CHILD_TIMEOUT_S)
    word, *values = line.split() or [""]
    if rc != 0 or word != "ready" or len(values) != 2:
        raise RuntimeError(f"--setup-only exited {rc} after printing {line!r}")
    rate, spent = map(float, values)
    return elapsed, (elapsed - spent) * rate


class Runner:
    """Closed loop of ops, each checked outside its timed interval.

    ``records`` holds one dict per op run: its op id, its pool entry,
    wall and CPU time, the sampled core speed and the sampler's time
    inside it, wall and CPU time in nominal seconds, whether it was the
    warm-up or traced, its output digest and its error, if any.  Untraced
    ops use pool entry ``op % len(pool)``.  With a tracer, odd ops are traced and op ``i``
    uses entry ``i // 2``, so each traced op repeats the input of the
    untraced op before it.
    """

    def __init__(self, wl, pool, meter, tracer=None):
        self.wl, self.pool, self.meter, self.tracer = wl, pool, meter, tracer
        self.records: list[dict] = []
        self.next_op = 0

    def run_op(self, warmup=False, traced=False) -> dict:
        if warmup:
            op = 0
        else:
            op = self.next_op
            self.next_op += 1
        entry = (op if self.tracer is None else op // 2) % len(self.pool)
        inp = self.pool[entry]
        if traced:
            self.tracer.install(self.wl.op.__module__)
            self.tracer.op = op
        rec = {"op": op, "entry": entry, "warmup": warmup, "traced": traced,
               "error": None}
        mark = self.meter.mark()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = self.wl.op(inp)
        except Exception as e:  # a raising op is a failed op, never dropped
            rec["error"] = f"raised {e!r}"
        t1, c1 = time.perf_counter(), time.process_time()
        rate, spent = self.meter.since(mark)
        if traced:
            self.tracer.uninstall()
        rec["wall_s"], rec["cpu_s"] = t1 - t0, c1 - c0
        rec["rate"], rec["sampler_s"] = rate, spent
        rec["op_s"] = (rec["wall_s"] - spent) * rate
        rec["op_cpu_s"] = (rec["cpu_s"] - spent) * rate
        if rec["error"] is None:
            try:
                ok, payload, detail = self.wl.check(inp, out)
            except Exception as e:
                ok, payload, detail = False, b"", f"check raised {e!r}"
            rec["digest"] = hashlib.sha256(payload).hexdigest()
            if not ok:
                rec["error"] = detail
        self.records.append(rec)
        return rec

    def loop(self, seconds: float) -> float:
        """Run ops until the next would end past ``seconds``; return elapsed.

        With a tracer, every second op is traced, so slow drift of the
        machine's speed hits traced and untraced ops alike, and the loop
        runs at least one pair of an untraced and a traced op.
        """
        start = time.perf_counter()
        min_ops = 1 if self.tracer is None else 2
        while True:
            rec = self.run_op(traced=self.tracer is not None and self.next_op % 2 == 1)
            elapsed = time.perf_counter() - start
            if elapsed + rec["wall_s"] > seconds and self.next_op >= min_ops:
                return elapsed


def p50(values) -> float:
    return statistics.median(list(values))


def digest_conflicts(report: dict) -> list[str]:
    """Compare per-op digests with earlier reports of the same code and seed."""
    meta = report["meta"]
    conflicts = []
    for name in sorted(os.listdir(RESULTS)):
        if not name.startswith(f"{meta['workload']}-seed{meta['seed']}-"):
            continue
        try:
            with open(os.path.join(RESULTS, name)) as fh:
                other = json.load(fh)
        except (OSError, ValueError):
            continue
        if other.get("meta", {}).get("source_digest") != meta["source_digest"]:
            continue
        for op, digest in report["op_digests"].items():
            theirs = other.get("op_digests", {}).get(op)
            if theirs is not None and theirs != digest:
                conflicts.append(f"op {op} digest differs from {name}")
    return conflicts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "ntpboost", "__init__.py")):
        print(f"error: no ntpboost sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        meter = speed.Meter()
        meter.start()
    sys.path.insert(0, SRC)
    import ntpboost
    import workloads

    if os.path.dirname(os.path.abspath(ntpboost.__file__)) != os.path.join(SRC, "ntpboost"):
        print(f"error: imported ntpboost from {ntpboost.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    pool = wl.setup(args.seed)
    if args.setup_only:
        meter.stop()
        rate, spent = meter.since((0, 0.0))
        print(f"ready {rate!r} {spent!r}", flush=True)
        return 0
    return measure(args, wl, pool)


def measure(args, wl, pool) -> int:
    tracer = tracing.Tracer(args.workload) if args.trace else None
    meter = speed.Meter()
    runner = Runner(wl, pool, meter, tracer)
    meter.start()
    try:
        runner.run_op(warmup=True)  # untimed: lets lazy set-up and caches settle
        loop_mark = meter.mark()
        timed_s = runner.loop(args.seconds)
    finally:
        meter.stop()
    timed_nominal_s = meter.nominal(timed_s, loop_mark)
    records = runner.records
    timed = [r for r in records if not r["warmup"] and not r["traced"]]
    traced = [r for r in records if r["traced"]]

    failures = [{"op": r["op"], "error": r["error"]} for r in records if r["error"]]
    errors = [f"op {f['op']}: {f['error']}" for f in failures]
    op_digests = {}
    for r in records:
        if "digest" not in r:
            continue
        entry = str(r["entry"])
        if op_digests.setdefault(entry, r["digest"]) != r["digest"]:
            errors.append(f"op {r['op']} repeats pool entry {entry} with another digest")

    walls = [r["wall_s"] for r in timed]
    setups = []
    if tracer is not None:
        metrics = tracer.summary(
            {r["op"]: r["wall_s"] for r in traced}, {r["op"]: r["rate"] for r in traced}
        )
        errors += [f"coverage: {e}" for e in tracer.coverage_errors()]
        metrics["trace.op_s.p50"] = (p50(r["op_s"] for r in traced), "s")
        by_op = {r["op"]: r for r in records if not r["warmup"]}
        paired = [r["op_s"] - by_op[r["op"] - 1]["op_s"] for r in traced]
        metrics["trace.overhead_s"] = (p50(paired), "s")
    else:
        setups = [child_setup_seconds(args) for _ in range(SETUP_REPEATS)]
        metrics = {
            "setup_s": (p50(nominal for _, nominal in setups), "s"),
            "op_s.p50": (p50(r["op_s"] for r in timed), "s"),
            "ops_per_s": (sum(not r["error"] for r in timed) / timed_nominal_s, "1/s"),
            "op_cpu_s.p50": (p50(r["op_cpu_s"] for r in timed), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "verified_ops_ratio": (1 - len(failures) / len(records), "ratio"),
        }

    report = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seed_reaches_inputs": wl.seed_reaches_inputs,
            "seconds": args.seconds,
            "trace": args.trace,
            "op_samples": len(walls),
            "traced_op_samples": len(traced),
            "setup_samples": setups,  # (wall, nominal) seconds
            "wall_s.p50": p50(walls),
            "cpu_s.p50": p50(r["cpu_s"] for r in timed),
            "timed_s": timed_s,
            "rate.p50": p50(meter.rates),
            "speed": {"interval_s": speed.INTERVAL_S, "nominal_s": speed.NOMINAL_S,
                      "samples": len(meter.rates)},
            "pool": len(pool),
            "failed_ops_ratio": len(failures) / len(records),
            "git_sha": git_sha(),
            "source_digest": source_digest(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_caps": THREAD_CAPS,
            "closed_loop": "one client, one op at a time",
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "op_digests": op_digests,
        "ops": [{k: v for k, v in r.items() if k != "digest"} for r in records],
        "failures": failures,
        "errors": errors,
    }
    os.makedirs(RESULTS, exist_ok=True)
    errors += digest_conflicts(report)
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for e in errors:
        print(f"benchmark failure: {e}", file=sys.stderr)
    print(f"report: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
