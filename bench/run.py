"""qromlab benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload capacity --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, untraced and traced

Run from the repository root; the program is imported from ./src.  A run
builds the workload's fixed batch of ops from --seed, times set-up in fresh
interpreters, then repeats the batch until --seconds is used up (at least
once) and checks every output.  Times are reported in reference seconds
(see speed.py), which cancel the machine's own speed swings.  The last line
of stdout is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.  The line before it records the run's context:
thread pinning, the machine's median raw SHA-256 rate, the raw batch wall
time and, when traced, the self-test findings.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS/OpenMP pools are pinned before numpy loads: one thread keeps the small
# dense kernels steady on a shared machine (and below nproc everywhere).
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("capacity", "posw", "lemmas", "simulate")
SETUP_PROBES = 5

sys.path.insert(0, str(BENCH))
import speed  # noqa: E402


def import_program():
    """Import qromlab from the checkout's own src/, never from elsewhere."""
    if not (SRC / "qromlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qromlab

    if Path(qromlab.__file__).resolve().parent != SRC / "qromlab":
        raise SystemExit(f"error: imported qromlab from {qromlab.__file__}, not {SRC}")


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Batch:
    def __init__(self):
        self.start = self.end = 0.0
        self.timed: list = []  # (start, end, op) of every op not skipped
        self.attempted = 0
        self.failed = 0
        # filled in reference seconds by summarize()
        self.wall = 0.0
        self.scale = 1.0
        self.latencies: list = []
        self.rate = 0.0

    def summarize(self, sampler) -> None:
        """Convert the raw op times to reference seconds and drop them, so
        memory does not grow with the number of batches."""
        sampler.sample()
        ref = sampler.reference_s
        self.wall = ref(self.start, self.end)
        self.scale = sampler.scale(self.start, self.end)
        self.latencies = [ref(t0, t1) for t0, t1, op in self.timed if op.latency]
        units = [(op.units, ref(t0, t1)) for t0, t1, op in self.timed if op.units]
        if units:
            self.rate = sum(u for u, _ in units) / sum(t for _, t in units)
        self.timed = None


def run_batch(ops, tracer=None) -> Batch:
    batch = Batch()
    perf = time.perf_counter
    batch.start = perf()
    for op in ops:
        t0 = perf()
        try:
            ok = op.run() if tracer is None else tracer.run_op(op.kind, op.run)
        except Exception:  # an op that raises is a failed op; the run goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        t1 = perf()
        if ok is None:  # skipped input
            continue
        batch.attempted += 1
        if not ok:
            batch.failed += 1
            print(f"bench: {op.kind} op output mismatch", file=sys.stderr)
        batch.timed.append((t0, t1, op))
    batch.end = perf()
    return batch


def run_for(ops, seconds: float, sampler, tracer=None, on_batch=None) -> list:
    """Repeat the batch while another one fits in the time left (at least once)."""
    batches = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        batch = run_batch(ops, tracer)
        batch.summarize(sampler)
        batches.append(batch)
        if on_batch is not None:
            on_batch(batch)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median([b.end - b.start for b in batches]) > seconds:
            return batches


def measure_setup(args) -> float:
    """Median set-up time, in reference seconds, of fresh interpreters that
    import the program and build the workload's inputs; each probe samples
    its own machine speed once it is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rate = proc.stdout.readline()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or ready.strip() != "ready":
            raise SystemExit(f"error: set-up probe exited with code {code}")
        times.append(elapsed * float(rate) / speed.NOMINAL_RATE)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workload) -> tuple:
    setup_s = measure_setup(args)
    ops = workload.ops()
    workload.warm()
    with speed.SpeedSampler() as sampler:
        batches = run_for(ops, args.seconds, sampler)
    latencies = [t for b in batches for t in b.latencies]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median([b.wall for b in batches]),
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": statistics.median([b.rate for b in batches]),
        "op_ms_p50": 1e3 * percentile(latencies, 50),
        "op_ms_p90": 1e3 * percentile(latencies, 90),
    }
    context = {"batches": len(batches), "latency_samples": len(latencies),
               "raw_wall_s": statistics.median([b.end - b.start for b in batches]),
               "sha256_per_s": sampler.median_rate()}
    return batches, metrics, context


def traced(args, workload, spec: dict) -> tuple:
    from layers import attach, layer_metrics
    from tracer import Tracer

    ops = workload.ops()
    workload.warm()
    tracer = Tracer()
    timed = {m["name"] for m in spec["per_layer"] if m["unit"] == "s"}
    snapshots = []

    def snapshot(batch):
        values = layer_metrics(tracer, batch.attempted)
        snapshots.append({k: v * batch.scale if k in timed else v for k, v in values.items()})

    with speed.SpeedSampler() as sampler:
        untraced = run_batch(ops)
        untraced.summarize(sampler)
        missing = attach(tracer)
        try:
            batches = run_for(ops, max(args.seconds - (untraced.end - untraced.start), 0.0),
                              sampler, tracer, snapshot)
        finally:
            tracer.detach()
    findings = [f"wrapper target missing: {name}" for name in missing]
    for name, value in snapshots[0].items():
        if name not in timed and any(s[name] != value for s in snapshots[1:]):
            findings.append(f"count differs between identical batches: {name}")
    metrics = {name: statistics.median([s[name] for s in snapshots]) if name in timed else value
               for name, value in snapshots[0].items()}
    metrics["trace.overhead_ratio"] = statistics.median([b.wall for b in batches]) / untraced.wall
    predictions = json.loads((BENCH / "layers.json").read_text())["metrics"]
    for name, pred in predictions.items():
        expect_nonzero = args.workload in pred["nonzero_on"]
        if expect_nonzero != (metrics.get(name, 0) != 0):
            findings.append(f"{name} is {metrics.get(name)} on {args.workload}, predicted "
                            + ("nonzero" if expect_nonzero else "zero"))
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({"spans": tracer.spans, "snapshots": snapshots}))
    context = {"batches": len(batches), "spans": len(tracer.spans),
               "trace_file": str(trace_file.relative_to(ROOT)), "self_test": findings,
               "sha256_per_s": sampler.median_rate()}
    for finding in findings:
        print(f"bench self-test: {finding}", file=sys.stderr)
    return [untraced] + batches, metrics, context


def run_one(args) -> int:
    import_program()
    from workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, OUT)
        print("ready", flush=True)
        print(speed.sha256_rate(20000)[1], flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    if args.trace:
        batches, values, context = traced(args, workload, spec)
        declared = spec["per_layer"]
    else:
        batches, values, context = end_to_end(args, workload)
        declared = spec["end_to_end"]
    context.update({"workload": args.workload, "seed": args.seed, "blas_threads": THREADS})
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process: one untraced run and two traced
    runs whose counts must agree; prints one table (and writes it as JSON to
    .bench_out/all-seed<seed>.json) and exits 1 on any failed op, self-test
    finding or count mismatch."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    aliases = json.loads((BENCH / "layers.json").read_text())["aliases"]
    timed = {m["name"] for m in spec["per_layer"] if m["unit"] in ("s", "s/s")}
    print(f"blas threads pinned to {THREADS}; seed {args.seed}; {args.seconds:g} s per run")
    problems = []
    results = {}
    contexts = {}
    for name in WORKLOAD_NAMES:
        runs = []
        for trace in (0, 1, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} run failed with exit code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            runs.append((json.loads(lines[-2])["context"], json.loads(lines[-1])))
        (ctx, e2e), (ctx1, tr1), (_, tr2) = runs
        results[name] = (e2e, tr1)
        contexts[name] = (ctx, ctx1)
        if e2e["failed"] or tr1["failed"] or tr2["failed"]:
            problems.append(f"{name}: failed ops")
        problems += [f"{name}: {f}" for f in ctx1["self_test"]]
        for metric, cell in tr1["metrics"].items():
            if metric not in timed and cell["value"] != tr2["metrics"][metric]["value"]:
                problems.append(f"{name}: {metric} differs between two traced runs")
        print(f"{name}: sha256 {ctx['sha256_per_s']:.3g}/s, "
              f"{ctx['batches']} batches, {ctx['latency_samples']} latency samples")
    header = f"{'metric':44s} {'unit':6s}" + "".join(f"{n:>14s}" for n in WORKLOAD_NAMES)
    print(header)
    rows = [("e2e", m["name"], m["unit"]) for m in spec["end_to_end"]]
    rows += [("ops", "ops_total", "count"), ("ops", "ops_failed", "count")]
    rows += [("layer", m["name"], m["unit"]) for m in spec["per_layer"]]
    for kind, metric, unit in rows:
        cells = []
        for name in WORKLOAD_NAMES:
            e2e, tr = results[name]
            if kind == "ops":
                value = e2e["attempted"] if metric == "ops_total" else e2e["failed"]
            else:
                value = (e2e if kind == "e2e" else tr)["metrics"][metric]["value"]
            cells.append(f"{value:14.6g}")
        print(f"{metric:44s} {unit:6s}" + "".join(cells))
    print("workload names: " + "; ".join(f"{w}.{k} = {v}" for w, a in aliases.items()
                                       for k, v in a.items()))
    for problem in problems:
        print(f"PROBLEM {problem}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{args.seed}.json").write_text(json.dumps(
        {name: {"end_to_end": results[name][0], "traced": results[name][1],
                "context": contexts[name][0], "traced_context": contexts[name][1]}
         for name in WORKLOAD_NAMES}, indent=1))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
