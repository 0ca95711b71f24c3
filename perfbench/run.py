"""csforge benchmark: three end-to-end CLI workloads and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload synth-verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One single-threaded process drives ``csforge.cli.main`` in-process with
inputs made from ``--seed`` (see ``workloads.py``), checks every item's
outputs, and works in whole units, starting no unit that would likely end after
``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``.  With ``--trace 1`` the
run times each item of one unit untraced and again with spans recorded
around each layer's entry points, and the metrics are the per-layer ones.  Lines
before it start with ``#`` and give the same figures under the workload's own
names.  The environment, the per-item times and (when traced) every span go
to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy loads: the load is one single-threaded process
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 25
SCALE_RUNGS = (6, 8, 10, 12, 14, 16)

# the workload's own names for the generic end-to-end metrics
NAMES = {
    "synth-verify": (
        "pairs_per_s", "verified encode -> verify round trips per second over whole ladders",
        "small_pair_ms", f"round trips at each rung <= 2^{workloads.SMALL_RUNG}",
    ),
    "family-dedup": (
        "encodes_per_s", "sum of qam.enumeration_size over jobs per second",
        "job_ms", "each enumerate --dedup job",
    ),
    "detect": (
        "detections_per_s", "trials x Eb/N0 points per second, codebook build included",
        "job_ms", "each simulate --rule job",
    ),
}

BUSY = {
    "encoder.component_functions.busy_s": ("encoder.component_functions",),
    "encoder.recursion_to_encoder.busy_s": ("encoder.recursion_to_encoder",),
    "boolean.table.busy_s": ("boolean.table",),
    "qam.build_params.busy_s": ("qam.build_params",),
    "qam.sequence_key.busy_s": ("qam.sequence_key",),
    "analysis.is_gcp.busy_s": ("analysis.is_gcp", "analysis.is_gcp.seed"),
    "analysis.papr_bound_db.busy_s": ("analysis.papr_bound_db",),
    "analysis.papr_oversampled_db.busy_s": ("analysis.papr_oversampled_db",),
    "simulate.min_distance_sim.busy_s": ("simulate.min_distance_sim",),
    "cli.encode.busy_s": ("cli.encode",),
    "cli.verify.busy_s": ("cli.verify",),
    "cli.enumerate.busy_s": ("cli.enumerate",),
    "cli.simulate.busy_s": ("cli.simulate",),
    "cli.sequence_record.busy_s": ("cli.sequence_record",),
    "cli.json_write.busy_s": ("cli.json_write",),
    "cli.json_read.busy_s": ("cli.json_read",),
}
SELF = {
    "encoder.encode_pair.self_s": "encoder.encode_pair",
    "qam.enumerate_rule.self_s": "qam.enumerate_rule",
}
COUNTS = ("boolean.poly_constructed", "analysis.elements", "simulate.distance_evals",
          "cli.json_bytes")


def call_cli(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments by exiting
        return exc.code if isinstance(exc.code, int) else 1


def run_items(cli, workload: str, items, tracer=None) -> list[dict]:
    """Run items in order; a failing item is recorded and the run goes on."""
    check = workloads.CHECKS[workload]
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext(-1))
    results = []
    for item in items:
        seconds, error = 0.0, None
        with span("bench.item") as index:
            try:
                for argv in item.argvs:
                    with span("cli." + argv[0]):
                        start = time.perf_counter()
                        code = call_cli(cli, argv)
                        seconds += time.perf_counter() - start
                    if code != 0:
                        error = f"{argv[0]} exited {code}"
                        break
                else:
                    error = check(item)
            except Exception as exc:  # an item that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
        results.append({"item": item, "seconds": seconds, "error": error, "span": index})
    return results


def set_up(workload: str, seed: int, workdir: Path):
    """Median over repeats of importing csforge afresh and building unit 0."""
    samples = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "csforge" or n.startswith("csforge.")]:
            del sys.modules[name]
        gc.collect()  # a first import in a fresh process has no earlier import to collect
        start = time.perf_counter()
        importlib.import_module("csforge.cli")
        items = workloads.build_items(workload, seed, 0, workdir / "u0")
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), items


def warm_up(cli, workdir: Path) -> None:
    """One tiny call of each subcommand, so first-call costs stay out of the items."""
    pair = workdir / "warm-pair.json"
    for argv in (
        ["encode", "--m", "3", "--H", "4", "--out", str(pair)],
        ["verify", str(pair), "--out", str(workdir / "warm-verify.json")],
        ["enumerate", "--rule", "green", "--s", "1", "--m", "2", "--dedup",
         "--out", str(workdir / "warm-enumerate.json")],
        ["simulate", "--rule", "green", "--s", "1", "--m", "2", "--ebn0", "0,inf",
         "--trials", "100", "--out", str(workdir / "warm-simulate.json")],
    ):
        call_cli(cli, argv)


def timed_run(cli, args, workdir: Path, items, setup_s: float):
    results, units = [], 0
    start = time.perf_counter()
    while True:
        results += run_items(cli, args.workload, items)
        units += 1
        elapsed = time.perf_counter() - start
        # whole units only, and none that would likely end past --seconds
        if elapsed * (units + 1) / units > args.seconds:
            break
        items = workloads.build_items(args.workload, args.seed, units, workdir / f"u{units}")
    wall = time.perf_counter() - start
    busy = sum(r["seconds"] for r in results)
    work = sum(r["item"].work for r in results if r["error"] is None)
    kinds: dict[str, list[float]] = {}
    for r in results:
        if r["item"].kind is not None:
            kinds.setdefault(r["item"].kind, []).append(r["seconds"])
    small = sorted(t for times in kinds.values() for t in times)
    # a median per kind keeps a slow stretch of the machine from reordering
    # unlike items, and the mean over kinds weighs each kind alike
    latency = statistics.fmean(statistics.median(times) for times in kinds.values())
    metrics = {
        "work_per_s": (work / busy, "1/s"),
        "item_ms": (1e3 * latency, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    rate_name, rate_why, latency_name, latency_why = NAMES[args.workload]
    failed = sum(r["error"] is not None for r in results)
    # the highest percentile with at least ten samples above it
    tail = ""
    if len(small) >= 20:
        pct = int(100 * (1 - 10 / len(small)))
        tail = f", p{pct} {1e3 * statistics.quantiles(small, n=100)[pct - 1]:.6g} ms"
    notes = [
        f"{args.workload} seed={args.seed}: {units} unit(s), {len(results)} items, "
        f"{wall:.2f} s wall, {busy:.2f} s in csforge",
        f"{rate_name} = {metrics['work_per_s'][0]:.6g} 1/s  (work_per_s: {rate_why})",
        f"{latency_name} = {metrics['item_ms'][0]:.6g} ms  (item_ms: mean of the median times "
        f"of {latency_why}, {len(kinds)} kinds, n={len(small)}; pooled median "
        f"{1e3 * statistics.median(small):.6g} ms{tail})",
        f"fail_frac = {failed / len(results):.6g}  ({failed} of {len(results)})",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB",
        f"setup_s = {setup_s:.6g} s  (median of {SETUP_REPEATS} fresh imports + unit-0 inputs)",
    ]
    return results, metrics, notes


def layer_metrics(tracer: tracing.Tracer, results: list[dict], untraced_s: float) -> dict:
    names, parents = tracer.names, tracer.parents
    times = tracing.layer_times(names, tracer.starts, tracer.ends, parents)
    no_spans = (0, 0.0, 0.0)
    calls = times.get("encoder.encode_pair", no_spans)[0]
    metrics = {"encoder.encode_pair.calls": (calls, "count")}
    for metric, name in SELF.items():
        metrics[metric] = (times.get(name, no_spans)[2], "s")
    for metric, group in BUSY.items():
        metrics[metric] = (sum(times.get(name, no_spans)[1] for name in group), "s")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name], "bytes" if name == "cli.json_bytes" else "count")
    raw = tracer.counts["qam.enumerate_rule.yielded"]
    useful = tracer.counts["qam.distinct"] / raw if raw else 0.0
    metrics["qam.dedup_useful_ratio"] = (useful, "ratio")
    metrics["analysis.worst_residual"] = (tracer.worst_residual, "ratio")

    rung_of = {r["span"]: r["item"].rung for r in results}
    samples: dict[tuple[str, int], list[float]] = {}
    for i, name in enumerate(names):
        if name in ("encoder.encode_pair", "analysis.is_gcp"):
            rung = rung_of.get(tracing.enclosing(i, "bench.item", names, parents))
            samples.setdefault((name, rung), []).append(tracer.ends[i] - tracer.starts[i])
    for label, name in (("encode_pair", "encoder.encode_pair"), ("is_gcp", "analysis.is_gcp")):
        for rung in SCALE_RUNGS:
            values = samples.get((name, rung))
            metrics[f"scale.{label}_ms.r{rung:02d}"] = (
                1e3 * statistics.median(values) if values else 0.0, "ms")

    # every span lies inside an item span, so the self times add up to its busy time
    _, wall, bench_self = times["bench.item"]
    layer_self = sum(own for name, (_, _, own) in times.items() if name != "bench.item")
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.overhead_frac": (wall / untraced_s - 1.0, "ratio"),
        "trace.layer_self_s": (layer_self, "s"),
        "trace.bench_self_s": (bench_self, "s"),
    })
    return metrics


def traced_run(cli, args, items):
    """Run each item untraced and traced back to back, in alternating order.

    Both sides of the overhead comparison then see the machine in the same
    state, which drifts by more than the overhead over a whole unit.
    """
    tracer = tracing.Tracer()
    untraced_s, results = 0.0, []
    for n, item in enumerate(items):
        for traced in (False, True) if n % 2 == 0 else (True, False):
            if traced:
                tracing.instrument(tracer)
                try:
                    results += run_items(cli, args.workload, [item], tracer)
                finally:
                    tracer.restore()
            else:
                start = time.perf_counter()
                run_items(cli, args.workload, [item])
                untraced_s += time.perf_counter() - start
    metrics = layer_metrics(tracer, results, untraced_s)

    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    with open(spans, "w") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\n")
        for i, name in enumerate(tracer.names):
            fh.write(f"{i}\t{name}\t{tracer.starts[i]!r}\t{tracer.ends[i]!r}\t"
                     f"{tracer.parents[i]}\n")
    wall = metrics["trace.wall_s"][0]
    notes = [
        f"{args.workload} seed={args.seed}: traced one unit, {len(results)} items, "
        f"{len(tracer.names)} spans -> {spans.relative_to(ROOT)}",
        f"traced wall {wall:.3f} s vs untraced {untraced_s:.3f} s: "
        f"overhead {100 * metrics['trace.overhead_frac'][0]:.1f} %",
        f"self times: layers {metrics['trace.layer_self_s'][0]:.3f} s + benchmark "
        f"{metrics['trace.bench_self_s'][0]:.3f} s = "
        f"{metrics['trace.layer_self_s'][0] + metrics['trace.bench_self_s'][0]:.3f} s",
    ]
    notes += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return results, metrics, notes


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "csforge" / "__init__.py").is_file():
        print(f"error: csforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        workdir = Path(tmp)
        setup_s, items = set_up(args.workload, args.seed, workdir)
        cli = importlib.import_module("csforge.cli")
        warm_up(cli, workdir)
        if args.trace:
            results, metrics, notes = traced_run(cli, args, items)
        else:
            results, metrics, notes = timed_run(cli, args, workdir, items, setup_s)

    failed = [r for r in results if r["error"] is not None]
    notes += [f"FAILED {r['item'].label}: {r['error']}" for r in failed]
    env = environment(args)
    record = {
        "environment": env,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "items": [{"label": r["item"].label, "seconds": r["seconds"], "error": r["error"]}
                  for r in results],
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in notes + [f"env {json.dumps(env)}", f"record -> {path.relative_to(ROOT)}"]:
        print("# " + line)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
