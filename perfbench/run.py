"""Benchmark of revadder: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload deep-cascade --seed 1 --seconds 35 --trace 0

Run from the repository root; the library is imported from `src`, so
nothing needs installing. Jobs run in a closed loop with one caller: the
next job starts when the last one has ended and its outputs have been
checked. With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics named in BENCHMARK.json; with
`--trace 1` it holds the per-layer metrics, taken from a run whose jobs
alternate between traced and untraced so that the tracing overhead can
be read off. Every time is reported at the reference speed: scaled by
`REFERENCE_S` over the time of a fixed reference loop run just before
it. The full run record, with every metric, its unit, the job quartiles and (when
traced) every span, goes to standard error and to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("deep-cascade", "wide-batch", "exhaustive", "cli-pipeline")
#: fresh interpreters started to time set-up; the median is reported
SETUP_PROBES = 9

#: per-layer spans reported as `<name>_s`, the median per traced job
LAYER_SPANS = (
    "core.extend",
    "adders.build_rca",
    "netlist.serialize",
    "netlist.parse",
    "metrics.analyze",
    "metrics.logical_depth",
    "qasm.export",
    "adders.verify_rca",
    "adders.verify_rca_pass",
    "adders.verify_rca_fail",
    "simulate.from_ints",
    "simulate.simulate_batch",
    "simulate.lanes_as_ints",
    "simulate.all_basis_states",
    "simulate.permutation_of",
    "simulate.is_bijection",
    "cli.verify_pipeline",
    "cli.metrics_pipeline",
)
VERIFY_SPANS = ("adders.verify_rca", "adders.verify_rca_pass", "adders.verify_rca_fail")
KERNEL_SPAN = "simulate.simulate_batch"
#: counts a job's check reports, as (name, unit); medians over traced jobs
JOB_COUNTS = (
    ("adders.mismatches", "count"),
    ("adders.failing_rows", "count"),
    ("netlist.doc_bytes", "B"),
    ("metrics.depth", "count"),
    ("cli.build_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.metrics_s", "s"),
)
SWEEP_SIZES = (32, 256, 1024)
#: the reference loop's time on the machine the baseline was taken on, a
#: 2-vCPU Intel Xeon (2.1 GHz) virtual machine with Python 3.11.7, when idle
REFERENCE_S = 0.0100
#: the layers: share.<module> is the module's self time over traced job time
MODULES = ("core", "simulate", "adders", "metrics", "netlist", "qasm", "cli")


def probe_setup(name: str) -> None:
    """Child side of a set-up probe: import, set up, say when ready."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import revadder.cli  # noqa: F401

    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    WORKLOADS[name]().setup()
    print(json.dumps({"import_s": import_s}), flush=True)


def reference_seconds() -> float:
    """Host time of a fixed piece of Python work: tuple growth and big-int shifts."""
    start = time.perf_counter()
    word, bit, grown = (1 << 8192) - 1, 0, ()
    for j in range(3000):
        bit ^= (word >> j) & 1
        grown = grown + (j,)
    return time.perf_counter() - start


def time_setup(name: str) -> tuple[list[float], list[float], list[float]]:
    """Seconds from starting a fresh interpreter until a job could start.

    Also returns the import time each probe reports, and a reference
    time taken before each probe.
    """
    setup, imports, references = [], [], []
    for _ in range(SETUP_PROBES):
        references.append(reference_seconds())
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", name],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        ) as proc:
            line = proc.stdout.readline()
            setup.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe for {name} exited with {proc.returncode}")
        imports.append(json.loads(line)["import_s"])
    return setup, imports, references


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """A host time scaled to the machine's idle speed.

    `reference_s` is the reference loop's time, taken just before. On a
    virtual machine whose CPUs are shared with other tenants, Python
    code runs up to 1.8 times slower for stretches of 10 s to over 50 s
    while the neighbours are busy, and the reference loop slows with it.
    """
    return seconds * REFERENCE_S / reference_s


def job_seconds(jobs) -> float:
    """The median job's host time at the reference speed."""
    return median(at_reference_speed(job["job_s"], job["reference_s"]) for job in jobs)


def run_jobs(workload, seed: int, seconds: float, trace: bool):
    """The closed loop: inputs, timed program calls, checks, then the next job."""
    from spans import Timer, Tracer, instrument

    tracer = Tracer()
    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        index = len(jobs)
        traced = trace and index % 2 == 1
        reference_s = reference_seconds()
        inputs = workload.inputs(random.Random(f"{seed}:{index}"))
        timer = tracer if traced else Timer()
        tracer.job = index if traced else -1
        problems, counts = [], {}
        try:
            with instrument(tracer) if traced else nullcontext():
                outputs = workload.run(inputs, timer.call)
            problems, counts = workload.check(inputs, outputs)
        except Exception as exc:  # a raising job is a failed job; the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        calls = tracer.job_calls(index) if traced else timer.calls
        jobs.append({"job": index, "traced": traced, "job_s": sum(calls.values()),
                     "calls": calls, "problems": problems, "counts": counts,
                     "reference_s": reference_s})
    return jobs, tracer


def layer_metrics(jobs, tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced jobs."""
    traced = {job["job"]: job["reference_s"] for job in jobs if job["traced"]}
    selfs = tracer.self_seconds()
    per_job = {name: dict.fromkeys(traced, 0.0) for name in LAYER_SPANS}
    verify = dict.fromkeys(traced, 0.0)
    verify_self = dict.fromkeys(traced, 0.0)
    perm_self = dict.fromkeys(traced, 0.0)
    work = dict.fromkeys(traced, 0)
    kernel_in_verify = 0.0
    for span, self_s in zip(tracer.spans, selfs):
        if span.name in per_job:
            per_job[span.name][span.job] += span.seconds
        if span.name in VERIFY_SPANS:
            verify[span.job] += span.seconds
            verify_self[span.job] += self_s
        if span.name == "simulate.permutation_of":
            perm_self[span.job] += self_s
        if span.name == KERNEL_SPAN:
            work[span.job] += span.work
            parent = span.parent
            if parent is not None and tracer.spans[parent].name in VERIFY_SPANS:
                kernel_in_verify += span.seconds

    def typical(seconds_by_job: dict[int, float]) -> float:
        return median(at_reference_speed(s, traced[j]) for j, s in seconds_by_job.items())

    metrics = {f"{name}_s": (typical(v), "s") for name, v in per_job.items()}
    total_verify = sum(verify.values())
    metrics["adders.verify_rca_self_s"] = (typical(verify_self), "s")
    metrics["simulate.permutation_of_self_s"] = (typical(perm_self), "s")
    metrics["simulate.kernel_share"] = (
        kernel_in_verify / total_verify if total_verify else 0.0, "ratio")
    metrics["simulate.kernel_share_base_s"] = (typical(verify), "s")
    metrics["simulate.gate_lanes"] = (median(work.values()), "count")
    for name, unit in JOB_COUNTS:
        values = [at_reference_speed(v, job["reference_s"]) if unit == "s" else v
                  for job in jobs if job["traced"] for v in job["counts"].get(name, [])]
        metrics[name] = (median(values), unit)

    traced_s = [job["job_s"] for job in jobs if job["traced"]]
    traced_job_s = job_seconds(job for job in jobs if job["traced"])
    untraced_job_s = job_seconds(job for job in jobs if not job["traced"])
    module_self = dict.fromkeys(MODULES, 0.0)
    for span, self_s in zip(tracer.spans, selfs):
        module_self[span.name.split(".")[0]] += self_s
    for module, seconds in module_self.items():
        metrics[f"share.{module}"] = (seconds / sum(traced_s) if traced_s else 0.0, "ratio")
    metrics["trace.job_s"] = (traced_job_s, "s")
    metrics["trace.untraced_job_s"] = (untraced_job_s, "s")
    metrics["trace.overhead_s"] = (traced_job_s - untraced_job_s, "s")
    metrics["trace.spans"] = (len(tracer.spans) / max(len(traced), 1), "count")
    metrics["trace.span_errors"] = (sum(s.error is not None for s in tracer.spans), "count")
    return metrics


def predictions(workload: str, layer: dict, jobs) -> list[dict]:
    """The predictions about where time goes, each with its measured value and base."""
    if workload == "deep-cascade":
        share = sum(layer[f"share.{m}"][0] for m in ("core", "netlist", "metrics"))
        traced_s = sum(job["job_s"] for job in jobs if job["traced"])
        return [{"claim": "core, netlist and metrics hold most of a deep-cascade job",
                 "value": share, "base_s": traced_s, "holds": share > 0.5}]
    if workload == "wide-batch":
        share = layer["simulate.kernel_share"][0]
        return [{"claim": "simulate.kernel_share is below 1% on wide-batch",
                 "value": share, "base_s": layer["simulate.kernel_share_base_s"][0],
                 "holds": share < 0.01}]
    return []


def span_summary(tracer) -> dict[str, dict]:
    """Calls, errors, total and self seconds of every span name."""
    summary: dict[str, dict] = {}
    for span, self_s in zip(tracer.spans, tracer.self_seconds()):
        row = summary.setdefault(span.name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["errors"] += span.error is not None
        row["total_s"] += span.seconds
        row["self_s"] += self_s
    return summary


def sweep_metrics(timings: dict[str, float], sizes) -> dict[str, tuple[float, str]]:
    """Sweep timings, and each layer's growth exponent between the two largest sizes."""
    metrics = {}
    for layer in ("build_rca", "parse", "depth"):
        for n in SWEEP_SIZES:
            metrics[f"scale.{layer}_{n}_s"] = (0.0, "s")
        metrics[f"scale.{layer}_exp"] = (0.0, "exponent")
        if timings:
            for n, size in zip(SWEEP_SIZES, sizes):
                metrics[f"scale.{layer}_{n}_s"] = (timings[f"{layer}_{size}"], "s")
            lo, hi = sizes[-2], sizes[-1]
            ratio = timings[f"{layer}_{hi}"] / timings[f"{layer}_{lo}"]
            metrics[f"scale.{layer}_exp"] = (math.log(ratio) / math.log(hi / lo)
                                             if ratio > 0 else 0.0, "exponent")
    return metrics


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "revadder").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run(workload, seed: int, seconds: float, trace: bool, sweep_sizes=SWEEP_SIZES) -> dict:
    """One benchmark run; returns the run record."""
    setup_runs, import_runs, references = time_setup(workload.name)
    workload.setup()
    jobs, tracer = run_jobs(workload, seed, seconds, trace)

    untraced_jobs = [job for job in jobs if not job["traced"]]
    untraced = [job["job_s"] for job in untraced_jobs]
    job_s = job_seconds(untraced_jobs)
    failed = sum(bool(job["problems"]) for job in jobs)
    attempted = len(jobs)
    sizes = workload.sizes()
    if workload.name == "cli-pipeline":
        rss_kb = max(v for job in jobs for v in job["counts"].get("cli.rss_kb", [0]))
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    end_to_end = {
        "job_s": (job_s, "s"),
        "lanes_per_s": (sizes["lanes"] / job_s, "1/s"),
        "setup_s": (median(map(at_reference_speed, setup_runs, references)), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    extra = {
        "gates_per_s": (sizes["gates"] / job_s, "1/s"),
        "states_per_s": (sizes["states"] / job_s, "1/s"),
        "failed_ratio": (failed / attempted, "ratio"),
        "job_median_s": (median(untraced), "s"),
        "reference_median_s": (median(references + [job["reference_s"] for job in jobs]), "s"),
    }

    per_layer = {}
    sweep_problems: list[str] = []
    if trace:
        per_layer = layer_metrics(jobs, tracer)
        per_layer["cli.import_s"] = (median(map(at_reference_speed, import_runs, references)), "s")
        timings = {}
        if workload.name == "deep-cascade":
            timings, sweep_problems = workload.sweep(sweep_sizes)
            attempted += len(sweep_sizes)
            failed += bool(sweep_problems)
        per_layer.update(sweep_metrics(timings, sweep_sizes))
    claims = predictions(workload.name, per_layer, jobs) if trace else []

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "sizes": sizes,
        "jobs": len(jobs),
        "untraced_jobs": len(untraced),
        "job_s_quartiles": quartiles(untraced) if untraced else [],
        "setup_s_runs": setup_runs,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for job in jobs for p in job["problems"]][:50] + sweep_problems,
        "end_to_end": end_to_end,
        "extra": extra,
        "per_layer": per_layer,
        "predictions": claims,
        "job_records": [{k: v for k, v in job.items() if k != "problems"} for job in jobs],
        "span_summary": span_summary(tracer),
        "spans": tracer.records(),
    }


def result_line(record: dict) -> dict:
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def report(record: dict) -> None:
    """The run record, readable, on standard error; in full under perfbench/out/."""
    err = sys.stderr
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])} "
          f"python {record['python']} git {record['git_sha']} src {record['src_sha256']} "
          f"nproc {record['nproc']}", file=err)
    print(f"sizes {json.dumps(record['sizes'])}", file=err)
    q = ", ".join(f"{v:.4f}" for v in record["job_s_quartiles"])
    print(f"jobs {record['jobs']} (untraced {record['untraced_jobs']}), job_s quartiles [{q}] s",
          file=err)
    for group in ("end_to_end", "extra", "per_layer"):
        for name, (value, unit) in record[group].items():
            print(f"  {name:36s} {value:14.6g} {unit}", file=err)
    for name, row in sorted(record["span_summary"].items()):
        print(f"  span {name:31s} calls {row['calls']:6d} errors {row['errors']} "
              f"total {row['total_s']:.4f} s self {row['self_s']:.4f} s", file=err)
    for claim in record["predictions"]:
        verdict = "confirmed" if claim["holds"] else "refuted"
        print(f"  prediction {verdict}: {claim['claim']} "
              f"(measured {claim['value']:.4f} of {claim['base_s']:.4f} s)", file=err)
    for problem in record["problems"]:
        print(f"  FAILED: {problem}", file=err)
    OUT.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "revadder" / "__init__.py").is_file():
        print(f"perfbench: no revadder sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    record = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    report(record)
    print(json.dumps(result_line(record)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
