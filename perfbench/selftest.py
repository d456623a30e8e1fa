"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

It checks that
* a tiny run of each workload (those BENCHMARK.json names, and
  exhaustive), untraced and traced, prints exactly the metrics
  BENCHMARK.json names, each with its declared unit;
* a planted wrong verdict is counted as a failed job in `failed_ratio`;
* the seeded mutants give the same mismatch counts on every run;
* the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import CliPipeline, DeepCascade, Exhaustive, WideBatch, delete_gate  # noqa: E402

TINY = {
    "deep-cascade": lambda: DeepCascade(n=4, lanes=64),
    "wide-batch": lambda: WideBatch(n=4, lanes=300),
    "exhaustive": lambda: Exhaustive(perm_bits=2, verify_bits=3),
    "cli-pipeline": lambda: CliPipeline(bits=2, trials=100),
}
TINY_SWEEP = (4, 8, 16)

failures: list[str] = []


def require(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def tiny_runs(spec: dict) -> None:
    require(set(spec["workloads"]) <= set(TINY), "every workload BENCHMARK.json names is tested")
    for name, make in TINY.items():
        for trace in (False, True):
            record = run.run(make(), seed=7, seconds=1.0, trace=trace, sweep_sizes=TINY_SWEEP)
            line = run.result_line(record)
            units = {metric: m["unit"] for metric, m in line["metrics"].items()}
            require(units == spec[trace], f"{name} trace={int(trace)} prints every metric with its unit")
            require(line["correct"] and line["failed"] == 0 and line["attempted"] >= 2,
                    f"{name} trace={int(trace)} is correct on {line['attempted']} attempts")
            if not trace:
                require(all(m["value"] > 0 for m in line["metrics"].values()),
                        f"{name} end-to-end metrics are all above zero")
            else:
                require(record["per_layer"]["trace.spans"][0] > 0, f"{name} traced run records spans")


class PlantedWideBatch(WideBatch):
    """Wide-batch whose 'clean' cascade is secretly a mutant: every pass verdict is wrong."""

    def setup(self) -> None:
        super().setup()
        self.circuit, _ = delete_gate(self.circuit, self.n, random.Random(1))


def planted_fault() -> None:
    record = run.run(PlantedWideBatch(n=4, lanes=300), seed=7, seconds=0.3, trace=False)
    ratio = record["extra"]["failed_ratio"][0]
    require(ratio == 1.0 and not run.result_line(record)["correct"],
            f"planted wrong verdict counted: failed_ratio {ratio}")


def repeatable_mutants() -> None:
    runs = []
    for _ in range(2):
        workload = WideBatch(n=8, lanes=2000)
        workload.setup()
        jobs, _ = run.run_jobs(workload, seed=7, seconds=0.5, trace=False)
        runs.append([(job["counts"]["adders.mismatches"], job["counts"]["adders.failing_rows"])
                     for job in jobs])
    common = min(len(r) for r in runs)
    require(common >= 2 and runs[0][:common] == runs[1][:common],
            f"mismatch counts repeat for one seed over {common} jobs")


def bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "deep-cascade",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    require(done.returncode != 0 and not done.stdout.strip(),
            f"exits {done.returncode} with no result where the library is missing")


def main() -> int:
    tiny_runs(declared())
    planted_fault()
    repeatable_mutants()
    bare_directory()
    print("selftest:", "FAILED " + "; ".join(failures) if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
