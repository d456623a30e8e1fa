"""The benchmark's workloads: generated inputs, program calls, output checks.

Every workload drives revadder from outside, through its public
functions or its command line. A job makes its program calls through
`call(span_name, fn, *args)`, so the runner can time or trace each call
into a layer; the job's host time is the time spent inside those calls.
`check` compares the outputs with oracles that never consult the
circuit under test: the paper's formulas (depth 3n+1, cost 10n, 6n
gates, n Toffolis), plain integer addition through `oracle_add`, and the
cascade's line order as the paper draws it.

Why each workload exists, and which layer it loads:

* deep-cascade: 768 gates on 385 lines and only 256 lanes, so the
  gate-list layers (core, netlist, metrics) do the work and the kernel
  does almost none.
* wide-batch: 192 gates and 2 x 10,000 lanes, so lane packing and the
  mismatch expansion in adders/simulate do the work; the gate-list
  layers are idle.
* exhaustive: enumeration of every basis state of a 16-line circuit and
  of every input of an 8-bit adder, which is the unpacking direction
  wide-batch never uses.
* cli-pipeline: the command line run as two-process pipelines, where
  interpreter start, import and the cli module do most of the work.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from revadder import (
    BatchState,
    Circuit,
    analyze,
    build_rca,
    export_qasm,
    is_bijection,
    logical_depth,
    oracle_add,
    parse_netlist,
    permutation_of,
    serialize_netlist,
    simulate,
    simulate_batch,
    verify_rca,
)

ROOT = Path(__file__).resolve().parent.parent

#: gates in one adder block of the cascade
BLOCK_GATES = 6

Call = Callable  # call(span_name, fn, *args, **kwargs) -> fn's result


class Lines:
    """Line order of the n-bit cascade, as the paper draws it.

    Line 0 is Cin; block i holds A_i, B_i and its ancilla on lines
    3i+1, 3i+2, 3i+3. Sum bit 0 ends on Cin, sum bit i on ancilla i-1,
    and the carry out on the last ancilla.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.width = 3 * n + 1
        self.a = [3 * i + 1 for i in range(n)]
        self.b = [3 * i + 2 for i in range(n)]
        anc = [3 * i + 3 for i in range(n)]
        self.sum = [0] + anc[:-1]
        self.cout = anc[-1]

    def encode(self, a: int, b: int, cin: int) -> int:
        state = cin
        for i in range(self.n):
            state |= ((a >> i) & 1) << self.a[i] | ((b >> i) & 1) << self.b[i]
        return state

    def decode(self, state: int) -> dict[str, int]:
        def read(lines: list[int]) -> int:
            return sum(((state >> line) & 1) << i for i, line in enumerate(lines))

        return {
            "sum": read(self.sum),
            "cout": (state >> self.cout) & 1,
            "a": read(self.a),
            "b": read(self.b),
        }

    def expected(self, a: int, b: int, cin: int) -> dict[str, int]:
        total, carry = oracle_add(a, b, cin, self.n)
        return {"sum": total, "cout": carry, "a": a, "b": b}


def bits_of(state: int, width: int) -> tuple[int, ...]:
    return tuple((state >> i) & 1 for i in range(width))


def from_bits(bits) -> int:
    return sum(bit << i for i, bit in enumerate(bits))


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def delete_gate(circuit: Circuit, n: int, rng: random.Random) -> tuple[Circuit, str]:
    """A mutant with one gate of one random adder block deleted.

    Each of the block's 6 gates is needed for its truth table, so every
    mutant must be reported as FAIL.
    """
    block, k = rng.randrange(n), rng.randrange(BLOCK_GATES)
    at = BLOCK_GATES * block + k
    gates = circuit.gates[:at] + circuit.gates[at + 1 :]
    return Circuit(circuit.width, circuit.roles, gates), f"block {block} gate {k}"


class Workload:
    """One job shape. Subclasses set the work one job does, per unit."""

    name = ""
    lanes = 0  # test vectors verified per job
    gates = 0  # gates taken through build, serialize, parse and schedule per job
    states = 0  # basis states enumerated and checked per job

    def sizes(self) -> dict:
        return {"lanes": self.lanes, "gates": self.gates, "states": self.states}

    def setup(self) -> None:
        """The one-time program calls that every job reuses."""

    def inputs(self, rng: random.Random):
        return rng.getrandbits(32)

    def run(self, inputs, call: Call):
        raise NotImplementedError

    def check(self, inputs, outputs) -> tuple[list[str], dict[str, list[float]]]:
        """Problems found (empty when correct) and the job's counts."""
        raise NotImplementedError


class DeepCascade(Workload):
    name = "deep-cascade"

    def __init__(self, n: int = 128, lanes: int = 256) -> None:
        self.n = n
        self.lanes = lanes
        self.gates = BLOCK_GATES * n

    def sizes(self) -> dict:
        return {"n": self.n, "lines": 3 * self.n + 1, **super().sizes()}

    def run(self, seed: int, call: Call):
        circuit, layout = call("adders.build_rca", build_rca, self.n)
        doc = call("netlist.serialize", serialize_netlist, circuit, layout)
        parsed, parsed_layout = call("netlist.parse", parse_netlist, doc)
        report = call("metrics.analyze", analyze, parsed)
        qasm = call("qasm.export", export_qasm, parsed)
        verdict = call(
            "adders.verify_rca", verify_rca, parsed, parsed_layout, "random",
            trials=self.lanes, seed=seed,
        )
        return doc, parsed, parsed_layout, report, qasm, verdict

    def check(self, seed, outputs):
        doc, parsed, layout, report, qasm, verdict = outputs
        n, problems = self.n, []
        expect(problems, "logical depth", report.logical_depth, 3 * n + 1)
        expect(problems, "schedule steps", len(report.schedule.timesteps), 3 * n + 1)
        scheduled = sorted(i for step in report.schedule.timesteps for i in step)
        expect(problems, "scheduled gates", scheduled, list(range(BLOCK_GATES * n)))
        expect(problems, "quantum cost", report.quantum_cost, 10 * n)
        expect(problems, "gate count", report.gate_count, BLOCK_GATES * n)
        expect(problems, "toffoli count", report.toffoli_count, n)
        expect(problems, "re-serialized netlist", serialize_netlist(parsed, layout) == doc, True)
        ccx = sum(line.startswith("ccx ") for line in qasm.splitlines())
        expect(problems, "qasm toffolis", ccx, n)
        expect(problems, "verdict", verdict.passed, True)
        expect(problems, "cases", verdict.cases, self.lanes)
        return problems, {
            "netlist.doc_bytes": [len(doc.encode())],
            "metrics.depth": [report.logical_depth],
        }

    def sweep(self, sizes) -> tuple[dict[str, float], list[str]]:
        """Build, parse and depth once per size: the growth of each layer."""
        timings, problems = {}, []
        for n in sizes:
            start = time.perf_counter()
            circuit, layout = build_rca(n)
            timings[f"build_rca_{n}"] = time.perf_counter() - start
            doc = serialize_netlist(circuit, layout)
            start = time.perf_counter()
            parse_netlist(doc)
            timings[f"parse_{n}"] = time.perf_counter() - start
            start = time.perf_counter()
            depth, _ = logical_depth(circuit)
            timings[f"depth_{n}"] = time.perf_counter() - start
            expect(problems, f"logical depth at n={n}", depth, 3 * n + 1)
        return timings, problems


@dataclass(frozen=True)
class WideInputs:
    pass_seed: int
    fail_seed: int
    mutant: Circuit
    where: str
    sampler: random.Random


class WideBatch(Workload):
    name = "wide-batch"

    #: reported rows replayed through simulate's lane packing, per job
    REPLAY = 1024
    #: reported mismatches re-run with the scalar simulator, per job
    RESAMPLE = 16

    def __init__(self, n: int = 32, lanes: int = 10000) -> None:
        self.n = n
        self.trials = lanes
        self.lanes = 2 * lanes
        self.lines = Lines(n)

    def sizes(self) -> dict:
        return {"n": self.n, "lines": self.lines.width, "gates_in_circuit": BLOCK_GATES * self.n,
                "trials_per_verify": self.trials, **super().sizes()}

    def setup(self) -> None:
        self.circuit, self.layout = build_rca(self.n)

    def inputs(self, rng):
        mutant, where = delete_gate(self.circuit, self.n, rng)
        return WideInputs(rng.getrandbits(32), rng.getrandbits(32), mutant, where,
                          random.Random(rng.getrandbits(32)))

    def run(self, inputs: WideInputs, call: Call):
        clean = call(
            "adders.verify_rca_pass", verify_rca, self.circuit, self.layout, "random",
            trials=self.trials, seed=inputs.pass_seed,
        )
        broken = call(
            "adders.verify_rca_fail", verify_rca, inputs.mutant, self.layout, "random",
            trials=self.trials, seed=inputs.fail_seed,
        )
        # replay a seeded sample of the reported rows through simulate's own
        # lane packing; a fixed sample size keeps every job's work the same
        failing = sorted(broken.failing_rows())
        rows = sorted(inputs.sampler.sample(failing, min(self.REPLAY, len(failing))))
        replayed = []
        if rows:
            states = [self.lines.encode(a, b, cin) for a, b, cin in rows]
            batch = call("simulate.from_ints", BatchState.from_ints, states, self.lines.width)
            out = call("simulate.simulate_batch", simulate_batch, inputs.mutant, batch)
            replayed = call("simulate.lanes_as_ints", out.lanes_as_ints)
        return clean, broken, rows, replayed

    def check(self, inputs: WideInputs, outputs):
        clean, broken, rows, replayed = outputs
        problems: list[str] = []
        expect(problems, "clean verdict", clean.passed, True)
        expect(problems, "clean cases", clean.cases, self.trials)
        expect(problems, f"mutant ({inputs.where}) verdict", broken.passed, False)
        expect(problems, "mutant cases", broken.cases, self.trials)

        reported: dict[tuple, dict[str, int]] = {}
        for m in broken.mismatches:
            reported.setdefault((m.a, m.b, m.cin), {})[m.quantity] = m.actual
            expect(problems, f"expected {m.quantity} for {m.a},{m.b},{m.cin}",
                   m.expected, self.lines.expected(m.a, m.b, m.cin)[m.quantity])
        expect(problems, "replayed rows", len(replayed), len(rows))
        for row, state in zip(rows, replayed):
            got, want = self.lines.decode(state), self.lines.expected(*row)
            wrong = {q: got[q] for q in got if got[q] != want[q]}
            expect(problems, f"mismatches of row {row}", reported.get(row), wrong)

        # scalar re-check of a seeded sample of the reported mismatches
        sample = inputs.sampler.sample(
            broken.mismatches, min(self.RESAMPLE, len(broken.mismatches))
        )
        width = self.lines.width
        for m in sample:
            out = simulate(inputs.mutant, bits_of(self.lines.encode(m.a, m.b, m.cin), width))
            actual = self.lines.decode(from_bits(out))[m.quantity]
            expect(problems, f"scalar {m.quantity} for {m.a},{m.b},{m.cin}", actual, m.actual)
        return problems, {
            "adders.mismatches": [len(broken.mismatches)],
            "adders.failing_rows": [len(broken.failing_rows())],
        }


class Exhaustive(Workload):
    name = "exhaustive"

    #: clean-ancilla entries of the permutation checked against the oracle, per job
    RESAMPLE = 64

    def __init__(self, perm_bits: int = 5, verify_bits: int = 8) -> None:
        self.perm = Lines(perm_bits)
        self.verify_bits = verify_bits
        self.lanes = 1 << (2 * verify_bits + 1)
        self.states = (1 << self.perm.width) + self.lanes

    def sizes(self) -> dict:
        return {"perm_bits": self.perm.n, "perm_lines": self.perm.width,
                "verify_bits": self.verify_bits, **super().sizes()}

    def setup(self) -> None:
        self.perm_circuit, _ = build_rca(self.perm.n)
        self.verify_circuit, self.verify_layout = build_rca(self.verify_bits)

    def inputs(self, rng):
        n = self.perm.n
        return [(rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(1))
                for _ in range(self.RESAMPLE)]

    def run(self, rows, call: Call):
        table = call("simulate.permutation_of", permutation_of, self.perm_circuit)
        bijective = call("simulate.is_bijection", is_bijection, table)
        report = call(
            "adders.verify_rca", verify_rca, self.verify_circuit, self.verify_layout, "exhaustive"
        )
        return table, bijective, report

    def check(self, rows, outputs):
        table, bijective, report = outputs
        problems: list[str] = []
        expect(problems, "is_bijection", bijective, True)
        expect(problems, "entries are a permutation",
               sorted(table.entries) == list(range(1 << self.perm.width)), True)
        for row in rows:
            got = self.perm.decode(table.entries[self.perm.encode(*row)])
            expect(problems, f"entry for {row}", got, self.perm.expected(*row))
        expect(problems, "exhaustive verdict", report.passed, True)
        expect(problems, "exhaustive cases", report.cases, self.lanes)
        return problems, {}


@dataclass(frozen=True)
class Process:
    command: str
    returncode: int
    seconds: float
    rss_kb: int


class CliPipeline(Workload):
    name = "cli-pipeline"

    def __init__(self, bits: int = 16, trials: int = 10000) -> None:
        self.bits = bits
        self.trials = trials
        self.lanes = trials
        self.gates = BLOCK_GATES * bits + BLOCK_GATES

    def sizes(self) -> dict:
        return {"bits": self.bits, **super().sizes()}

    def run(self, seed: int, call: Call):
        verify = call(
            "cli.verify_pipeline", pipeline,
            ["build", "rca", "--bits", str(self.bits)],
            ["verify", "--mode", "random", "--trials", str(self.trials), "--seed", str(seed), "-"],
        )
        metrics = call("cli.metrics_pipeline", pipeline, ["build", "ppkn"], ["metrics", "-"])
        return verify, metrics

    def check(self, seed, outputs):
        problems: list[str] = []
        counts: dict[str, list[float]] = {
            "cli.build_s": [], "cli.verify_s": [], "cli.metrics_s": [], "cli.rss_kb": []
        }
        for processes, stdout in outputs:
            for p in processes:
                expect(problems, f"exit code of {p.command}", p.returncode, 0)
                counts[f"cli.{p.command}_s"].append(p.seconds)
                counts["cli.rss_kb"].append(p.rss_kb)
        (_, verified), (_, measured) = outputs
        lines = verified.splitlines()
        expect(problems, "verify output", lines[:1], [f"PASS: {self.trials} cases, 0 mismatches"])
        depth_lines = [" ".join(line.split()) for line in measured.splitlines()]
        expect(problems, "metrics reports logical depth 4", "logical depth 4" in depth_lines, True)
        return problems, counts


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pipeline(producer: list[str], consumer: list[str]) -> tuple[list[Process], str]:
    """Run `revadder <producer> | revadder <consumer>`; at most two processes at once.

    Each process is reaped with `wait4`, which gives its own wall time
    and peak resident memory.
    """
    env = cli_env()
    launched = []
    stdin = None
    for args in (producer, consumer):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "revadder", *args],
            stdin=stdin, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        )
        if stdin is not None:
            stdin.close()
        stdin = proc.stdout
        launched.append((proc, args[0], start))
    processes = []
    for proc, command, start in launched:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        processes.append(Process(command, proc.returncode, time.perf_counter() - start,
                                  usage.ru_maxrss))
    stdout = stdin.read().decode()
    stdin.close()
    return processes, stdout


WORKLOADS = {w.name: w for w in (DeepCascade, WideBatch, Exhaustive, CliPipeline)}
