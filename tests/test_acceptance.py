"""End-to-end acceptance checks.

Each test covers one headline claim and prints a single PASS/FAIL line
(bypassing capture) so a full run reads as a checklist. Expected values
are hard-coded here, never recomputed from the modules under test, and
the depth formula is cross-checked by test-side longest-path code that
does not share the scheduler's implementation.
"""
import random
import time
from itertools import product

from click.testing import CliRunner

from revadder import (
    Circuit,
    analyze,
    build_hng_reference,
    build_ppkn,
    build_rca,
    compare_report,
    is_bijection,
    logical_depth,
    oracle_add,
    parse_netlist,
    permutation_of,
    render_comparison_text,
    serialize_netlist,
    simulate,
    simulate_batch,
    verify_full_adder,
    verify_rca,
)
from revadder.cli import main

from helpers import (
    assert_schedule_valid,
    gates_conflict_reference,
    int_to_bits,
    lane_states,
    longest_path_levels,
    pack_states,
    random_circuit,
)

PPKN_SCHEDULE = ((0, 1), (2,), (3, 4), (5,))
SEED = 0x5EED


def announce(capsys, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_adder_truth_table(capsys):
    started = time.perf_counter()
    circuit, layout = build_ppkn()
    ok = True
    for a, b, cin in product((0, 1), repeat=3):
        out = simulate(circuit, (cin, a, b, 0))
        want_sum, want_cout = oracle_add(a, b, cin, 1)
        ok &= out[layout.cin_line] == want_sum
        ok &= out[layout.cout_line] == want_cout
        ok &= out[layout.a_lines[0]] == a and out[layout.b_lines[0]] == b
    report = verify_full_adder(circuit, layout)
    ok &= report.passed and report.cases == 8 and report.bijective is True
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    announce(
        capsys,
        "1-bit adder: all 8 rows match integer addition, inputs preserved",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def test_adder_metrics(capsys):
    circuit, _ = build_ppkn()
    report = analyze(circuit)
    ok = (
        report.gate_count == 6
        and report.not_count == 0
        and report.cnot_count == 5
        and report.toffoli_count == 1
        and report.quantum_cost == 10
        and report.logical_depth == 4
        and report.schedule.timesteps == PPKN_SCHEDULE
    )
    announce(
        capsys,
        "1-bit adder metrics: 6 gates, 1 Toffoli, QC 10, depth 4, "
        "schedule {g0,g1},{g2},{g3,g4},{g5}",
        ok,
    )


def test_baseline_adder(capsys):
    circuit, layout = build_hng_reference()
    report = analyze(circuit)
    verification = verify_full_adder(circuit, layout)
    table = compare_report([("HNG-reference", report)])
    flagged = [
        d
        for d in table.discrepancies
        if d.metric == "quantum cost" and d.computed == 13 and d.published == 12
    ]
    ok = (
        verification.passed
        and verification.bijective is True
        and report.gate_count == 5
        and report.toffoli_count == 2
        and report.logical_depth == 5
        and report.quantum_cost == 13
        and len(flagged) == 1
    )
    announce(
        capsys,
        "baseline adder: verified 8/8; 5 gates, 2 Toffolis, depth 5; "
        "computed QC 13 flagged against published 12",
        ok,
    )


def test_cost_reduction_claim(capsys):
    ppkn, _ = build_ppkn()
    hng, _ = build_hng_reference()
    table = compare_report(
        [("PPKN", analyze(ppkn)), ("HNG-reference", analyze(hng))]
    )
    reduction = table.qc_reduction
    rendered = render_comparison_text(table)
    ok = (
        reduction is not None
        and reduction.ratio == (12 - 10) / 12
        and round(100 * reduction.ratio) == 17
        and "16.7%" in rendered
        and "(12 - 10) / 12" in rendered
    )
    announce(
        capsys,
        "cost reduction vs published baseline: (12 - 10) / 12 = 16.7%, "
        "rounds to 17%, printed by the comparison report",
        ok,
    )


def test_cascade_correctness(capsys):
    started = time.perf_counter()
    ok = True
    for n in (1, 2, 3, 4):
        report = verify_rca(*build_rca(n))
        ok &= report.passed and report.cases == 1 << (2 * n + 1)
    small_elapsed = time.perf_counter() - started
    ok &= small_elapsed < 1.0

    started = time.perf_counter()
    wide = verify_rca(*build_rca(32), mode="random", trials=10000)
    wide_elapsed = time.perf_counter() - started
    ok &= wide.passed and wide.cases == 10000 and wide.mismatches == ()
    ok &= wide_elapsed < 5.0
    announce(
        capsys,
        "ripple-carry cascade: exhaustive n=1..4 and 10k random vectors at "
        "n=32, zero mismatches, operand lines preserved",
        ok,
        f"exhaustive {small_elapsed * 1000:.0f} ms, n=32 {wide_elapsed * 1000:.0f} ms",
    )


def test_exhaustive_enumeration_at_line_limit(capsys):
    rng = random.Random(SEED)
    circuit = random_circuit(rng, 20, 60)
    started = time.perf_counter()
    table = permutation_of(circuit)
    bijective = is_bijection(table)
    elapsed = time.perf_counter() - started
    ok = bijective and elapsed < 1.0
    for x in (rng.randrange(1 << 20) for _ in range(200)):
        out = simulate(circuit, int_to_bits(x, 20))
        ok &= table.entries[x] == sum(bit << i for i, bit in enumerate(out))
    announce(
        capsys,
        "20-line circuit enumerated over all 2^20 basis states and found "
        "bijective, agreeing with scalar simulation on 200 sampled inputs",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def _longest_chain_enumerated(gates) -> int:
    preds = [
        [i for i in range(j) if gates_conflict_reference(gates[i], gates[j])]
        for j in range(len(gates))
    ]

    def longest_ending_at(j: int) -> int:
        # deliberately unmemoized: walks every dependency chain
        return 1 + max((longest_ending_at(i) for i in preds[j]), default=0)

    return max(
        (longest_ending_at(j) for j in range(len(gates))), default=0
    )


def test_cascade_depth_formula(capsys):
    ok = True
    for n in range(1, 9):
        circuit, _ = build_rca(n)
        depth, schedule = logical_depth(circuit)
        ok &= depth == 3 * n + 1
        ok &= max(longest_path_levels(circuit.gates)) == 3 * n + 1
        assert_schedule_valid(circuit, schedule)
    for n in (1, 2, 3, 4):
        circuit, _ = build_rca(n)
        ok &= _longest_chain_enumerated(circuit.gates) == 3 * n + 1
    announce(
        capsys,
        "cascade depth is 3n+1 for n=1..8, agreeing with independent "
        "longest-path checks (DP, plus full chain enumeration for n<=4)",
        ok,
    )


def test_gate_list_path_at_1024_bits(capsys):
    started = time.perf_counter()
    circuit, layout = build_rca(1024)
    document = serialize_netlist(circuit, layout)
    parsed = parse_netlist(document)
    depth, schedule = logical_depth(parsed[0])
    elapsed = time.perf_counter() - started
    ok = (
        parsed == (circuit, layout)
        and len(circuit.gates) == 6 * 1024
        and depth == 3 * 1024 + 1
        and len(schedule.timesteps) == depth
        and elapsed < 0.5
    )
    announce(
        capsys,
        "1024-bit cascade: build, serialize, parse and depth 3073 in under "
        "0.5 s, round trip equal",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def test_parse_at_1024_bits(capsys):
    circuit, layout = build_rca(1024)
    document = serialize_netlist(circuit, layout)
    started = time.perf_counter()
    parsed = parse_netlist(document)
    elapsed = time.perf_counter() - started
    ok = parsed == (circuit, layout) and elapsed < 0.1
    announce(
        capsys,
        "1024-bit cascade: its document (3073 circuit lines, 6144 gates) "
        "parsed in under 0.1 s, equal to the built circuit",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def test_simulate_command_at_4000_bits(capsys):
    runner = CliRunner()
    document = runner.invoke(main, ["build", "rca", "--bits", "4000"]).output
    # Cin = 1 and A = 2^n - 1: the carry runs through every block, so every
    # sum bit is 0 and Cout is 1; A and B are preserved
    bits = "1" + "100" * 4000
    started = time.perf_counter()
    result = runner.invoke(main, ["simulate", "-", "--input", bits], input=document)
    elapsed = time.perf_counter() - started
    lines = result.output.splitlines()
    ok = (
        result.exit_code == 0
        and lines[1] == "output 0" + "100" * 3999 + "101"
        and sum(line.startswith("Sum") and line.endswith(" = 0") for line in lines) == 4000
        and lines[-1] == "Cout = 1"
        and elapsed < 0.5
    )
    announce(
        capsys,
        "4000-bit cascade: the simulate command on a 12001-bit full-carry "
        "input in under 0.5 s, every sum bit 0 and Cout 1",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def test_random_verify_at_1024_bits(capsys):
    circuit, layout = build_rca(1024)
    started = time.perf_counter()
    report = verify_rca(circuit, layout, mode="random", trials=10000)
    elapsed = time.perf_counter() - started
    ok = report.passed and report.cases == 10000 and elapsed < 0.25
    announce(
        capsys,
        "1024-bit cascade: 10k random vectors verified in under 0.25 s, "
        "zero mismatches",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def test_failing_random_verify_at_32_bits(capsys):
    circuit, layout = build_rca(32)
    first = 6 * 16  # six gates per block
    mutants = [
        Circuit(circuit.width, circuit.roles, circuit.gates[:i] + circuit.gates[i + 1 :])
        for i in range(first, first + 6)
    ]
    started = time.perf_counter()
    reports = [verify_rca(m, layout, mode="random", trials=10000) for m in mutants]
    elapsed = time.perf_counter() - started
    ok = all(not r.passed and r.cases == 10000 for r in reports) and elapsed < 0.2
    announce(
        capsys,
        "32-bit cascade: each one-gate deletion of block 16 fails 10k random "
        "vectors, all six in under 0.2 s",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def test_exhaustive_verify_at_8_bits(capsys):
    circuit, layout = build_rca(8)
    started = time.perf_counter()
    report = verify_rca(circuit, layout)
    elapsed = time.perf_counter() - started
    ok = report.passed and report.cases == 1 << 17 and elapsed < 0.1
    announce(
        capsys,
        "8-bit cascade: all 131,072 operand vectors verified in under 0.1 s, "
        "zero mismatches",
        ok,
        f"{elapsed * 1000:.1f} ms",
    )


def test_property_suites(capsys):
    rng = random.Random(SEED)

    # (a) every generated circuit computes a permutation of basis states
    bijective = is_bijection(permutation_of(build_ppkn()[0]))
    for _ in range(500):
        c = random_circuit(rng, rng.randint(1, 10), rng.randint(0, 40))
        bijective &= is_bijection(permutation_of(c))

    # (b) executing the witness schedule, any order within a step,
    # matches sequential simulation on 100 random inputs per circuit
    scheduled_ok = True
    for _ in range(200):
        c = random_circuit(rng, rng.randint(1, 10), rng.randint(0, 100))
        _, schedule = logical_depth(c)
        order = []
        for step in schedule.timesteps:
            shuffled = list(step)
            rng.shuffle(shuffled)
            order.extend(shuffled)
        reordered = Circuit(c.width, c.roles, tuple(c.gates[i] for i in order))
        states = [
            tuple(rng.randint(0, 1) for _ in range(c.width)) for _ in range(100)
        ]
        batch = pack_states(states)
        scheduled_ok &= simulate_batch(reordered, batch) == simulate_batch(c, batch)

    # (c) batched simulation agrees with the scalar path lane by lane
    batch_ok = True
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 10), rng.randint(0, 60))
        states = [
            tuple(rng.randint(0, 1) for _ in range(c.width)) for _ in range(32)
        ]
        out = simulate_batch(c, pack_states(states))
        batch_ok &= lane_states(out) == [simulate(c, s) for s in states]

    # (d) serialization round-trips built-ins and generated circuits
    round_trip = True
    for circuit, layout in (build_ppkn()[0], None), (build_hng_reference()[0], None):
        round_trip &= parse_netlist(serialize_netlist(circuit)) == (circuit, layout)
    for n in (1, 2, 3, 4):
        circuit, layout = build_rca(n)
        round_trip &= parse_netlist(serialize_netlist(circuit, layout)) == (
            circuit,
            layout,
        )
    for _ in range(200):
        c = random_circuit(rng, rng.randint(1, 10), rng.randint(0, 40))
        round_trip &= parse_netlist(serialize_netlist(c)) == (c, None)

    # (e) verification pins deleted gates to concrete counterexample rows
    circuit, layout = build_ppkn()
    b_one_rows = {(a, 1, cin) for a in (0, 1) for cin in (0, 1)}
    dropped_carry = verify_full_adder(
        Circuit(circuit.width, circuit.roles, circuit.gates[:4] + circuit.gates[5:]),
        layout,
    )
    dropped_restore = verify_full_adder(
        Circuit(circuit.width, circuit.roles, circuit.gates[:3] + circuit.gates[4:]),
        layout,
    )
    mutations = (
        not dropped_carry.passed
        and dropped_carry.failing_rows() == b_one_rows
        and {m.quantity for m in dropped_carry.mismatches} == {"cout"}
        and not dropped_restore.passed
        and dropped_restore.failing_rows() == b_one_rows
        and {m.quantity for m in dropped_restore.mismatches} == {"sum", "a"}
    )

    checks = {
        "bijectivity x501": bijective,
        "schedule equivalence x200": scheduled_ok,
        "batch=scalar x100": batch_ok,
        "round-trip x206": round_trip,
        "mutation detection": mutations,
    }
    announce(
        capsys,
        "property suites: bijectivity, schedule equivalence, batched vs "
        "scalar simulation, netlist round-trip, mutation detection",
        all(checks.values()),
        ", ".join(k for k, v in checks.items() if not v) or "all five held",
    )
