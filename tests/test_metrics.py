import random

import pytest
from hypothesis import given, settings, strategies as st

from revadder import (
    Circuit,
    DEFAULT_LITERATURE,
    HNG_PUBLISHED,
    TSG_PUBLISHED,
    analyze,
    ancilla,
    build_hng_reference,
    build_ppkn,
    build_rca,
    cnot,
    compare_report,
    logical_depth,
    named,
    render_comparison_csv,
    render_comparison_text,
    render_metrics_csv,
    render_metrics_text,
    simulate_batch,
    toffoli,
)

from revadder.metrics import (
    COMPARISON_COLUMNS,
    ComparisonRow,
    MetricsReport,
    _FIGURES,
)

from helpers import (
    assert_schedule_valid,
    bitstates_st,
    circuits_st,
    gates_conflict_reference,
    kind_counts,
    longest_path_levels,
    pack_states,
    random_circuit,
)

PPKN_SCHEDULE = ((0, 1), (2,), (3, 4), (5,))


def test_quantum_cost_of_empty_circuit():
    assert analyze(Circuit(1, (named("a"),))).quantum_cost == 0


def test_quantum_cost_ppkn():
    c, _ = build_ppkn()
    assert analyze(c).quantum_cost == 10


def test_quantum_cost_hng_reference():
    c, _ = build_hng_reference()
    assert analyze(c).quantum_cost == 13


def test_conflict_rule():
    # Target into the other gate's control, either direction: conflict.
    assert gates_conflict_reference(cnot(2, 0), cnot(0, 3))
    assert gates_conflict_reference(cnot(0, 3), cnot(2, 0))
    # Same target: conflict.
    assert gates_conflict_reference(cnot(0, 3), cnot(1, 3))
    # Shared control only: no conflict.
    assert not gates_conflict_reference(cnot(2, 0), cnot(2, 1))
    assert not gates_conflict_reference(toffoli(0, 1, 2), toffoli(0, 1, 3))
    # Disjoint lines: no conflict.
    assert not gates_conflict_reference(cnot(0, 1), cnot(2, 3))


def test_logical_depth_empty():
    depth, schedule = logical_depth(Circuit(2, (named("a"), named("b"))))
    assert depth == 0
    assert schedule.timesteps == ()


def test_logical_depth_ppkn():
    c, _ = build_ppkn()
    depth, schedule = logical_depth(c)
    assert depth == 4
    assert schedule.timesteps == PPKN_SCHEDULE


def test_logical_depth_hng_reference_is_serial():
    c, _ = build_hng_reference()
    depth, schedule = logical_depth(c)
    assert depth == 5
    assert schedule.timesteps == ((0,), (1,), (2,), (3,), (4,))


def test_logical_depth_parallel_fanout():
    c = Circuit(3, tuple(named(f"q{i}") for i in range(3)), (cnot(0, 1), cnot(0, 2)))
    depth, schedule = logical_depth(c)
    assert depth == 1
    assert schedule.timesteps == ((0, 1),)


def test_analyze_ppkn():
    c, _ = build_ppkn()
    report = analyze(c)
    assert report.gate_count == 6
    assert report.not_count == 0
    assert report.cnot_count == 5
    assert report.toffoli_count == 1
    assert report.quantum_cost == 10
    assert report.logical_depth == 4
    assert report.schedule.timesteps == PPKN_SCHEDULE


def test_analyze_single_toffoli():
    c = Circuit(3, (named("a"), named("b"), ancilla()), (toffoli(0, 1, 2),))
    report = analyze(c)
    assert report.gate_count == 1
    assert report.quantum_cost == 5
    assert report.logical_depth == 1


def test_analyze_rca3():
    c, _ = build_rca(3)
    report = analyze(c)
    assert report.gate_count == 18
    assert report.toffoli_count == 3
    assert report.cnot_count == 15
    assert report.quantum_cost == 30
    assert report.logical_depth == 10


def test_analyze_is_deterministic():
    c, _ = build_rca(4)
    assert analyze(c) == analyze(c)


@given(circuits_st(max_width=8, max_gates=40))
def test_schedule_is_valid_partition(c):
    depth, schedule = logical_depth(c)
    assert depth == len(schedule.timesteps)
    assert_schedule_valid(c, schedule)


def test_schedule_steps_match_longest_path_dp_per_gate():
    rng = random.Random(0xDE97)
    nots = fanouts = 0
    for _ in range(150):
        c = random_circuit(rng, rng.randint(1, 10), rng.randint(0, 100))
        depth, schedule = logical_depth(c)
        step_of = {i: t for t, step in enumerate(schedule.timesteps, 1) for i in step}
        levels = longest_path_levels(c.gates)
        assert [step_of[i] for i in range(len(c.gates))] == levels
        assert depth == max(levels, default=0)
        assert_schedule_valid(c, schedule)
        nots += kind_counts(c)["not"]
        fanouts += sum(
            1
            for step in schedule.timesteps
            for x in step
            for y in step
            if x < y and set(c.gates[x].controls) & set(c.gates[y].controls)
        )
    # the sample exercises unconditional flips and controls shared in one step
    assert nots > 0 and fanouts > 0


@given(circuits_st(max_width=8, max_gates=40))
def test_depth_bounds(c):
    depth, _ = logical_depth(c)
    assert depth <= len(c.gates)
    if c.gates:
        assert depth >= 1
        busiest = max(
            sum(1 for g in c.gates if g.target == t)
            for t in range(c.width)
        )
        assert depth >= busiest


@settings(max_examples=60)
@given(circuits_st(max_width=8, max_gates=50), st.data())
def test_scheduled_execution_matches_sequential(c, data):
    _, schedule = logical_depth(c)
    order = []
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for step in schedule.timesteps:
        shuffled = list(step)
        rng.shuffle(shuffled)
        order.extend(shuffled)
    reordered = Circuit(c.width, c.roles, tuple(c.gates[i] for i in order))
    states = data.draw(
        st.lists(bitstates_st(c.width), min_size=1, max_size=16)
    )
    batch = pack_states(states)
    assert simulate_batch(reordered, batch) == simulate_batch(c, batch)


@given(circuits_st(max_width=6, max_gates=30))
def test_report_counts_are_consistent(c):
    report = analyze(c)
    assert report.gate_count == len(c.gates)
    assert (
        report.not_count + report.cnot_count + report.toffoli_count
        == report.gate_count
    )
    assert report.quantum_cost == (
        report.not_count + report.cnot_count + 5 * report.toffoli_count
    )
    assert report.logical_depth == len(report.schedule.timesteps)


@given(circuits_st(max_width=6, max_gates=30))
def test_report_counts_and_cost_agree_with_per_gate_sums(c):
    report = analyze(c)
    counts = kind_counts(c)
    assert report.not_count == counts["not"]
    assert report.cnot_count == counts["cnot"]
    assert report.toffoli_count == counts["toffoli"]
    # the paper's cost: NOT = CNOT = 1, Toffoli = 5
    assert report.quantum_cost == (
        counts["not"] + counts["cnot"] + 5 * counts["toffoli"]
    )


# ---------------------------------------------------------------- comparison


def test_compare_row_layout():
    table = compare_report()
    assert [(r.name, r.provenance) for r in table.rows] == [
        ("PPKN", "computed"),
        ("HNG-reference", "computed"),
        ("HNG", "literature"),
        ("TSG", "literature"),
    ]


def test_compare_computed_rows_are_the_adders_reports():
    # compare_report() fills each computed row positionally from _FIGURES,
    # so every figure must land in the field of the same name
    table = compare_report()
    for row, (circuit, _) in zip(table.rows, (build_ppkn(), build_hng_reference())):
        report = analyze(circuit)
        for field in MetricsReport._fields[:-1]:
            assert getattr(row, field) == getattr(report, field), (row.name, field)


def test_figure_table_follows_the_row_and_column_order():
    assert tuple(field for field, _, _ in _FIGURES) == ComparisonRow._fields[2:]
    assert {field for field, _, _ in _FIGURES} == set(MetricsReport._fields[:-1])
    assert COMPARISON_COLUMNS[2:] == tuple(column for _, column, _ in _FIGURES)


def test_compare_ppkn_matches_no_baseline():
    # No published PPKN row ships by default, so nothing to disagree with.
    table = compare_report()
    assert all(d.name != "PPKN" for d in table.discrepancies)


def test_compare_flags_hng_quantum_cost_once():
    table = compare_report()
    flags = [d for d in table.discrepancies if d.name == "HNG-reference"]
    assert len(flags) == 1
    (flag,) = flags
    assert flag.metric == "quantum cost"
    assert flag.computed == 13
    assert flag.published == 12
    assert "13" in flag.describe() and "12" in flag.describe()


def test_compare_qc_reduction_ratio():
    table = compare_report()
    reduction = table.qc_reduction
    assert (reduction.name, reduction.baseline) == ("PPKN", "HNG")
    assert reduction.qc == 10
    assert reduction.baseline_qc == 12
    assert reduction.ratio == pytest.approx((12 - 10) / 12)
    assert round(100 * reduction.ratio) == 17
    text = reduction.describe()
    assert "16.7%" in text
    assert "17%" in text
    assert "(12 - 10) / 12" in text


def test_published_rows_frozen_values():
    assert (HNG_PUBLISHED.gate_count, HNG_PUBLISHED.toffoli_count) == (5, 2)
    assert (HNG_PUBLISHED.quantum_cost, HNG_PUBLISHED.logical_depth) == (12, 5)
    assert (TSG_PUBLISHED.gate_count, TSG_PUBLISHED.quantum_cost) == (6, 14)
    assert DEFAULT_LITERATURE == (HNG_PUBLISHED, TSG_PUBLISHED)


def test_render_comparison_text():
    text = render_comparison_text(compare_report())
    lines = text.splitlines()
    assert lines[0].split() == [
        "name", "provenance", "gates", "toffoli", "cnot", "not", "qc", "depth",
    ]
    assert any(line.startswith("discrepancy:") for line in lines)
    assert any("16.7%" in line for line in lines)
    # Literature rows leave unpublished cells blank.
    hng_line = next(line for line in lines if line.startswith("HNG "))
    assert "-" in hng_line


def test_render_comparison_csv():
    out = render_comparison_csv(compare_report())
    lines = out.splitlines()
    assert lines[0] == "name,provenance,gates,toffoli,cnot,not,qc,depth"
    assert "PPKN,computed,6,1,5,0,10,4" in lines
    assert "HNG,literature,5,2,,,12,5" in lines
    assert out == render_comparison_csv(compare_report())


def test_render_metrics_text_with_gates():
    c, _ = build_ppkn()
    text = render_metrics_text(analyze(c), c)
    assert "quantum cost  10" in text
    assert "logical depth 4" in text
    assert "step 1: g0 cnot 2 0 | g1 cnot 2 1" in text
    assert "step 2: g2 toffoli 0 1 3" in text
    assert "step 4: g5 cnot 1 0" in text


def test_render_metrics_csv_schedule_column():
    c, _ = build_ppkn()
    out = render_metrics_csv(analyze(c))
    lines = out.splitlines()
    assert lines[0] == "gates,toffoli,cnot,not,qc,depth,schedule"
    assert lines[1] == "6,1,5,0,10,4,0 1|2|3 4|5"
