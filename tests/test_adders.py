import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from revadder import (
    AdderLayout,
    CapacityError,
    Circuit,
    Mismatch,
    StructuralError,
    VerificationReport,
    ancilla,
    build_hng_reference,
    build_ppkn,
    build_rca,
    canonical_layout,
    cnot,
    logical_depth,
    named,
    oracle_add,
    ppkn_gates,
    render_verification_text,
    simulate,
    toffoli,
    verify_full_adder,
    verify_rca,
)
from revadder.adders import RANDOM_LANE_BITS, _ripple_words, _set_bit_positions

from corpus import DELETION_SEED, DELETION_TRIALS, deletion_digest
from helpers import (
    bits_to_int,
    encode_input,
    int_to_bits,
    kind_counts,
    ppkn_reference,
    rca_reference,
    reference_mismatches,
    transpose_reference,
)


def test_oracle_add_basics():
    assert oracle_add(0, 0, 0, 1) == (0, 0)
    assert oracle_add(1, 1, 1, 1) == (1, 1)
    assert oracle_add(1, 0, 1, 1) == (0, 1)
    assert oracle_add(0b111, 1, 0, 3) == (0, 1)
    assert oracle_add(0, 0, 0, 4) == (0, 0)
    assert oracle_add(200, 100, 1, 8) == (45, 1)


def test_oracle_add_rejects_bad_arguments():
    with pytest.raises(ValueError):
        oracle_add(2, 0, 0, 1)
    with pytest.raises(ValueError):
        oracle_add(0, -1, 0, 3)
    with pytest.raises(ValueError):
        oracle_add(0, 0, 2, 1)
    with pytest.raises(ValueError):
        oracle_add(0, 0, 0, 0)


def test_ppkn_netlist_is_exact():
    c, layout = build_ppkn()
    assert c.gates == (
        cnot(2, 0),
        cnot(2, 1),
        toffoli(0, 1, 3),
        cnot(2, 1),
        cnot(2, 3),
        cnot(1, 0),
    )
    assert layout == AdderLayout(1, cin_line=0, a_lines=(1,), b_lines=(2,), ancilla_lines=(3,))
    counts = kind_counts(c)
    assert counts["toffoli"] == 1
    assert counts["not"] == 0


def test_ppkn_roles_and_outputs():
    c, _ = build_ppkn()
    assert [r.name for r in c.roles] == ["Cin", "A", "B", None]
    assert [r.output for r in c.roles] == ["Sum", "A", "B", "Cout"]
    assert c.roles[3].is_ancilla


def test_ppkn_truth_table_against_oracle():
    c, layout = build_ppkn()
    for a, b, cin in product((0, 1), repeat=3):
        out = simulate(c, (cin, a, b, 0))
        want_sum, want_cout = oracle_add(a, b, cin, 1)
        assert out[layout.cin_line] == want_sum
        assert out[layout.cout_line] == want_cout
        assert out[layout.a_lines[0]] == a
        assert out[layout.b_lines[0]] == b


def test_verify_full_adder_ppkn():
    report = verify_full_adder(*build_ppkn())
    assert report.passed
    assert report.cases == 8
    assert report.mismatches == ()
    assert report.bijective is True
    assert report.failing_rows() == set()


def test_hng_reference_netlist_is_exact():
    c, layout = build_hng_reference()
    assert c.gates == (
        toffoli(0, 1, 3),
        cnot(0, 1),
        toffoli(1, 2, 3),
        cnot(1, 2),
        cnot(0, 1),
    )
    assert layout == AdderLayout(1, cin_line=2, a_lines=(0,), b_lines=(1,), ancilla_lines=(3,))
    assert kind_counts(c)["toffoli"] == 2


def test_verify_full_adder_hng_reference():
    report = verify_full_adder(*build_hng_reference())
    assert report.passed
    assert report.bijective is True


def test_hng_reference_single_row():
    c, _ = build_hng_reference()
    # A=1, B=1, Cin=0: sum 0, carry 1; lines are (A, B, Sum, Cout)
    assert simulate(c, (1, 1, 0, 0)) == (1, 1, 0, 1)


def test_full_adder_spec_lines_must_be_distinct():
    with pytest.raises(StructuralError):
        AdderLayout(1, 0, (1,), (1,), (3,))


def test_verify_full_adder_spec_out_of_range():
    c, _ = build_ppkn()
    with pytest.raises(StructuralError):
        verify_full_adder(c, AdderLayout(1, 0, (1,), (2,), (4,)))


def test_verify_full_adder_requires_ancilla_role():
    c, _ = build_ppkn()
    # Swapping roles so the claimed ancilla is a named input is rejected.
    with pytest.raises(StructuralError):
        verify_full_adder(c, AdderLayout(1, 3, (1,), (2,), (0,)))


def _with_role(n: int, line: int, role):
    """The n-bit cascade with one line's role replaced."""
    circuit, layout = build_rca(n)
    roles = circuit.roles[:line] + (role,) + circuit.roles[line + 1 :]
    return Circuit(circuit.width, roles, circuit.gates), layout


@pytest.mark.parametrize(
    "n, line, role, expected",
    [
        (1, 3, named("X"), "an ancilla"),  # the Cout line
        (2, 3, named("X"), "an ancilla"),  # block 0's carry into block 1
        (2, 6, named("X"), "an ancilla"),
        (1, 1, ancilla(), "an input"),  # A0
        (1, 0, ancilla(), "an input"),  # Cin
        (2, 4, ancilla(), "an input"),  # A1
        (2, 5, ancilla(), "an input"),  # B1
    ],
)
def test_verify_rca_refuses_roles_that_break_the_layout(n, line, role, expected):
    circuit, layout = _with_role(n, line, role)
    message = f"layout adder {n} expects line {line} to be {expected}"
    for mode in ("exhaustive", "random"):
        with pytest.raises(StructuralError) as exc:
            verify_rca(circuit, layout, mode)
        assert str(exc.value) == message
    if n == 1:
        with pytest.raises(StructuralError) as exc:
            verify_full_adder(circuit, layout)
        assert str(exc.value) == message


def test_verify_rca_names_the_lowest_line_that_breaks_the_layout():
    circuit, layout = _with_role(2, 6, named("X"))
    roles = circuit.roles[:4] + (ancilla(),) + circuit.roles[5:]
    with pytest.raises(StructuralError, match="^layout adder 2 expects line 4 to be an input$"):
        verify_rca(Circuit(7, roles, circuit.gates), layout)


def test_verify_rca_refuses_a_layout_line_the_circuit_lacks():
    circuit, _ = build_rca(1)
    with pytest.raises(StructuralError, match="^layout uses line 6, circuit width is 4$"):
        verify_rca(circuit, canonical_layout(2))


def test_verify_full_adder_rejects_wider_layouts():
    with pytest.raises(StructuralError):
        verify_full_adder(*build_rca(2))


# ---------------------------------------------------------------- cascades


def test_canonical_layout_positions():
    layout = canonical_layout(3)
    assert layout.cin_line == 0
    assert layout.a_lines == (1, 4, 7)
    assert layout.b_lines == (2, 5, 8)
    assert layout.ancilla_lines == (3, 6, 9)
    assert layout.sum_lines == (0, 3, 6)
    assert layout.cout_line == 9
    assert layout.width == 10


@pytest.mark.parametrize("n", range(1, 6))
def test_layout_invariants(n):
    layout = canonical_layout(n)
    assert layout.width == 3 * n + 1
    assert layout.sum_lines[0] == layout.cin_line
    assert layout.sum_lines[1:] == layout.ancilla_lines[:-1]
    assert layout.cout_line == layout.ancilla_lines[-1]
    all_lines = (
        (layout.cin_line,)
        + layout.a_lines
        + layout.b_lines
        + layout.ancilla_lines
    )
    assert sorted(all_lines) == list(range(layout.width))


def test_layout_rejects_duplicate_lines():
    with pytest.raises(StructuralError):
        AdderLayout(1, 0, (1,), (2,), (2,))
    with pytest.raises(StructuralError):
        AdderLayout(2, 0, (1,), (2,), (3,))


def test_encode_input():
    layout = canonical_layout(2)
    # a=3 sets lines 1 and 4, b=1 sets line 2, cin=0 sets nothing
    assert encode_input(layout, 3, 1, 0) == (1 << 1) | (1 << 4) | (1 << 2)
    assert encode_input(layout, 0, 0, 1) == 1


def test_rca1_is_the_single_block():
    c, layout = build_rca(1)
    block, _ = build_ppkn()
    assert c.gates == block.gates
    assert layout == canonical_layout(1)


def test_rca3_structure():
    c, layout = build_rca(3)
    assert c.width == 10
    assert len(c.gates) == 18
    assert kind_counts(c)["toffoli"] == 3
    assert layout == canonical_layout(3)
    assert c.roles[0].output == "Sum0"
    assert c.roles[3].output == "Sum1"
    assert c.roles[6].output == "Sum2"
    assert c.roles[9].output == "Cout"
    for line in layout.ancilla_lines:
        assert c.roles[line].is_ancilla


def test_rca_equals_the_block_formula_built_gate_by_gate():
    for n in range(1, 41):
        circuit, layout = build_rca(n)
        assert circuit == rca_reference(n)
        a_lines, b_lines = tuple(range(1, 3 * n, 3)), tuple(range(2, 3 * n, 3))
        assert layout == AdderLayout(n, 0, a_lines, b_lines, tuple(range(3, 3 * n + 1, 3)))


@pytest.mark.parametrize("lines", [(0, 1, 2, 3), (5, 1, 3, 6), (7, 2, 9, 4), (3, 2, 1, 0)])
def test_ppkn_gates_equal_the_block_formula(lines):
    assert ppkn_gates(*lines) == ppkn_reference(*lines)


@pytest.mark.parametrize(
    "lines, message",
    [
        ((0, 0, 1, 2), "duplicate line index in (0, 0, 2)"),
        ((-1, 1, 2, 3), "negative line index in (2, -1)"),
    ],
)
def test_ppkn_gates_rejects_bad_lines_as_gate_does(lines, message):
    with pytest.raises(StructuralError) as exc:
        ppkn_gates(*lines)
    assert str(exc.value) == message


def test_rca_rejects_zero_bits():
    with pytest.raises(ValueError):
        build_rca(0)


@pytest.mark.parametrize("n", range(1, 6))
def test_rca_counts_scale_linearly(n):
    c, _ = build_rca(n)
    assert len(c.gates) == 6 * n
    counts = kind_counts(c)
    assert counts["toffoli"] == n
    assert counts["cnot"] == 5 * n


@pytest.mark.parametrize("n", range(1, 5))
def test_rca_depth_formula_small(n):
    c, _ = build_rca(n)
    depth, _ = logical_depth(c)
    assert depth == 3 * n + 1


@pytest.mark.parametrize("n", range(1, 5))
def test_rca_exhaustive_verification(n):
    report = verify_rca(*build_rca(n))
    assert report.passed
    assert report.cases == 1 << (2 * n + 1)


def test_rca2_single_vector():
    c, layout = build_rca(2)
    state = int_to_bits(encode_input(layout, 3, 1, 0), layout.width)
    out = simulate(c, state)
    # 3 + 1 + 0 = 4: sum bits 00, carry out 1
    assert [out[i] for i in layout.sum_lines] == [0, 0]
    assert out[layout.cout_line] == 1
    assert [out[i] for i in layout.a_lines] == [1, 1]
    assert [out[i] for i in layout.b_lines] == [1, 0]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.data())
def test_rca_scalar_path_matches_oracle(n, data):
    c, layout = build_rca(n)
    a = data.draw(st.integers(0, (1 << n) - 1))
    b = data.draw(st.integers(0, (1 << n) - 1))
    cin = data.draw(st.integers(0, 1))
    out = simulate(c, int_to_bits(encode_input(layout, a, b, cin), layout.width))
    want_sum, want_cout = oracle_add(a, b, cin, n)
    got_sum = bits_to_int(tuple(out[i] for i in layout.sum_lines))
    assert got_sum == want_sum
    assert out[layout.cout_line] == want_cout
    assert bits_to_int(tuple(out[i] for i in layout.a_lines)) == a
    assert bits_to_int(tuple(out[i] for i in layout.b_lines)) == b


def test_rca_exhaustive_capacity_cap():
    c, layout = build_rca(9)
    with pytest.raises(CapacityError) as exc:
        verify_rca(c, layout, "exhaustive")
    assert "8" in str(exc.value)


def test_rca_random_lane_bits_cap():
    c, layout = build_rca(5)
    assert c.width == 16
    report = verify_rca(c, layout, "random", trials=RANDOM_LANE_BITS // 16)
    assert report.passed and report.cases * c.width == RANDOM_LANE_BITS
    # one spare line makes 17 lines, and 17 x 15,790,321 is the cap plus one
    wider = Circuit(17, c.roles + (ancilla(),), c.gates)
    trials = (RANDOM_LANE_BITS + 1) // 17
    assert trials * 17 == RANDOM_LANE_BITS + 1
    for circuit, count in ((wider, trials), (c, 10**12)):
        with pytest.raises(CapacityError) as exc:
            verify_rca(circuit, layout, "random", trials=count)
        assert f"capped at {RANDOM_LANE_BITS} lane bits" in str(exc.value)
        assert str(count) in str(exc.value)


def test_rca_random_verification():
    c, layout = build_rca(16)
    report = verify_rca(c, layout, "random", trials=500, seed=123)
    assert report.passed
    assert report.cases == 500


def test_rca_random_is_deterministic_per_seed():
    c, layout = build_rca(4)
    broken = Circuit(c.width, c.roles, c.gates[:-1])
    first = verify_rca(broken, layout, "random", trials=200, seed=9)
    second = verify_rca(broken, layout, "random", trials=200, seed=9)
    assert first == second
    assert not first.passed


def test_rca_verify_argument_errors():
    c, layout = build_rca(2)
    with pytest.raises(ValueError):
        verify_rca(c, layout, "fuzz")
    with pytest.raises(ValueError):
        verify_rca(c, layout, "random", trials=0)
    with pytest.raises(StructuralError):
        verify_rca(c, canonical_layout(3))


@pytest.mark.parametrize("sampling", [{"trials": 5}, {"seed": 9}, {"trials": 5, "seed": 9}])
def test_rca_exhaustive_refuses_sampling_arguments(sampling):
    # exhaustive mode draws nothing, so a sample size or seed would be ignored
    c, layout = build_rca(3)
    with pytest.raises(ValueError) as exc:
        verify_rca(c, layout, "exhaustive", **sampling)
    assert "exhaustive mode draws no vectors" in str(exc.value)
    # past the cap, the cap is the error
    with pytest.raises(CapacityError):
        verify_rca(*build_rca(9), "exhaustive", **sampling)


# ---------------------------------------------------------------- mutations


def _ppkn_without(index: int):
    c, layout = build_ppkn()
    gates = c.gates[:index] + c.gates[index + 1 :]
    return Circuit(c.width, c.roles, gates), layout


def test_dropping_carry_correction_breaks_exactly_b1_rows():
    # Without the CNOT from b onto the ancilla, the carry stays the
    # Toffoli product and is wrong exactly when b = 1.
    broken, layout = _ppkn_without(4)
    report = verify_full_adder(broken, layout)
    assert not report.passed
    assert report.failing_rows() == {(a, 1, c) for a in (0, 1) for c in (0, 1)}
    assert {m.quantity for m in report.mismatches} == {"cout"}
    assert report.bijective is True


def test_dropping_operand_restore_breaks_sum_and_a():
    # Without the second CNOT from b onto a, the a line keeps a^b and the
    # final sum CNOT picks up the stale value; both wrong exactly at b = 1.
    broken, layout = _ppkn_without(3)
    report = verify_full_adder(broken, layout)
    assert not report.passed
    assert report.failing_rows() == {(a, 1, c) for a in (0, 1) for c in (0, 1)}
    assert {m.quantity for m in report.mismatches} == {"sum", "a"}


def test_dropping_any_gate_is_detected():
    for index in range(6):
        broken, layout = _ppkn_without(index)
        assert not verify_full_adder(broken, layout).passed


def _embedded_ppkn():
    """The adder block on lines (5, 1, 3, 6) of an 8-line circuit."""
    roles = [ancilla() if i == 6 else named(f"q{i}") for i in range(8)]
    circuit = Circuit(8, roles, ppkn_gates(5, 1, 3, 6))
    return circuit, AdderLayout(1, cin_line=5, a_lines=(1,), b_lines=(3,), ancilla_lines=(6,))


FULL_ADDERS = {"ppkn": build_ppkn, "hng": build_hng_reference, "embedded": _embedded_ppkn}


@pytest.mark.parametrize(
    "name, index",
    [(name, i) for name, build in FULL_ADDERS.items() for i in range(len(build()[0].gates))],
)
def test_full_adder_mismatches_match_scalar_reference(name, index):
    c, layout = FULL_ADDERS[name]()
    broken = Circuit(c.width, c.roles, c.gates[:index] + c.gates[index + 1 :])
    report = verify_full_adder(broken, layout)
    rows = list(product((0, 1), repeat=3))
    assert set(report.mismatches) == set(reference_mismatches(broken, layout, rows))
    # listed by (a, b, cin), then sum, cout, a, b, each once
    order = ("sum", "cout", "a", "b")
    keys = [(m.a, m.b, m.cin, order.index(m.quantity)) for m in report.mismatches]
    assert keys == sorted(set(keys))


def test_miswired_cascade_is_detected():
    # Both blocks take their carry-in from line 0 instead of chaining
    # block 0's ancilla into block 1.
    layout = canonical_layout(2)
    roles = [named("Cin")]
    for i in range(2):
        roles += [named(f"A{i}"), named(f"B{i}"), ancilla()]
    bad = Circuit(7, roles, ppkn_gates(0, 1, 2, 3) + ppkn_gates(0, 4, 5, 6))
    report = verify_rca(bad, layout)
    assert not report.passed
    assert report.failing_rows()
    sample = report.mismatches[0]
    want_sum, want_cout = oracle_add(sample.a, sample.b, sample.cin, 2)
    assert sample.expected in (want_sum, want_cout, sample.a, sample.b)


def test_truncated_cascade_fails_exhaustive_check():
    c, layout = build_rca(4)
    broken = Circuit(c.width, c.roles, c.gates[:-1])
    report = verify_rca(broken, layout)
    assert not report.passed


def _rca_without(n: int, index: int):
    c, layout = build_rca(n)
    return Circuit(c.width, c.roles, c.gates[:index] + c.gates[index + 1 :]), layout


def _drawn_rows(n: int, trials: int, seed: int) -> list:
    """The (a, b, cin) rows random mode draws, decoded lane by lane.

    Random mode draws one `trials`-bit word per line: every a bit, then
    every b bit, then cin; lane j's row is bit j of each word.
    """
    rng = random.Random(seed)
    words = [rng.getrandbits(trials) for _ in range(2 * n + 1)]
    m = (1 << n) - 1
    return [
        (row & m, (row >> n) & m, row >> (2 * n))
        for row in transpose_reference(words, trials)
    ]


@pytest.mark.parametrize("seed", range(1, 7))
def test_random_mismatches_match_scalar_reference(seed):
    n, trials = 5, 2000
    broken, layout = _rca_without(n, random.Random(seed).randrange(6 * n))
    report = verify_rca(broken, layout, "random", trials=trials, seed=seed)
    assert not report.passed
    assert report.mismatches == reference_mismatches(
        broken, layout, _drawn_rows(n, trials, seed)
    )


def test_random_mode_lists_each_mismatch_once():
    # 2,000 lanes over the 32 rows of a 2-bit adder: every row is drawn
    # many times, and each of its mismatches must still appear once
    n, trials, seed = 2, 2000, 7
    broken, layout = _rca_without(n, 2)
    rows = _drawn_rows(n, trials, seed)
    assert len(set(rows)) < len(rows)
    report = verify_rca(broken, layout, "random", trials=trials, seed=seed)
    assert report.cases == trials
    assert not report.passed
    keys = [(m.a, m.b, m.cin, m.quantity) for m in report.mismatches]
    assert len(keys) == len(set(keys))
    assert report.mismatches == reference_mismatches(broken, layout, rows)


@pytest.mark.parametrize("n", [31, 32, 33, 40])
@pytest.mark.parametrize(
    "block, gate, quantities",
    [(16, 1, {"a", "sum"}), (-1, 1, {"a", "cout", "sum"}), (-1, 4, {"cout"})],
    ids=["block16-gate1", "last-block-gate1", "last-block-gate4"],
)
def test_random_mismatches_match_scalar_reference_at_the_key_chunk_edge(
    block, gate, quantities, n
):
    # the 2n operand rows b, a fill 62, 64, 66 and 80 rows: one 64-row
    # chunk, then two; and a failing lane's value spans 100+ bits, where a
    # field read at the wrong offset cannot hide as it can at n <= 5
    trials = 1000
    index = 6 * (block % n) + gate
    broken, layout = _rca_without(n, index)
    report = verify_rca(broken, layout, "random", trials=trials, seed=index)
    assert {m.quantity for m in report.mismatches} == quantities
    assert report.mismatches == reference_mismatches(
        broken, layout, _drawn_rows(n, trials, index)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 300), st.data())
def test_ripple_words_match_oracle_add_lane_by_lane(n, lanes, data):
    word = st.integers(0, (1 << lanes) - 1)
    a_words = data.draw(st.lists(word, min_size=n, max_size=n))
    b_words = data.draw(st.lists(word, min_size=n, max_size=n))
    cin_word = data.draw(word)
    sum_words, cout_word = _ripple_words(a_words, b_words, cin_word)
    assert len(sum_words) == n
    for j in range(lanes):
        a = sum(((w >> j) & 1) << i for i, w in enumerate(a_words))
        b = sum(((w >> j) & 1) << i for i, w in enumerate(b_words))
        got_sum = sum(((w >> j) & 1) << i for i, w in enumerate(sum_words))
        want = oracle_add(a, b, (cin_word >> j) & 1, n)
        assert (got_sum, (cout_word >> j) & 1) == want


def test_random_mode_fails_every_one_gate_deletion_at_32_bits():
    for index in range(6 * 32):
        broken, layout = _rca_without(32, index)
        report = verify_rca(broken, layout, "random", trials=1000, seed=index)
        assert not report.passed, index
        assert report.cases == 1000


#: SHA-256 of the reprs of `_failing_reports_at_32_bits()`, pinned from the
#: word-level checker before its failing path was tuned for speed
FAILING_REPORTS_SHA256 = "c1426650fa00813f2a1713d1455b0932bf6e28e7d59e65a9cf8842bdd2de62b6"


def _failing_reports_at_32_bits() -> list:
    """Six seeded one-gate deletions of the 32-bit cascade, 10k vectors each."""
    n = 32
    return [
        verify_rca(_rca_without(n, index)[0], canonical_layout(n), "random",
                   trials=10000, seed=index)
        for index in random.Random(n).sample(range(6 * n), 6)
    ]


def test_failing_reports_at_32_bits_are_pinned():
    # the wide-batch benchmark's shape, where the scalar reference is too
    # slow: the whole report, mismatch order included, is pinned by digest
    reports = _failing_reports_at_32_bits()
    digest = hashlib.sha256()
    for report in reports:
        assert not report.passed and report.cases == 10000
        for m in report.mismatches:
            assert type(m) is Mismatch
            assert m.describe().startswith(f"a={m.a} b={m.b} cin={m.cin}: {m.quantity} ")
        digest.update(repr(report).encode())
    assert sum(len(r.mismatches) for r in reports) == 41317
    assert digest.hexdigest() == FAILING_REPORTS_SHA256


#: sha256 of the reprs of every single-gate deletion's reports at 1 to 5
#: bits, exhaustive and sampled, and their failing rows and mismatches;
#: a change meant to alter a report updates these and says why in CHANGES.md
DELETION_DIGEST = "9b39f451dd13822b1496c5c72f3486175cc181d2169127fd5a10066fd94dac06"
DELETION_ROWS, DELETION_MISMATCHES = 51826, 77429


def test_single_gate_deletion_reports_are_pinned():
    digest, rows, mismatches = deletion_digest(DELETION_TRIALS, DELETION_SEED)
    assert (rows, mismatches) == (DELETION_ROWS, DELETION_MISMATCHES)
    assert digest == DELETION_DIGEST


def _set_bit_positions_reference(word: int) -> list:
    return [i for i in range(word.bit_length()) if (word >> i) & 1]


@pytest.mark.parametrize(
    "word", [0, 1, 2, 0b1011, 1 << 9999, (1 << 10000) - 1, (1 << 10000) - 2]
)
def test_set_bit_positions_edge_words(word):
    assert list(_set_bit_positions(word)) == _set_bit_positions_reference(word)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, (1 << 2000) - 1))
def test_set_bit_positions_match_bit_by_bit_reference(word):
    assert list(_set_bit_positions(word)) == _set_bit_positions_reference(word)


def test_exhaustive_mismatches_match_scalar_reference():
    n = 3
    rows = list(product(range(1 << n), range(1 << n), (0, 1)))
    for index in range(6 * n):
        broken, layout = _rca_without(n, index)
        report = verify_rca(broken, layout)
        assert not report.passed, index
        assert report.mismatches == reference_mismatches(broken, layout, rows), index


# ---------------------------------------------------------- prefix algebra


def test_ancilla_after_toffoli_is_product_of_xors():
    c, _ = build_ppkn()
    prefix = Circuit(c.width, c.roles, c.gates[:3])
    for a, b, cin in product((0, 1), repeat=3):
        out = simulate(prefix, (cin, a, b, 0))
        assert out[3] == (cin ^ b) & (a ^ b)


def test_ancilla_after_correction_is_majority():
    c, _ = build_ppkn()
    prefix = Circuit(c.width, c.roles, c.gates[:5])
    for a, b, cin in product((0, 1), repeat=3):
        out = simulate(prefix, (cin, a, b, 0))
        majority = (a & b) | (b & cin) | (a & cin)
        assert out[3] == majority


# ---------------------------------------------------------------- reporting


def test_report_passed_and_rows():
    rows = (
        Mismatch(1, 0, 0, "sum", 1, 0),
        Mismatch(1, 0, 0, "cout", 0, 1),
        Mismatch(0, 1, 1, "sum", 0, 1),
    )
    report = VerificationReport(8, rows)
    assert not report.passed
    assert report.failing_rows() == {(1, 0, 0), (0, 1, 1)}
    assert VerificationReport(8, ()).passed


def test_mismatch_repr_describe_equality_and_hash():
    m = Mismatch(1, 0, 0, "sum", 1, 0)
    assert repr(m) == "Mismatch(a=1, b=0, cin=0, quantity='sum', expected=1, actual=0)"
    assert m.describe() == "a=1 b=0 cin=0: sum expected 1, got 0"
    assert (m.a, m.b, m.cin, m.quantity, m.expected, m.actual) == (1, 0, 0, "sum", 1, 0)
    same = Mismatch(a=1, b=0, cin=0, quantity="sum", expected=1, actual=0)
    assert m == same and hash(m) == hash(same)
    assert m != Mismatch(1, 0, 0, "sum", 1, 1)
    assert m != Mismatch(1, 0, 0, "cout", 1, 0)
    assert len({m, same, Mismatch(0, 1, 1, "sum", 0, 1)}) == 2


def test_render_verification_text_pass():
    text = render_verification_text(verify_full_adder(*build_ppkn()))
    assert "PASS: 8 cases, 0 mismatches" in text
    assert "bijective" in text


def test_render_verification_text_fail_lists_counterexamples():
    broken, layout = _ppkn_without(4)
    text = render_verification_text(verify_full_adder(broken, layout))
    assert text.startswith("FAIL")
    assert "a=0 b=1 cin=0: cout expected 0, got 1" in text


def test_render_verification_text_truncates():
    c, layout = build_rca(3)
    broken = Circuit(c.width, c.roles, c.gates[:-2])
    report = verify_rca(broken, layout)
    lines = render_verification_text(report).splitlines()
    assert lines[0] == "FAIL: 96 of 128 rows wrong (128 mismatches)"
    assert lines[1:21] == [f"  {m.describe()}" for m in report.mismatches[:20]]
    assert lines[21:] == ["  ... and 108 more"]
    # twenty mismatches are all listed, with no count of the rest
    twenty = report._replace(mismatches=report.mismatches[:20])
    assert render_verification_text(twenty).splitlines()[1:] == lines[1:21]
