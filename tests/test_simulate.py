import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from revadder import (
    EXHAUSTIVE_LINE_LIMIT,
    BatchState,
    CapacityError,
    Circuit,
    PermutationTable,
    StructuralError,
    all_basis_states,
    build_ppkn,
    cnot,
    is_bijection,
    named,
    oracle_add,
    permutation_of,
    simulate,
    simulate_batch,
    toffoli,
)

import revadder
from revadder.simulate import _SLAB_BITS, _tile_masks, transpose

from helpers import (
    bits_to_int,
    bitstates_st,
    circuits_st,
    int_to_bits,
    lane_states,
    not_gate,
    pack_states,
    random_circuit,
    transpose_reference,
)


def test_bits_int_round_trip():
    for x in range(32):
        assert bits_to_int(int_to_bits(x, 5)) == x


def test_int_to_bits_line_zero_is_lsb():
    assert int_to_bits(1, 3) == (1, 0, 0)
    assert int_to_bits(4, 3) == (0, 0, 1)


def one_gate(gate, width):
    return Circuit(width, tuple(named(f"q{i}") for i in range(width)), (gate,))


def test_apply_toffoli_fires_when_both_controls_set():
    assert simulate(one_gate(toffoli(0, 1, 3), 4), (1, 1, 0, 0)) == (1, 1, 0, 1)
    assert simulate(one_gate(toffoli(0, 1, 3), 4), (1, 0, 0, 0)) == (1, 0, 0, 0)


def test_apply_cnot_on_zero_state_is_identity():
    assert simulate(one_gate(cnot(2, 0), 4), (0, 0, 0, 0)) == (0, 0, 0, 0)


def test_apply_not_always_flips():
    assert simulate(one_gate(not_gate(1), 3), (0, 0, 0)) == (0, 1, 0)
    assert simulate(one_gate(not_gate(1), 3), (0, 1, 0)) == (0, 0, 0)


def test_apply_gate_out_of_range():
    with pytest.raises(StructuralError):
        simulate(one_gate(cnot(2, 0), 3), (0, 0))


def test_simulate_full_adder_example():
    c, _ = build_ppkn()
    # Cin=1, A=0, B=1: sum = 0, carry = 1
    assert simulate(c, (1, 0, 1, 0)) == (0, 0, 1, 1)


def test_simulate_zero_state_fixed_point():
    c, _ = build_ppkn()
    assert simulate(c, (0, 0, 0, 0)) == (0, 0, 0, 0)


def test_simulate_all_ones_inputs():
    c, _ = build_ppkn()
    # Cin=1, A=1, B=1: sum = 1, carry = 1
    assert simulate(c, (1, 1, 1, 0)) == (1, 1, 1, 1)


def test_simulate_width_mismatch():
    c, _ = build_ppkn()
    with pytest.raises(StructuralError):
        simulate(c, (0, 0, 0))


def test_batch_from_ints_round_trip():
    values = [5, 0, 7, 3, 1]
    batch = BatchState.from_ints(values, 3)
    assert batch.lanes_as_ints() == values
    assert (batch.lanes, batch.width) == (5, 3)
    # line i's word holds bit i of every lane value, lane j in bit j
    assert batch.words == (0b11101, 0b01100, 0b00101)


@st.composite
def bit_matrices_st(draw):
    width = draw(st.integers(1, 70))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=70))
    return rows, width


@given(bit_matrices_st())
def test_transpose_matches_per_bit_reference(matrix):
    rows, width = matrix
    assert transpose(rows, width) == transpose_reference(rows, width)


@given(bit_matrices_st())
def test_transpose_is_its_own_inverse(matrix):
    rows, width = matrix
    assert transpose(transpose(rows, width), len(rows)) == rows


@given(bit_matrices_st(), st.data())
def test_transpose_selected_columns_match_reference(matrix, data):
    rows, width = matrix
    # any order, repeats allowed, possibly empty
    columns = data.draw(st.lists(st.integers(0, width - 1), max_size=2 * width))
    full = transpose_reference(rows, width)
    assert transpose(rows, width, columns) == [full[i] for i in columns]


def test_transpose_of_no_rows_is_all_zero():
    assert transpose([], 3) == [0, 0, 0]
    assert transpose([], 3, [2, 0]) == [0, 0]


def test_transpose_width_one():
    assert transpose([1, 0, 1, 1], 1) == [0b1101]
    assert transpose([0b1101], 4) == [1, 0, 1, 1]


@st.composite
def tall_matrices_st(draw):
    """Up to 140 rows (three chunks of 64) and 300 columns of random bits."""
    width = draw(st.integers(1, 300))
    n_rows = draw(st.integers(0, 140))
    rng = draw(st.randoms(use_true_random=False))
    return [rng.getrandbits(width) for _ in range(n_rows)], width


@settings(max_examples=40, deadline=None)
@given(tall_matrices_st(), st.data())
def test_transpose_of_tall_matrices_matches_reference(matrix, data):
    rows, width = matrix
    columns = data.draw(st.lists(st.integers(0, width - 1), max_size=width))
    full = transpose_reference(rows, width)
    assert transpose(rows, width) == full
    assert transpose(rows, width, columns) == [full[i] for i in columns]


#: columns per slab of the widest (64 x 64-bit) tiles
SLAB = _SLAB_BITS // 64


def _column_choices(rng, width):
    """No selection, a sorted subset, an unsorted subset with repeats, none."""
    return [
        None,
        sorted(rng.sample(range(width), (width + 1) // 2)),
        [rng.randrange(width) for _ in range(width // 3 + 2)],
        [],
    ]


@pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65, 129])
@pytest.mark.parametrize("width", [1, 63, 64, 65, SLAB - 1, SLAB, SLAB + 1, 10000])
def test_transpose_at_chunk_and_slab_edges(n_rows, width):
    rng = random.Random(f"{n_rows}x{width}")
    rows = [rng.getrandbits(width) for _ in range(n_rows)]
    full = transpose_reference(rows, width)
    for columns in _column_choices(rng, width):
        want = full if columns is None else [full[i] for i in columns]
        assert transpose(rows, width, columns) == want


@pytest.mark.parametrize("n_rows", [1, 65])
@pytest.mark.parametrize("width", [7, 8, 9, 8 * SLAB - 1, 8 * SLAB, 8 * SLAB + 1])
def test_transpose_at_narrow_tile_and_slab_edges(n_rows, width):
    # a chunk of at most 8 rows uses 8 x 8-bit tiles, 8 * SLAB columns a slab
    rng = random.Random(f"{n_rows}x{width}")
    rows = [rng.getrandbits(width) for _ in range(n_rows)]
    full = transpose_reference(rows, width)
    assert transpose(rows, width) == full
    columns = _column_choices(rng, width)[2]
    assert transpose(rows, width, columns) == [full[i] for i in columns]


def test_import_builds_no_tile_plan():
    # the package's `simulate` attribute is the function, not the module
    probe = (
        "import sys, revadder.cli; s = sys.modules['revadder.simulate']; "
        "print(s._tile_masks.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(revadder.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"]


def test_tile_plan_cache_stays_bounded():
    # each width once, the tile side (8, 16, 32, 64 rows) taking turns
    for width in range(1, 9001):
        transpose([0] * (8 << width % 4), width)
    assert _tile_masks.cache_info().currsize <= 4


def test_from_ints_names_the_first_bad_lane():
    with pytest.raises(StructuralError) as exc:
        BatchState.from_ints([1, 7, -3, 8], 3)
    assert str(exc.value) == "lane 2 value -3 exceeds width 3"
    with pytest.raises(StructuralError) as exc:
        BatchState.from_ints([1, 5, 8, 2, -1], 3)
    assert str(exc.value) == "lane 2 value 8 exceeds width 3"


def test_batch_rejects_empty():
    with pytest.raises(StructuralError):
        BatchState.from_ints([], 3)


def test_batch_rejects_word_overflow():
    with pytest.raises(StructuralError):
        BatchState(words=(0b100,), lanes=2)


def test_batch_stores_words_as_a_tuple_and_checks_every_word():
    assert BatchState([1, 2], 2).words == (1, 2)
    for words, lanes in [((0,), 0), ((1, -1), 2), ((1, 0b100), 2)]:
        with pytest.raises(StructuralError):
            BatchState(words, lanes)


def test_all_basis_states_orders_lanes_by_integer():
    batch = all_basis_states(4)
    assert batch.lanes == 16
    assert batch.lanes_as_ints() == list(range(16))


def test_batch_matches_scalar_on_every_basis_state():
    c, _ = build_ppkn()
    lanes = lane_states(simulate_batch(c, all_basis_states(4)))
    for x in range(16):
        assert lanes[x] == simulate(c, int_to_bits(x, 4))


def test_singleton_batch_equals_scalar():
    c, _ = build_ppkn()
    state = (1, 1, 0, 0)
    batch = simulate_batch(c, pack_states([state]))
    assert lane_states(batch) == [simulate(c, state)]


def test_simulate_batch_width_mismatch():
    c, _ = build_ppkn()
    with pytest.raises(StructuralError):
        simulate_batch(c, all_basis_states(3))


def test_permutation_of_empty_circuit():
    c = Circuit(2, (named("a"), named("b")))
    assert permutation_of(c).entries == (0, 1, 2, 3)


def test_permutation_of_single_not():
    c = Circuit(1, (named("a"),), (not_gate(0),))
    assert permutation_of(c).entries == (1, 0)


def test_ppkn_permutation_restricted_to_clean_ancilla():
    c, _ = build_ppkn()
    table = permutation_of(c)
    for cin in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                x = cin | (a << 1) | (b << 2)
                s, cout = oracle_add(a, b, cin, 1)
                expected = s | (a << 1) | (b << 2) | (cout << 3)
                assert table.entries[x] == expected


def test_ppkn_is_bijection():
    c, _ = build_ppkn()
    table = permutation_of(c)
    assert is_bijection(table)
    assert sorted(table.entries) == list(range(16))


def test_ppkn_preserves_operand_lines_on_all_states():
    c, _ = build_ppkn()
    out = lane_states(simulate_batch(c, all_basis_states(4)))
    for x in range(16):
        state = int_to_bits(x, 4)
        result = out[x]
        assert result[1] == state[1]
        assert result[2] == state[2]


def test_ppkn_dirty_ancilla_xors_carry():
    # With the ancilla preset to 1 the carry output arrives inverted.
    c, _ = build_ppkn()
    for cin in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                out = simulate(c, (cin, a, b, 1))
                _, cout = oracle_add(a, b, cin, 1)
                assert out[3] == 1 ^ cout


def test_permutation_capacity_limit():
    width = EXHAUSTIVE_LINE_LIMIT + 1
    c = Circuit(width, tuple(named(f"q{i}") for i in range(width)))
    # one 2^21-lane word alone would take 256 KiB
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as exc:
            permutation_of(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(EXHAUSTIVE_LINE_LIMIT) in str(exc.value)
    assert peak < 64 * 1024, peak


def test_is_bijection_detects_duplicates():
    assert not is_bijection(PermutationTable(1, (0, 0)))


@pytest.mark.parametrize(
    "entries",
    [(0, 2), (-1, 0), (0, 1, 2, 4), (3, 2, -1, 0)],
    ids=["above", "negative", "one-above", "one-negative"],
)
def test_is_bijection_rejects_entries_out_of_range(entries):
    assert not is_bijection(PermutationTable(len(entries).bit_length() - 1, entries))


def test_is_bijection_rejects_partial_table():
    with pytest.raises(StructuralError):
        is_bijection(PermutationTable(2, (0, 1, 2)))


@settings(max_examples=60)
@given(circuits_st(max_width=8, max_gates=60), st.data())
def test_batch_agrees_with_scalar(c, data):
    states = data.draw(
        st.lists(bitstates_st(c.width), min_size=1, max_size=24)
    )
    out = simulate_batch(c, pack_states(states))
    assert lane_states(out) == [simulate(c, state) for state in states]


@settings(max_examples=50, deadline=None)
@given(circuits_st(max_width=12, max_gates=40))
def test_every_circuit_is_a_bijection(c):
    assert is_bijection(permutation_of(c))


def test_seeded_generator_circuits_are_bijections():
    rng = random.Random(7)
    for _ in range(50):
        c = random_circuit(rng, rng.randint(1, 10), rng.randint(0, 40))
        assert is_bijection(permutation_of(c))
