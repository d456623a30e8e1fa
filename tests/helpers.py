"""Shared test utilities: seeded circuit generators and hypothesis strategies."""
from __future__ import annotations

import random
import re

from hypothesis import strategies as st

from revadder import (
    BatchState,
    Circuit,
    Gate,
    Mismatch,
    ancilla,
    named,
    oracle_add,
    simulate,
)


def not_gate(target: int) -> Gate:
    return Gate((), target)


def ppkn_reference(cin: int, a: int, b: int, anc: int) -> tuple[Gate, ...]:
    """The 6-gate adder block, each gate made and checked by `Gate`."""
    return (
        Gate((b,), cin),
        Gate((b,), a),
        Gate((cin, a), anc),
        Gate((b,), a),
        Gate((b,), anc),
        Gate((a,), cin),
    )


def rca_reference(n: int) -> Circuit:
    """The n-bit cascade from the block formula, through the validating
    constructors: block i is on lines (3i, 3i+1, 3i+2, 3i+3)."""
    roles = [named("Cin", "Sum0")]
    gates: list[Gate] = []
    for i in range(n):
        roles += [named(f"A{i}", f"A{i}"), named(f"B{i}", f"B{i}")]
        roles.append(ancilla(f"Sum{i + 1}" if i < n - 1 else "Cout"))
        gates += ppkn_reference(3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3)
    return Circuit(3 * n + 1, roles, gates)


def bits_to_int(bits) -> int:
    """Pack a bit sequence into an integer, line 0 least significant."""
    value = 0
    for i, bit in enumerate(bits):
        if bit:
            value |= 1 << i
    return value


def int_to_bits(value: int, width: int) -> tuple[int, ...]:
    """Unpack `width` bits of an integer, line 0 least significant."""
    return tuple((value >> i) & 1 for i in range(width))


def encode_input(layout, a: int, b: int, cin: int) -> int:
    """Integer-encoded input state (line 0 = LSB) of an adder layout."""
    value = cin << layout.cin_line
    for i in range(layout.n_bits):
        value |= ((a >> i) & 1) << layout.a_lines[i]
        value |= ((b >> i) & 1) << layout.b_lines[i]
    return value


def pack_states(states) -> BatchState:
    """A batch with one lane per scalar state, in order."""
    return BatchState.from_ints([bits_to_int(s) for s in states], len(states[0]))


def lane_states(batch: BatchState) -> list[tuple[int, ...]]:
    """The scalar state of every lane of a batch, in lane order."""
    return [int_to_bits(v, batch.width) for v in batch.lanes_as_ints()]


def kind_counts(circuit) -> dict[str, int]:
    """Gates of each kind, counted one gate at a time by its `kind`."""
    counts = {"not": 0, "cnot": 0, "toffoli": 0}
    for gate in circuit.gates:
        counts[gate.kind] += 1
    return counts


def control_counts(width: int) -> list[int]:
    """The control counts a gate can have on `width` lines: NOT, CNOT, Toffoli."""
    return list(range(min(width, 3)))


def random_gate(rng: random.Random, width: int) -> Gate:
    n = rng.choice(control_counts(width))
    lines = rng.sample(range(width), n + 1)
    return Gate(tuple(lines[:-1]), lines[-1])


def random_circuit(rng: random.Random, width: int, n_gates: int):
    roles = [
        ancilla() if rng.random() < 0.25 else named(f"in{i}")
        for i in range(width)
    ]
    gates = [random_gate(rng, width) for _ in range(n_gates)]
    return Circuit(width, roles, gates)


#: the line-label rule as the regular expression the library once used,
#: kept as the reference for `revadder.core.check_label`
LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)

roles_st = st.one_of(
    st.builds(named, identifiers, st.one_of(st.none(), identifiers)),
    st.builds(ancilla, st.one_of(st.none(), identifiers)),
)


def gates_st(width: int):
    return st.sampled_from(control_counts(width)).flatmap(
        lambda n: st.lists(
            st.integers(0, width - 1), min_size=n + 1, max_size=n + 1, unique=True
        ).map(lambda lines: Gate(tuple(lines[:-1]), lines[-1]))
    )


@st.composite
def circuits_st(draw, min_width: int = 1, max_width: int = 10, max_gates: int = 30):
    width = draw(st.integers(min_width, max_width))
    roles = draw(st.lists(roles_st, min_size=width, max_size=width))
    gates = draw(st.lists(gates_st(width), max_size=max_gates))
    return Circuit(width, roles, gates)


def transpose_reference(rows, width: int) -> list[int]:
    """Bit-matrix transpose one bit at a time: bit j of result[i] is bit i of rows[j].

    Each row is read as binary text, least significant bit first, and every
    set bit is ORed into its column on its own: an independent reference
    for `revadder.simulate.transpose`.
    """
    result = [0] * width
    for j, row in enumerate(rows):
        bit = 1 << j
        for i, digit in enumerate(format(row, f"0{width}b")[::-1]):
            if digit == "1":
                result[i] |= bit
    return result


def reference_mismatches(circuit, layout, rows) -> tuple:
    """Mismatches of an adder cascade on (a, b, cin) rows, one row at a time.

    Each row is encoded onto the layout's lines, run through the scalar
    `simulate`, and its sum, carry-out and operand lines compared with
    `oracle_add`: an expansion written apart from the word-level check in
    `revadder.adders`. Mismatches are listed in report order, (cin, a, b,
    quantity), and a row drawn more than once is checked and listed once.
    """
    n = layout.n_bits
    found = []
    for a, b, cin in dict.fromkeys(rows):
        out = simulate(circuit, int_to_bits(encode_input(layout, a, b, cin), circuit.width))
        want_sum, want_cout = oracle_add(a, b, cin, n)
        for quantity, expected, lines in (
            ("sum", want_sum, layout.sum_lines),
            ("cout", want_cout, (layout.cout_line,)),
            ("a", a, layout.a_lines),
            ("b", b, layout.b_lines),
        ):
            actual = sum(out[line] << k for k, line in enumerate(lines))
            if actual != expected:
                found.append(Mismatch(a, b, cin, quantity, expected, actual))
    found.sort(key=lambda m: (m.cin, m.a, m.b, m.quantity))
    return tuple(found)


def gates_conflict_reference(g, h) -> bool:
    """The depth model's conflict rule, written apart from `revadder.metrics`."""
    return g.target in set(h.controls) | {h.target} or h.target in set(
        g.controls
    ) | {g.target}


def longest_path_levels(gates) -> list[int]:
    """Per gate, the number of gates on the longest conflict chain ending at it.

    An all-pairs longest-path DP over the conflict DAG, independent of the
    scheduler in `revadder.metrics`.
    """
    best: list[int] = []
    for j in range(len(gates)):
        best.append(
            1
            + max(
                (
                    best[i]
                    for i in range(j)
                    if gates_conflict_reference(gates[i], gates[j])
                ),
                default=0,
            )
        )
    return best


def bitstates_st(width: int):
    return st.lists(
        st.integers(0, 1), min_size=width, max_size=width
    ).map(tuple)


def assert_schedule_valid(circuit, schedule) -> None:
    """Every gate exactly once; steps conflict-free; program order kept."""
    seen = [i for step in schedule.timesteps for i in step]
    assert sorted(seen) == list(range(len(circuit.gates)))
    step_of = {}
    for t, step in enumerate(schedule.timesteps):
        assert step, "empty timestep"
        for i in step:
            step_of[i] = t
        for x in step:
            for y in step:
                if x < y:
                    assert not gates_conflict_reference(circuit.gates[x], circuit.gates[y])
    for j in range(len(circuit.gates)):
        for i in range(j):
            if gates_conflict_reference(circuit.gates[i], circuit.gates[j]):
                assert step_of[i] < step_of[j]
