"""Shared test utilities: seeded circuit generators and hypothesis strategies."""
from __future__ import annotations

import random
import re

from hypothesis import strategies as st

from revadder import (
    BatchState,
    Gate,
    GateKind,
    Mismatch,
    ancilla,
    named,
    new_circuit,
    oracle_add,
    simulate,
)


def not_gate(target: int) -> Gate:
    return Gate(GateKind.NOT, (), target)


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


def kind_counts(circuit) -> dict[GateKind, int]:
    """Gates of each kind, counted one gate at a time by its `kind`."""
    counts = dict.fromkeys(GateKind, 0)
    for gate in circuit.gates:
        counts[gate.kind] += 1
    return counts


def available_kinds(width: int) -> list[GateKind]:
    kinds = [GateKind.NOT]
    if width >= 2:
        kinds.append(GateKind.CNOT)
    if width >= 3:
        kinds.append(GateKind.TOFFOLI)
    return kinds


def random_gate(rng: random.Random, width: int) -> Gate:
    kind = rng.choice(available_kinds(width))
    lines = rng.sample(range(width), kind.n_controls + 1)
    return Gate(kind, tuple(lines[:-1]), lines[-1])


def random_circuit(rng: random.Random, width: int, n_gates: int):
    roles = [
        ancilla() if rng.random() < 0.25 else named(f"in{i}")
        for i in range(width)
    ]
    gates = [random_gate(rng, width) for _ in range(n_gates)]
    return new_circuit(width, roles).extend(gates)


#: the line-label rule as the regular expression the library once used,
#: kept as the reference for `revadder.core.check_label`
LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)

roles_st = st.one_of(
    st.builds(named, identifiers, st.one_of(st.none(), identifiers)),
    st.builds(ancilla, st.one_of(st.none(), identifiers)),
)


def gates_st(width: int):
    return st.sampled_from(available_kinds(width)).flatmap(
        lambda kind: st.lists(
            st.integers(0, width - 1),
            min_size=kind.n_controls + 1,
            max_size=kind.n_controls + 1,
            unique=True,
        ).map(lambda lines: Gate(kind, tuple(lines[:-1]), lines[-1]))
    )


@st.composite
def circuits_st(draw, min_width: int = 1, max_width: int = 10, max_gates: int = 30):
    width = draw(st.integers(min_width, max_width))
    roles = draw(st.lists(roles_st, min_size=width, max_size=width))
    gates = draw(st.lists(gates_st(width), max_size=max_gates))
    return new_circuit(width, roles).extend(gates)


def transpose_reference(rows, width: int) -> list[int]:
    """Bit-matrix transpose one bit at a time: bit j of result[i] is bit i of rows[j].

    The per-bit loop the library used to pack lanes, kept as an
    independent reference for `revadder.simulate.transpose`.
    """
    result = [0] * width
    for j, row in enumerate(rows):
        for i in range(width):
            if (row >> i) & 1:
                result[i] |= 1 << j
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
