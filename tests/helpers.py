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


# ------------------------------------------------- a seeded netlist corpus
#
# `netlist_corpus` draws the same documents on every Python version: it
# calls only `getrandbits`, `randrange` and `choice` of a `random.Random`
# seeded with an int, and its characters are ASCII save the Arabic-Indic
# digits U+0660 to U+0669, which every Unicode version reads as digits.

#: tokens `int(token, 10)` does not read
_CORPUS_JUNK = ("x", "-", "0x3", "1.5", "9bad", "adder", "lines", "#")
#: input names and output labels; the last two are not identifiers
_CORPUS_NAMES = ("a", "b", "Cin", "A0", "B1", "Sum", "_t", "q7", "9bad", "bad-label")


def _corpus_spelling(rng: random.Random, value: int) -> str:
    """`value` in its shortest form, or in another spelling `int(token,
    10)` reads: `01`, `+1`, `1_0`, `-0` or Arabic-Indic digits (`\u0663`)."""
    sign, text = ("-", str(-value)) if value < 0 else ("", str(value))
    roll = rng.randrange(12)
    if roll == 10 and not value:
        return "-0"
    if roll < 7 or roll == 10:
        return sign + text
    if roll == 7:
        return f"{sign}0{text}"
    if roll == 8:
        return (sign or "+") + text
    if roll == 9:
        return sign + (f"{text[0]}_{text[1:]}" if len(text) > 1 else "0_" + text)
    return sign + "".join(chr(0x660 + int(digit)) for digit in text)


def _corpus_index(rng: random.Random, idx: int, width: int, odd: bool) -> str:
    """A token for line `idx`; in an odd document now and then an index
    out of range, or junk."""
    roll = rng.randrange(12 if odd else 10)
    if roll == 11:
        return rng.choice(_CORPUS_JUNK)
    if roll == 10:
        idx = width + rng.randrange(3) if rng.getrandbits(1) else -1 - rng.randrange(3)
    return _corpus_spelling(rng, idx)


def _corpus_lines(rng: random.Random, width: int, count: int, odd: bool) -> list[int]:
    """`count` distinct lines of a `width`-line document, or in an odd
    document now and then one line twice."""
    lines = [rng.randrange(width)]
    while len(lines) < count:
        line = rng.randrange(width)
        if line not in lines or odd and not rng.randrange(8):
            lines.append(line)
    return lines


def _corpus_statement(rng: random.Random, width: int, odd: bool) -> list[str]:
    """The tokens of one random statement of a `width`-line document."""
    roll = rng.randrange(16 if odd else 13)
    if roll < 7:
        n = 1 + rng.randrange(min(width, 3))
        lines = _corpus_lines(rng, width, n, odd)
        keyword = ("not", "cnot", "toffoli")[n - 1]
        return [keyword] + [_corpus_index(rng, line, width, odd) for line in lines]
    idx = _corpus_index(rng, rng.randrange(width), width, odd)
    names = _CORPUS_NAMES if odd else _CORPUS_NAMES[:-2]
    if roll < 9:
        return ["input", idx, rng.choice(names)]
    if roll < 11:
        return ["ancilla", idx] + (["0"] if rng.getrandbits(1) else [])
    if roll < 13:
        return ["output", idx, rng.choice(names)]
    if roll == 13:
        # a statement of the wrong length, or an unknown keyword
        keyword = rng.choice(("not", "cnot", "toffoli", "input", "ancilla", "output",
                              "layout", "lines", "hadamard"))
        return [keyword] + [rng.choice(_CORPUS_JUNK + ("0", "1", "2"))
                            for _ in range(rng.randrange(5))]
    if roll == 14:
        return ["ancilla", idx, rng.choice(("1", "00", "x"))]
    return ["layout", "adder", _corpus_spelling(rng, rng.randrange(-1, 23))]


def netlist_document(rng: random.Random) -> str:
    """One document of width 1 to 64 and at most 10 statements.

    Half the documents are odd: their tokens include indices out of
    range, junk, bad labels and malformed statements. The rest spell every
    index as `int` reads it, so most of them parse. One in six declares
    an adder layout with its ancillas: `lines 3n+1` for n in 1..3.
    """
    odd = bool(rng.getrandbits(1))
    statements: list[list[str]] = []
    if not rng.randrange(6):
        n = 1 + rng.randrange(3)
        width = 3 * n + 1
        statements.append(["layout", "adder", _corpus_spelling(rng, n)])
        statements += [["ancilla", _corpus_index(rng, 3 * i + 3, width, odd)] for i in range(n)]
    else:
        width = 1 + rng.randrange(64)
    count = rng.randrange(10)  # statements after `lines`
    while len(statements) < count:
        statements.insert(rng.randrange(len(statements) + 1),
                          _corpus_statement(rng, width, odd))
    width_token = _corpus_spelling(rng, width)
    if odd and not rng.randrange(4):
        width_token = rng.choice(("0", "-1", "x", "65537", "1e3"))
    statements.insert(0 if not odd or rng.randrange(8) else 1, ["lines", width_token])

    texts = []
    for tokens in statements:
        text = rng.choice((" ", " ", "  ", "\t")).join(tokens)
        if not rng.randrange(4):
            text = rng.choice(("", " ", "\t")) + text
        if not rng.randrange(6):
            text += rng.choice((" # note", "#", "  # x y", "# 0 1"))
        texts.append(text)
        if not rng.randrange(10):
            texts.append(rng.choice(("", "# comment", "   ", "\t# lines 2")))
    end = rng.choice(("\n", "\n", "\r\n", "\r"))
    return end.join(texts) + (end if rng.randrange(4) else "")


def netlist_corpus(seed: int, count: int):
    """`count` documents drawn by `netlist_document` from one seed."""
    rng = random.Random(seed)
    return [netlist_document(rng) for _ in range(count)]
