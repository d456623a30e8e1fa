"""Input-preserving full adders and their ripple-carry cascade.

`build_ppkn` is the 6-gate, 1-Toffoli full adder mapping
(Cin, A, B, 0) -> (Sum, A, B, Cout); `build_hng_reference` is the
standard 2-Toffoli baseline realizing (A, B, Cin, 0) -> (A, B, Sum, Cout);
`build_rca` chains n adder blocks, each block's carry ancilla feeding the
next block's carry-in line. Everything is checked against plain integer
addition (`oracle_add` and its word-wide form), never against a circuit.
"""
from __future__ import annotations

import random
from typing import Literal, NamedTuple, Optional, Sequence

from .core import (
    CapacityError,
    Circuit,
    Gate,
    StructuralError,
    _Frozen,
    ancilla,
    cnot,
    named,
    new_circuit,
    toffoli,
)
from .simulate import (
    EXHAUSTIVE_LINE_LIMIT,
    BatchState,
    all_basis_states,
    is_bijection,
    permutation_of,
    simulate_batch,
    transpose,
)

#: verify_rca enumerates all 2^(2n+1) vectors only up to this operand width.
EXHAUSTIVE_ADDER_BITS = 8

DEFAULT_TRIALS = 10000
DEFAULT_SEED = 0xADD


def oracle_add(a: int, b: int, cin: int, n: int) -> tuple[int, int]:
    """Ground truth: (a + b + cin) as an n-bit sum and a carry-out bit."""
    if n < 1:
        raise ValueError(f"operand width must be >= 1, got {n}")
    if not 0 <= a < (1 << n) or not 0 <= b < (1 << n):
        raise ValueError(f"operands must be {n}-bit, got a={a} b={b}")
    if cin not in (0, 1):
        raise ValueError(f"carry-in must be a bit, got {cin}")
    total = a + b + cin
    return total & ((1 << n) - 1), total >> n


class AdderLayout(_Frozen):
    """Line assignment of an n-bit ripple-carry adder.

    Sum bit 0 lands on the carry-in line and sum bit i lands on block
    i-1's ancilla; the final ancilla carries Cout. That is how the
    cascade keeps every operand line readable while re-using carry lines
    for the sum. A full adder is the one-bit case: Sum on the carry-in
    line, Cout on its constant-0 ancilla.
    """

    __slots__ = ("n_bits", "cin_line", "a_lines", "b_lines", "ancilla_lines")
    n_bits: int
    cin_line: int
    a_lines: tuple[int, ...]
    b_lines: tuple[int, ...]
    ancilla_lines: tuple[int, ...]

    def __init__(
        self,
        n_bits: int,
        cin_line: int,
        a_lines: tuple[int, ...],
        b_lines: tuple[int, ...],
        ancilla_lines: tuple[int, ...],
    ) -> None:
        if n_bits < 1:
            raise StructuralError(f"adder needs >= 1 bits, got {n_bits}")
        if not (len(a_lines) == len(b_lines) == len(ancilla_lines) == n_bits):
            raise StructuralError("line lists must all have n_bits entries")
        lines = (cin_line,) + a_lines + b_lines + ancilla_lines
        if any(i < 0 for i in lines) or len(set(lines)) != 3 * n_bits + 1:
            raise StructuralError(f"adder lines must be distinct: {lines}")
        for setter, value in zip(_SETTERS, (n_bits, cin_line, a_lines, b_lines, ancilla_lines)):
            setter(self, value)

    @property
    def sum_lines(self) -> tuple[int, ...]:
        return (self.cin_line,) + self.ancilla_lines[:-1]

    @property
    def cout_line(self) -> int:
        return self.ancilla_lines[-1]

    @property
    def width(self) -> int:
        return 3 * self.n_bits + 1

    def encode_input(self, a: int, b: int, cin: int) -> int:
        """Integer-encoded input state (line 0 = LSB) for given operands."""
        value = cin << self.cin_line
        for i in range(self.n_bits):
            value |= ((a >> i) & 1) << self.a_lines[i]
            value |= ((b >> i) & 1) << self.b_lines[i]
        return value


_SETTERS = tuple(getattr(AdderLayout, f).__set__ for f in AdderLayout.__slots__)


def ppkn_gates(cin: int, a: int, b: int, anc: int) -> tuple[Gate, ...]:
    """The 6-gate adder block on four arbitrary lines.

    Two fan-outs from b pre-combine the operands, one Toffoli writes
    (cin^b)(a^b) onto the ancilla, then two more fan-outs restore a and
    cancel the linear b term (leaving the majority carry), and a final
    CNOT completes the sum on the carry-in line.
    """
    return (
        cnot(b, cin),
        cnot(b, a),
        toffoli(cin, a, anc),
        cnot(b, a),
        cnot(b, anc),
        cnot(a, cin),
    )


def build_ppkn() -> tuple[Circuit, AdderLayout]:
    """The 1-Toffoli input-preserving full adder on lines (Cin, A, B, 0)."""
    roles = (
        named("Cin", output="Sum"),
        named("A", output="A"),
        named("B", output="B"),
        ancilla(output="Cout"),
    )
    circuit = new_circuit(4, roles).extend(ppkn_gates(0, 1, 2, 3))
    return circuit, canonical_layout(1)


def build_hng_reference() -> tuple[Circuit, AdderLayout]:
    """A standard 2-Toffoli baseline adder on lines (A, B, Cin, 0).

    The carry-in line doubles as a carry control and the sum target, so
    its operations cannot overlap in time; that is what makes this
    netlist one step deeper than the 1-Toffoli adder.
    """
    roles = (
        named("A", output="A"),
        named("B", output="B"),
        named("Cin", output="Sum"),
        ancilla(output="Cout"),
    )
    gates = (
        toffoli(0, 1, 3),
        cnot(0, 1),
        toffoli(1, 2, 3),
        cnot(1, 2),
        cnot(0, 1),
    )
    circuit = new_circuit(4, roles).extend(gates)
    return circuit, AdderLayout(1, cin_line=2, a_lines=(0,), b_lines=(1,), ancilla_lines=(3,))


def canonical_layout(n: int) -> AdderLayout:
    """The cascade's line order: Cin, then (A_i, B_i, ancilla_i) per block."""
    if n < 1:
        raise ValueError(f"adder needs >= 1 bits, got {n}")
    return AdderLayout(
        n_bits=n,
        cin_line=0,
        a_lines=tuple(3 * i + 1 for i in range(n)),
        b_lines=tuple(3 * i + 2 for i in range(n)),
        ancilla_lines=tuple(3 * i + 3 for i in range(n)),
    )


def build_rca(n: int) -> tuple[Circuit, AdderLayout]:
    """n cascaded adder blocks; block i's ancilla is block i+1's carry-in."""
    layout = canonical_layout(n)
    roles: list = [named("Cin", output="Sum0")]
    for i in range(n):
        roles.append(named(f"A{i}", output=f"A{i}"))
        roles.append(named(f"B{i}", output=f"B{i}"))
        label = f"Sum{i + 1}" if i < n - 1 else "Cout"
        roles.append(ancilla(output=label))
    carries = (layout.cin_line,) + layout.ancilla_lines[:-1]
    blocks = zip(carries, layout.a_lines, layout.b_lines, layout.ancilla_lines)
    gates = [gate for lines in blocks for gate in ppkn_gates(*lines)]
    return new_circuit(layout.width, roles).extend(gates), layout


#: a report's mismatch quantities, in the order it lists them for one row
_QUANTITIES = ("a", "b", "cout", "sum")


class Mismatch(NamedTuple):
    """One failing test vector: which figure was wrong, and how."""

    a: int
    b: int
    cin: int
    quantity: str  # "sum" | "cout" | "a" | "b"
    expected: int
    actual: int

    def describe(self) -> str:
        return (
            f"a={self.a} b={self.b} cin={self.cin}: {self.quantity} "
            f"expected {self.expected}, got {self.actual}"
        )


class VerificationReport(NamedTuple):
    """Outcome of checking a circuit against integer addition."""

    cases: int
    mismatches: tuple[Mismatch, ...]
    bijective: Optional[bool] = None

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def failing_rows(self) -> set[tuple[int, int, int]]:
        """Distinct (a, b, cin) assignments with at least one mismatch."""
        return {(m.a, m.b, m.cin) for m in self.mismatches}


def _set_bit_positions(word: int):
    """Indices of the set bits of `word`, ascending, in one pass over its text."""
    bits = format(word, "b")[::-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def _ripple_words(
    a_words: Sequence[int], b_words: Sequence[int], carry: int
) -> tuple[list[int], int]:
    """Expected sum words and carry-out word of a word-wide ripple carry.

    Bit j of every word is lane j. Written from binary addition alone:
    s_i = a_i ^ b_i ^ c and c' = maj(a_i, b_i, c), never from a circuit.
    """
    sums = []
    for a, b in zip(a_words, b_words):
        half = a ^ b
        sums.append(half ^ carry)
        carry = (a & b) | (carry & half)
    return sums, carry


def _check_lanes(
    circuit: Circuit, layout: AdderLayout, lanes: int,
    cin_word: int, a_words: Sequence[int], b_words: Sequence[int],
) -> VerificationReport:
    """Run the operand words through the circuit and compare with the ripple oracle.

    A pass compares words only. A failure reads only its bad lanes, in
    one transpose of a stack of words: for each quantity that differs a
    bad-lane flag and the quantity's output lines, then the operands.
    Each distinct counterexample is listed once.
    """
    n = layout.n_bits
    operand_words = [cin_word, *a_words, *b_words]
    in_words = [0] * circuit.width
    for line, word in zip((layout.cin_line,) + layout.a_lines + layout.b_lines, operand_words):
        in_words[line] = word
    out = simulate_batch(circuit, BatchState(tuple(in_words), lanes))
    sum_words, cout_word = _ripple_words(a_words, b_words, cin_word)
    checks = (  # in _QUANTITIES order
        (layout.a_lines, a_words),
        (layout.b_lines, b_words),
        ((layout.cout_line,), [cout_word]),
        (layout.sum_lines, sum_words),
    )
    # per differing quantity a bad-lane flag and its output lines, then the
    # operands b, a, cin on top: a stacked lane value sorts by (cin, a, b),
    # and a row drawn twice gives the same value twice
    stack, fields, bad_lanes = [], [], 0
    for rank, (lines, expected_words) in enumerate(checks):
        got = [out.words[line] for line in lines]
        bad = 0
        for expected_word, word in zip(expected_words, got):
            bad |= expected_word ^ word
        if bad:
            fields.append((rank, len(stack), (1 << len(lines)) - 1))
            stack += [bad, *got]
            bad_lanes |= bad
    if not bad_lanes:
        return VerificationReport(lanes, ())
    key_shift = len(stack)
    stack += [*b_words, *a_words, cin_word]
    m = (1 << n) - 1
    mismatches = []
    bad_values = transpose(stack, lanes, list(_set_bit_positions(bad_lanes)))
    for value in sorted(set(bad_values)):
        key = value >> key_shift
        a, b, cin = (key >> n) & m, key & m, key >> (2 * n)
        total = a + b + cin
        expected = (a, b, total >> n, total & m)
        for rank, shift, mask in fields:
            if (value >> shift) & 1:
                actual = (value >> (shift + 1)) & mask
                mismatches.append(
                    Mismatch(a, b, cin, _QUANTITIES[rank], expected[rank], actual)
                )
    return VerificationReport(lanes, tuple(mismatches))


def verify_rca(
    circuit: Circuit,
    layout: AdderLayout,
    mode: Literal["exhaustive", "random"] = "exhaustive",
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Check an n-bit cascade against integer addition.

    Exhaustive mode enumerates all 2^(2n+1) operand combinations
    (permitted for n <= 8); random mode samples `trials` seeded vectors,
    drawn line-major: one `trials`-bit word per line, a_0..a_{n-1}, then
    b_0..b_{n-1}, then cin. Checked on every vector: all sum bits (which
    live on the carry-in line and the intermediate ancillas), the final
    carry, and bit-exact preservation of every A and B line.
    """
    n = layout.n_bits
    lines = (layout.cin_line,) + layout.a_lines + layout.b_lines + layout.ancilla_lines
    if max(lines) >= circuit.width:
        raise StructuralError(
            f"layout uses line {max(lines)}, circuit width is {circuit.width}"
        )
    if mode == "exhaustive":
        if n > EXHAUSTIVE_ADDER_BITS:
            raise CapacityError(
                f"exhaustive adder verification capped at {EXHAUSTIVE_ADDER_BITS} "
                f"bits (2^{2 * EXHAUSTIVE_ADDER_BITS + 1} vectors), requested {n}"
            )
        # lane index encodes (cin, a, b) directly: j = cin | a<<1 | b<<(n+1)
        lanes = 1 << (2 * n + 1)
        masks = all_basis_states(2 * n + 1).words
        cin_word, a_words, b_words = masks[0], masks[1 : n + 1], masks[n + 1 :]
    elif mode == "random":
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        rng = random.Random(seed)
        lanes = trials
        words = [rng.getrandbits(trials) for _ in range(2 * n + 1)]
        a_words, b_words, cin_word = words[:n], words[n : 2 * n], words[2 * n]
    else:
        raise ValueError(f"unknown verification mode: {mode!r}")
    return _check_lanes(circuit, layout, lanes, cin_word, a_words, b_words)


def verify_full_adder(circuit: Circuit, layout: AdderLayout) -> VerificationReport:
    """Check a one-bit layout on all 8 operand rows, plus bijectivity.

    A full adder is the one-bit cascade, so `verify_rca`'s exhaustive
    word oracle checks Sum on the carry-in line, Cout on the ancilla and
    both operand lines preserved; the Cout line must be a constant-0
    ancilla. Mismatches are listed by (a, b, cin), then sum, cout, a, b.
    The report also carries a full basis-state bijectivity result.
    """
    if layout.n_bits != 1:
        raise StructuralError(f"a full adder has 1 bit, layout has {layout.n_bits}")
    report = verify_rca(circuit, layout, "exhaustive")
    if not circuit.roles[layout.cout_line].is_ancilla:
        raise StructuralError(f"line {layout.cout_line} must be a constant-0 ancilla")
    order = ("sum", "cout", "a", "b")
    mismatches = sorted(
        report.mismatches, key=lambda m: (m.a, m.b, m.cin, order.index(m.quantity))
    )
    bijective = None
    if circuit.width <= EXHAUSTIVE_LINE_LIMIT:
        bijective = is_bijection(permutation_of(circuit))
    return VerificationReport(report.cases, tuple(mismatches), bijective)


# ---------------------------------------------------------------- rendering

def render_verification_text(report: VerificationReport, limit: int = 20) -> str:
    lines = []
    if report.passed:
        lines.append(f"PASS: {report.cases} cases, 0 mismatches")
    else:
        lines.append(
            f"FAIL: {len(report.failing_rows())} of {report.cases} rows wrong "
            f"({len(report.mismatches)} mismatches)"
        )
        for m in report.mismatches[:limit]:
            lines.append(f"  {m.describe()}")
        if len(report.mismatches) > limit:
            lines.append(f"  ... and {len(report.mismatches) - limit} more")
    if report.bijective is not None:
        state = "bijective" if report.bijective else "NOT bijective"
        lines.append(f"basis-state map: {state}")
    return "\n".join(lines) + "\n"
