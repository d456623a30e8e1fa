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
from itertools import compress, islice
from typing import Literal, NamedTuple, Optional, Sequence

from .core import (
    CapacityError,
    Circuit,
    Gate,
    LineRole,
    StructuralError,
    _Frozen,
    ancilla,
    cnot,
    named,
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
#: verify_rca samples at most this many lane bits, trials x circuit width
RANDOM_LANE_BITS = 1 << 28

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
        if min(lines) < 0 or len(set(lines)) != 3 * n_bits + 1:
            raise StructuralError(f"adder lines must be distinct: {lines}")
        fields = (n_bits, cin_line, a_lines, b_lines, ancilla_lines)
        for setter, value in zip(self._setters, fields):
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


def _check_roles(layout: AdderLayout, roles: Sequence[LineRole]) -> None:
    """Refuse roles that break the layout: its lines exist, its ancilla
    lines are ancillas and its operand lines are not. The `StructuralError`
    names the width or the lowest line that breaks the rule."""
    operands = (layout.cin_line,) + layout.a_lines + layout.b_lines
    if (top := max(*operands, *layout.ancilla_lines)) >= len(roles):
        raise StructuralError(f"layout uses line {top}, circuit width is {len(roles)}")
    wrong = [line for line in operands if roles[line].name is None]
    wrong += [line for line in layout.ancilla_lines if roles[line].name is not None]
    if wrong:
        line = min(wrong)
        expected = "an ancilla" if line in layout.ancilla_lines else "an input"
        raise StructuralError(f"layout adder {layout.n_bits} expects line {line} to be {expected}")


def _ppkn_block(cin: int, a: int, b: int, anc: int) -> tuple[tuple, tuple]:
    """The controls and the targets of the 6-gate adder block, gate by gate.

    Two fan-outs from b pre-combine the operands, one Toffoli writes
    (cin^b)(a^b) onto the ancilla, then two more fan-outs restore a and
    cancel the linear b term (leaving the majority carry), and a final
    CNOT completes the sum on the carry-in line. The Toffoli's controls
    come sorted, as `Gate` stores them.
    """
    controls = ((b,), (b,), (cin, a) if cin < a else (a, cin), (b,), (b,), (a,))
    return controls, (cin, a, anc, a, anc, cin)


def ppkn_gates(cin: int, a: int, b: int, anc: int) -> tuple[Gate, ...]:
    """The 6-gate adder block on four arbitrary lines; see `_ppkn_block`."""
    return tuple(map(Gate, *_ppkn_block(cin, a, b, anc)))


def build_ppkn() -> tuple[Circuit, AdderLayout]:
    """The 1-Toffoli input-preserving full adder on lines (Cin, A, B, 0)."""
    roles = (
        named("Cin", output="Sum"),
        named("A", output="A"),
        named("B", output="B"),
        ancilla(output="Cout"),
    )
    return Circuit(4, roles, ppkn_gates(0, 1, 2, 3)), canonical_layout(1)


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
    circuit = Circuit(4, roles, gates)
    return circuit, AdderLayout(1, cin_line=2, a_lines=(0,), b_lines=(1,), ancilla_lines=(3,))


def canonical_layout(n: int) -> AdderLayout:
    """The cascade's line order: Cin, then (A_i, B_i, ancilla_i) per block."""
    if n < 1:
        raise ValueError(f"adder needs >= 1 bits, got {n}")
    # distinct, non-negative lines by construction: AdderLayout's check holds
    a_lines, b_lines = tuple(range(1, 3 * n, 3)), tuple(range(2, 3 * n, 3))
    ancilla_lines = tuple(range(3, 3 * n + 1, 3))
    return AdderLayout._many((n,), (0,), (a_lines,), (b_lines,), (ancilla_lines,))[0]


def build_rca(n: int) -> tuple[Circuit, AdderLayout]:
    """n cascaded adder blocks; block i's ancilla is block i+1's carry-in."""
    layout = canonical_layout(n)
    # The layout's lines are distinct and its labels identifiers, so every
    # gate and role is made in bulk, unchecked.
    names, outputs = ["Cin"], ["Sum0"]
    controls: list[tuple[int, ...]] = []
    targets: list[int] = []
    carries = (layout.cin_line,) + layout.ancilla_lines[:-1]
    blocks = zip(carries, layout.a_lines, layout.b_lines, layout.ancilla_lines)
    for i, lines in enumerate(blocks):
        a, b = f"A{i}", f"B{i}"
        names += (a, b, None)
        outputs += (a, b, f"Sum{i + 1}")
        block_controls, block_targets = _ppkn_block(*lines)
        controls += block_controls
        targets += block_targets
    outputs[-1] = "Cout"
    roles = tuple(LineRole._many(names, outputs))
    gates = tuple(Gate._many(controls, targets))
    return Circuit._many((layout.width,), (roles,), (gates,))[0], layout


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


#: binary text to bytes 0/1, so that `compress` can read it as flags
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _set_bit_positions(word: int) -> list[int]:
    """Indices of the set bits of `word`, ascending; both passes run in C."""
    bits = format(word, "b")[::-1].encode().translate(_BINARY_DIGITS)
    return list(compress(range(len(bits)), bits))


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

    A pass compares words only. A failure reads only its bad lanes, those
    with cin = 0 and then those with cin = 1, split word-wide from the
    cin word: `transpose` picks these columns before it makes an int for
    any lane. Two transposes read them: the 2n operand rows b, a give
    each lane its (a, b) key, and a stack gives its diffs: for each
    quantity that differs the diffs `expected ^ got` of its output lines,
    from its lowest to its highest differing line. Each distinct
    counterexample is listed once.
    """
    n = layout.n_bits
    operand_words = [cin_word, *a_words, *b_words]
    in_words = [0] * circuit.width
    for line, word in zip((layout.cin_line,) + layout.a_lines + layout.b_lines, operand_words):
        in_words[line] = word
    out = simulate_batch(circuit, BatchState(tuple(in_words), lanes)).words
    sum_words, cout_word = _ripple_words(a_words, b_words, cin_word)
    checks = (  # in _QUANTITIES order
        (layout.a_lines, a_words),
        (layout.b_lines, b_words),
        ((layout.cout_line,), [cout_word]),
        (layout.sum_lines, sum_words),
    )
    # per differing quantity its diff lines; a field is (value offset, diff
    # mask, lowest line, rank, quantity)
    stack, fields, bad_lanes = [], [], 0
    for rank, (lines, expected_words) in enumerate(checks):
        diffs = [word ^ out[line] for line, word in zip(lines, expected_words)]
        differing = [i for i, diff in enumerate(diffs) if diff]
        if differing:
            lo, hi = differing[0], differing[-1] + 1
            fields.append((len(stack), (1 << (hi - lo)) - 1, lo, rank, _QUANTITIES[rank]))
            stack += diffs[lo:hi]
            for i in differing:
                bad_lanes |= diffs[i]
    if not bad_lanes:
        return VerificationReport(lanes, ())
    # a key b | a << n sorts by (a, b), and a row drawn twice gives the
    # same key and diffs twice
    cin0 = _set_bit_positions(bad_lanes & ~cin_word)
    columns = cin0 + _set_bit_positions(bad_lanes & cin_word)
    rows = zip(transpose([*b_words, *a_words], lanes, columns), transpose(stack, lanes, columns))
    m = (1 << n) - 1
    mismatches = []
    append = mismatches.append
    for cin, by_key in enumerate((dict(islice(rows, len(cin0))), dict(rows))):
        for key in sorted(by_key):
            value = by_key[key]
            a, b = key >> n, key & m
            for offset, mask, lo, rank, quantity in fields:
                diff = (value >> offset) & mask
                if diff:
                    if rank == 0:
                        expected = a
                    elif rank == 1:
                        expected = b
                    elif rank == 2:
                        expected = (a + b + cin) >> n
                    else:
                        expected = (a + b + cin) & m
                    actual = expected ^ (diff << lo)
                    # Mismatch._make without its length check: skips the generated __new__
                    append(tuple.__new__(Mismatch, (a, b, cin, quantity, expected, actual)))
    return VerificationReport(lanes, tuple(mismatches))


def verify_rca(
    circuit: Circuit,
    layout: AdderLayout,
    mode: Literal["exhaustive", "random"] = "exhaustive",
    *,
    trials: int | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Check an n-bit cascade against integer addition.

    Exhaustive mode enumerates all 2^(2n+1) operand combinations
    (permitted for n <= 8); random mode samples `trials` seeded vectors,
    drawn line-major: one `trials`-bit word per line, a_0..a_{n-1}, then
    b_0..b_{n-1}, then cin, with trials x circuit width at most
    `RANDOM_LANE_BITS`. `trials=None` is `DEFAULT_TRIALS`, lowered to
    `RANDOM_LANE_BITS // circuit.width` where that is smaller (never
    below 4,096 for a circuit a netlist can declare, which has at most
    `MAX_LINES` lines), and `seed=None` is `DEFAULT_SEED`; exhaustive
    mode draws nothing, so it refuses either one with `ValueError`.
    Checked on every vector: all sum bits (which live on the carry-in
    line and the intermediate ancillas), the final carry, and bit-exact
    preservation of every A and B line. Roles that break the layout's
    rule (`_check_roles`) are refused first with `StructuralError`.
    """
    n = layout.n_bits
    _check_roles(layout, circuit.roles)
    if mode == "exhaustive":
        if n > EXHAUSTIVE_ADDER_BITS:
            raise CapacityError(
                f"exhaustive adder verification capped at {EXHAUSTIVE_ADDER_BITS} "
                f"bits (2^{2 * EXHAUSTIVE_ADDER_BITS + 1} vectors), requested {n}"
            )
        if trials is not None or seed is not None:
            raise ValueError(
                f"exhaustive mode draws no vectors, got trials={trials}, seed={seed}"
            )
        # lane index encodes (cin, a, b) directly: j = cin | a<<1 | b<<(n+1)
        lanes = 1 << (2 * n + 1)
        masks = all_basis_states(2 * n + 1).words
        cin_word, a_words, b_words = masks[0], masks[1 : n + 1], masks[n + 1 :]
    elif mode == "random":
        if trials is None:
            trials = min(DEFAULT_TRIALS, RANDOM_LANE_BITS // circuit.width)
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if trials * circuit.width > RANDOM_LANE_BITS:
            raise CapacityError(
                f"random adder verification capped at {RANDOM_LANE_BITS} lane bits "
                f"(trials x {circuit.width} lines), requested {trials} trials"
            )
        rng = random.Random(DEFAULT_SEED if seed is None else seed)
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
    both operand lines preserved, and it refuses roles that break the
    layout. Mismatches are listed by (a, b, cin), then sum, cout, a, b.
    The report also carries a full basis-state bijectivity result.
    """
    if layout.n_bits != 1:
        raise StructuralError(f"a full adder has 1 bit, layout has {layout.n_bits}")
    report = verify_rca(circuit, layout, "exhaustive")
    order = ("sum", "cout", "a", "b")
    mismatches = sorted(
        report.mismatches, key=lambda m: (m.a, m.b, m.cin, order.index(m.quantity))
    )
    bijective = None
    if circuit.width <= EXHAUSTIVE_LINE_LIMIT:
        bijective = is_bijection(permutation_of(circuit))
    return VerificationReport(report.cases, tuple(mismatches), bijective)


# ---------------------------------------------------------------- rendering

#: mismatches a report lists before it counts the rest
LISTED_MISMATCHES = 20


def render_verification_text(report: VerificationReport) -> str:
    lines = []
    if report.passed:
        lines.append(f"PASS: {report.cases} cases, 0 mismatches")
    else:
        lines.append(
            f"FAIL: {len(report.failing_rows())} of {report.cases} rows wrong "
            f"({len(report.mismatches)} mismatches)"
        )
        for m in report.mismatches[:LISTED_MISMATCHES]:
            lines.append(f"  {m.describe()}")
        if len(report.mismatches) > LISTED_MISMATCHES:
            lines.append(f"  ... and {len(report.mismatches) - LISTED_MISMATCHES} more")
    if report.bijective is not None:
        state = "bijective" if report.bijective else "NOT bijective"
        lines.append(f"basis-state map: {state}")
    return "\n".join(lines) + "\n"
