"""Classical evaluation of NCT circuits on basis states.

Three evaluation styles share one semantics:

* scalar: one assignment of bits, one gate at a time (`simulate`);
* batched: one arbitrary-precision integer per line, where bit j across
  all lines encodes independent test vector j (`simulate_batch`), so a
  whole test set costs one pass of word-wide XOR/AND;
* exhaustive: the permutation a circuit induces on all 2^w basis states
  (`permutation_of`), with a bijectivity check.

Integer encodings of states put line 0 in the least significant bit.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .core import CapacityError, Circuit, Gate, StructuralError, _Frozen

BitState = tuple[int, ...]

#: permutation_of refuses circuits wider than this (2^20 basis states).
EXHAUSTIVE_LINE_LIMIT = 20


def apply_gate(gate: Gate, state: Sequence[int]) -> BitState:
    """XOR the target bit with the AND of the control bits.

    The empty AND (a NOT gate) is 1, so the target flips unconditionally.
    Every other bit is unchanged.
    """
    state = tuple(state)
    if gate.max_line >= len(state):
        raise StructuralError(
            f"gate on line {gate.max_line} applied to {len(state)}-bit state"
        )
    if all(state[c] for c in gate.controls):
        flipped = state[gate.target] ^ 1
        return state[: gate.target] + (flipped,) + state[gate.target + 1 :]
    return state


def simulate(circuit: Circuit, state: Sequence[int]) -> BitState:
    """Run the circuit on one basis state, gates in program order."""
    state = tuple(state)
    if len(state) != circuit.width:
        raise StructuralError(
            f"{len(state)}-bit state for width-{circuit.width} circuit"
        )
    for gate in circuit.gates:
        state = apply_gate(gate, state)
    return state


def transpose(
    rows: Sequence[int], width: int, columns: Sequence[int] | None = None
) -> list[int]:
    """Bit-matrix transpose: bit j of `result[i]` is bit i of `rows[j]`.

    This is the one conversion between per-lane integers and the
    line-major words of a `BatchState`: packing passes the lane values
    with `width` = line count, unpacking passes the words with `width` =
    lane count. Precondition: every row is non-negative and fits in
    `width` bits. Binary text keeps the cost linear in the matrix size.

    With `columns`, only those entries are built, in that order:
    `result[k]` is the full result's entry `columns[k]`, each in
    range(width), at the cost of one stride slice each.
    """
    if columns is None:
        columns = range(width)
    if not rows or not width:
        return [0] * len(columns)
    # last row first, each most significant bit first: the stride slice
    # for bit i then reads that bit of every row, last row first
    spec = f"0{width}b"
    text = "".join([format(row, spec) for row in reversed(rows)])
    return [int(text[width - 1 - i :: width], 2) for i in columns]


class BatchState(_Frozen):
    """Bit-parallel bundle of test vectors.

    `words[i]` holds the value of line i for every lane: bit j of each
    word belongs to lane j, and lane j across all words is one
    independent test vector. `lanes` is the number of active lanes; word
    bits at or above it must be zero.
    """

    __slots__ = ("words", "lanes")
    words: tuple[int, ...]
    lanes: int

    def __init__(self, words: Sequence[int], lanes: int) -> None:
        words = tuple(words)
        if lanes < 1:
            raise StructuralError(f"lanes must be >= 1, got {lanes}")
        for i, word in enumerate(words):
            if word < 0 or word >> lanes:
                raise StructuralError(
                    f"word for line {i} has bits outside {lanes} lanes"
                )
        _set_words(self, words)
        _set_lanes(self, lanes)

    @property
    def width(self) -> int:
        return len(self.words)

    @classmethod
    def from_ints(cls, values: Sequence[int], width: int) -> BatchState:
        """Pack one lane per integer-encoded state (line 0 = LSB)."""
        if not values:
            raise StructuralError("empty batch")
        for j, value in enumerate(values):
            if value < 0 or value >> width:
                raise StructuralError(f"lane {j} value {value} exceeds width {width}")
        return cls(tuple(transpose(values, width)), len(values))

    def lanes_as_ints(self) -> list[int]:
        return transpose(self.words, self.lanes)


_set_words, _set_lanes = (getattr(BatchState, f).__set__ for f in BatchState.__slots__)


def all_basis_states(width: int) -> BatchState:
    """Every basis state of `width` lines, lane x carrying state x.

    Line i's word is the classic truth-table mask for variable i: bit x
    is set iff bit i of x is set.
    """
    lanes = 1 << width
    words = []
    for i in range(width):
        period = 1 << (i + 1)
        block = ((1 << (period >> 1)) - 1) << (period >> 1)
        word, size = block, period
        while size < lanes:
            word |= word << size
            size <<= 1
        words.append(word & ((1 << lanes) - 1))
    return BatchState(tuple(words), lanes)


def simulate_batch(circuit: Circuit, batch: BatchState) -> BatchState:
    """Run the circuit on every lane at once.

    Lane j of the result equals `simulate` on the state lane j carries;
    gates become whole-word AND/XOR, so the cost is one pass per gate.
    """
    if batch.width != circuit.width:
        raise StructuralError(
            f"{batch.width}-line batch for width-{circuit.width} circuit"
        )
    full = (1 << batch.lanes) - 1
    words = list(batch.words)
    for gate in circuit.gates:
        mask = full
        for c in gate.controls:
            mask &= words[c]
        words[gate.target] ^= mask
    return BatchState(tuple(words), batch.lanes)


class PermutationTable(NamedTuple):
    """The map a circuit induces on integer-encoded basis states.

    `entries[x]` is the encoding of the output state for input x, with
    line 0 as the least significant bit. Any valid NCT circuit yields a
    bijection; `is_bijection` checks rather than assumes it.
    """

    width: int
    entries: tuple[int, ...]


def permutation_of(circuit: Circuit) -> PermutationTable:
    """Enumerate the circuit over all 2^width basis states.

    Refuses widths above `EXHAUSTIVE_LINE_LIMIT` (enumeration doubles per
    line); use the batched simulator with sampled lanes beyond that.
    """
    if circuit.width > EXHAUSTIVE_LINE_LIMIT:
        raise CapacityError(
            f"exhaustive enumeration capped at {EXHAUSTIVE_LINE_LIMIT} lines, "
            f"circuit has {circuit.width}"
        )
    out = simulate_batch(circuit, all_basis_states(circuit.width))
    return PermutationTable(circuit.width, tuple(out.lanes_as_ints()))


def is_bijection(table: PermutationTable) -> bool:
    """True iff the table is a permutation of {0, ..., 2^w - 1}."""
    size = len(table.entries)
    if size == 0 or size & (size - 1):
        raise StructuralError(f"table length {size} is not a power of two")
    seen = set(table.entries)
    return len(seen) == size and all(0 <= e < size for e in table.entries)
