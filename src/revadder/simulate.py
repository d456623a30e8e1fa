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

import sys
from array import array
from functools import cache
from operator import itemgetter
from typing import NamedTuple, Sequence

from .core import CapacityError, Circuit, StructuralError, _Frozen

BitState = tuple[int, ...]

#: permutation_of refuses circuits wider than this (2^20 basis states).
EXHAUSTIVE_LINE_LIMIT = 20


def simulate(circuit: Circuit, state: Sequence[int]) -> BitState:
    """Run the circuit on one basis state, gates in program order.

    A gate XORs its target bit with the AND of its control bits; the empty
    AND (a NOT gate) is 1, so the target flips unconditionally.
    """
    bits = list(state)
    if len(bits) != circuit.width:
        raise StructuralError(
            f"{len(bits)}-bit state for width-{circuit.width} circuit"
        )
    for gate in circuit.gates:
        if all(bits[c] for c in gate.controls):
            bits[gate.target] ^= 1
    return tuple(bits)


#: bits that one delta-swap pass transposes: 64 tiles of 64 x 64 bits,
#: 4,096 columns of a 64-row chunk
_SLAB_BITS = 1 << 18
#: memoryview and array code of one tile row, by tile side
_WORD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}
#: the swapped slabs are little-endian bytes; words read on a big-endian
#: host are byte-swapped before use
_BIG_ENDIAN = sys.byteorder == "big"


@cache
def _tile_masks(side: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of the delta-swap rounds over a slab of side x side tiles.

    A slab holds its tiles one after another, side^2 bits each, with row r,
    column c of a tile at bit side*r + c. The round for k swaps the k x k
    blocks off the diagonal of every 2k x 2k block: a bit with r & k clear
    and c & k set trades places with the bit k rows down and k columns
    left, (side - 1)k positions up (Warren, Hacker's Delight, 2nd ed.,
    7-3). A shorter slab uses the same masks: `&` of two non-negative ints
    is no longer than the shorter one.
    """
    size = side // 8
    rounds = []
    k = side >> 1
    while k:
        row = sum(1 << c for c in range(side) if c & k).to_bytes(size, "little")
        tile = b"".join(bytes(size) if r & k else row for r in range(side))
        rounds.append(((side - 1) * k, int.from_bytes(tile * (_SLAB_BITS // side**2), "little")))
        k >>= 1
    return tuple(rounds)


def transpose(
    rows: Sequence[int], width: int, columns: Sequence[int] | None = None
) -> list[int]:
    """Bit-matrix transpose: bit j of `result[i]` is bit i of `rows[j]`.

    This is the one conversion between per-lane integers and the
    line-major words of a `BatchState`: packing passes the lane values
    with `width` = line count, unpacking passes the words with `width` =
    lane count. Precondition: every row is non-negative and fits in
    `width` bits.

    The rows go 64 at a time. A chunk of rows is cut into square tiles,
    64 bits a side (8, 16 or 32 for a short last chunk), and the tiles are
    laid one after another in one integer per slab of `_SLAB_BITS`, built
    with `int.from_bytes`. Six word-wide delta swaps (fewer for smaller
    tiles) transpose every tile of a slab at once. The swapped slabs are
    joined into one buffer and read as tile-row words, word c being column
    c's value, and ints are made only for the columns asked for. The column
    values of chunks past the first are shifted and ORed into place. The
    tile work is linear in the matrix size, but that OR is not: each chunk
    shifts values as wide as all the rows above it, so tall matrices cost
    more per row (about 330 ns a row at 2^16 rows of 20 bits, 1,080 ns at
    2^19, on a 2-vCPU VM).

    With `columns`, only those entries are returned, in that order:
    `result[k]` is the full result's entry `columns[k]`, each in
    range(width). Chunks past the first are ORed in at those columns
    only.
    """
    if not rows or not width or columns is not None and not columns:
        return [0] * (width if columns is None else len(columns))
    # a getter of two or more items returns a tuple: the leading 0 makes
    # sure of that for one column, and is dropped after the pick
    pick = None if columns is None else itemgetter(0, *columns)
    result: list[int] = []
    for base in range(0, len(rows), 64):
        chunk = rows[base : base + 64]
        side = max(8, 1 << (len(chunk) - 1).bit_length())
        masks, tiles = _tile_masks(side), -(-width // side)
        size = side // 8 * tiles
        data = b"".join([row.to_bytes(size, "little") for row in chunk])
        data += bytes(size * (side - len(chunk)))
        # tile-major: word t of every row, then word t + 1, ...
        view = memoryview(memoryview(data).cast(_WORD_CODES[side], (side, tiles)).tobytes("F"))
        swapped = []
        for start in range(0, len(view), _SLAB_BITS // 8):
            part = view[start : start + _SLAB_BITS // 8]
            x = int.from_bytes(part, "little")
            for shift, mask in masks:
                t = (x ^ (x >> shift)) & mask
                x ^= t ^ (t << shift)
            swapped.append(x.to_bytes(len(part), "little"))
        words = array(_WORD_CODES[side], b"".join(swapped))
        if _BIG_ENDIAN:
            words.byteswap()
        if pick is None:
            values = words.tolist()
            del values[width:]
        else:
            values = list(pick(words)[1:])
        if base:
            values = [low | high << base for low, high in zip(result, values)]
        result = values
    return result


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
        for setter, value in zip(self._setters, (words, lanes)):
            setter(self, value)

    @property
    def width(self) -> int:
        return len(self.words)

    @classmethod
    def from_ints(cls, values: Sequence[int], width: int) -> BatchState:
        """Pack one lane per integer-encoded state (line 0 = LSB)."""
        if not values:
            raise StructuralError("empty batch")
        if min(values) < 0 or max(values) >> width:
            for j, value in enumerate(values):
                if value < 0 or value >> width:
                    raise StructuralError(f"lane {j} value {value} exceeds width {width}")
        return cls(tuple(transpose(values, width)), len(values))

    def lanes_as_ints(self) -> list[int]:
        return transpose(self.words, self.lanes)


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
    entries = table.entries
    return min(entries) >= 0 and max(entries) < size and len(set(entries)) == size
