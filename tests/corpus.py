"""Seeded corpora whose digests pin what the library does, in tier-1.

Two corpora, each drawn from a fixed seed:

- `netlist_corpus` draws netlist documents, and `corpus_result` gives one
  document's outcome as text: its `ParseError` line and message, or its
  netlist, QASM and metrics text;
- `deletion_reports` verifies every single-gate deletion of the 1- to
  5-bit cascades, exhaustively and on a seeded sample.

This module imports nothing but `random`, `hashlib` and `revadder`, so a
bare interpreter, without click, pytest or hypothesis, prints every
digest the tests pin:

    PYTHONPATH=src python tests/corpus.py
"""
from __future__ import annotations

import hashlib
import random

from revadder import (
    Circuit,
    ParseError,
    analyze,
    build_rca,
    export_qasm,
    parse_netlist,
    serialize_netlist,
    verify_rca,
)
from revadder.metrics import render_metrics_text

#: the seeds and sizes the tests pin the digests of
CORPUS_SEED, CORPUS_SIZE = 29, 10_000
DELETION_SEED, DELETION_TRIALS = 30, 1000

# ------------------------------------------------------------ netlist corpus
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


def corpus_result(text: str) -> str:
    """A document's outcome as text: its error's line and message, or its
    netlist, QASM and metrics text."""
    try:
        circuit, layout = parse_netlist(text)
    except ParseError as exc:
        return f"refused: line {exc.line}: {exc.message}\n"
    report = render_metrics_text(analyze(circuit), circuit)
    return serialize_netlist(circuit, layout) + export_qasm(circuit) + report


def corpus_digests(seed: int, count: int) -> tuple[str, str, int, int]:
    """The sha256 of the corpus documents and of their results, and how
    many documents parsed and were refused."""
    texts, results = hashlib.sha256(), hashlib.sha256()
    refused = 0
    for text in netlist_corpus(seed, count):
        texts.update(text.encode() + b"\0")
        result = corpus_result(text)
        refused += result.startswith("refused: ")
        results.update(result.encode() + b"\0")
    return texts.hexdigest(), results.hexdigest(), count - refused, refused


# ------------------------------------------------- single-gate deletions

def deletion_reports(trials: int, seed: int):
    """The report of every single-gate deletion of the 1- to 5-bit
    cascades: exhaustive, then `trials` vectors drawn from `seed`."""
    for n in range(1, 6):
        circuit, layout = build_rca(n)
        gates = circuit.gates
        for index in range(len(gates)):
            broken = Circuit(circuit.width, circuit.roles, gates[:index] + gates[index + 1 :])
            yield verify_rca(broken, layout)
            yield verify_rca(broken, layout, "random", trials=trials, seed=seed)


def deletion_digest(trials: int, seed: int) -> tuple[str, int, int]:
    """The sha256 of the deletion reports' reprs, and their failing rows
    and mismatches, summed."""
    digest = hashlib.sha256()
    rows = mismatches = 0
    for report in deletion_reports(trials, seed):
        digest.update(repr(report).encode() + b"\0")
        rows += len(report.failing_rows())
        mismatches += len(report.mismatches)
    return digest.hexdigest(), rows, mismatches


if __name__ == "__main__":
    text_digest, result_digest, parsed, refused = corpus_digests(CORPUS_SEED, CORPUS_SIZE)
    print(f"corpus documents {text_digest}")
    print(f"corpus results   {result_digest} ({parsed} parsed, {refused} refused)")
    digest, rows, mismatches = deletion_digest(DELETION_TRIALS, DELETION_SEED)
    print(f"deletion reports {digest} ({rows} rows, {mismatches} mismatches)")
