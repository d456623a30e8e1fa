import re

import pytest
from hypothesis import given, settings, strategies as st

from revadder import (
    AdderLayout,
    CapacityError,
    Circuit,
    Gate,
    ParseError,
    StructuralError,
    analyze,
    build_hng_reference,
    build_ppkn,
    build_rca,
    canonical_layout,
    cnot,
    export_qasm,
    named,
    parse_netlist,
    serialize_netlist,
    toffoli,
)
from revadder.core import MAX_LINES, describe_gate
from revadder.metrics import render_metrics_text

from corpus import CORPUS_SEED, CORPUS_SIZE, corpus_digests
from helpers import circuits_st, identifiers

PPKN_DOC = """\
lines 4
input 0 Cin
input 1 A
input 2 B
ancilla 3
layout adder 1
cnot 2 0
cnot 2 1
toffoli 0 1 3
cnot 2 1
cnot 2 3
cnot 1 0
output 0 Sum
output 1 A
output 2 B
output 3 Cout
"""


def test_parse_canonical_adder_document():
    circuit, layout = parse_netlist(PPKN_DOC)
    expected, _ = build_ppkn()
    assert circuit == expected
    assert layout == canonical_layout(1)


def test_serialize_is_canonical_for_the_adder():
    circuit, _ = build_ppkn()
    assert serialize_netlist(circuit, canonical_layout(1)) == PPKN_DOC


def test_parse_tolerates_comments_and_spacing():
    text = """
    # a one-bit adder, oddly formatted
    lines   4

    ancilla 3 0      # explicit constant
    input 2 B
    toffoli 1 0 3    # controls in either order
    input 0 Cin      # declarations may follow gates
    """
    circuit, layout = parse_netlist(text)
    assert circuit.width == 4
    assert circuit.gates == (toffoli(0, 1, 3),)
    assert layout is None
    assert circuit.roles[3].is_ancilla
    # Undeclared lines default to named inputs.
    assert circuit.roles[1].name == "q1"


def test_parse_minimal_document():
    circuit, layout = parse_netlist("lines 1\n")
    assert circuit.width == 1
    assert circuit.gates == ()
    assert layout is None


def test_serialize_gateless_circuit_is_roles_only():
    c = Circuit(2, (named("x"), named("y")))
    assert serialize_netlist(c) == "lines 2\ninput 0 x\ninput 1 y\n"


def test_serialize_orders_toffoli_controls():
    c = Circuit(3, tuple(named(f"q{i}") for i in range(3)), (toffoli(2, 0, 1),))
    assert "toffoli 0 2 1" in serialize_netlist(c)


def test_serialize_rejects_noncanonical_layout():
    c, _ = build_rca(2)
    shuffled = AdderLayout(
        n_bits=2, cin_line=0, a_lines=(2, 4), b_lines=(1, 5), ancilla_lines=(3, 6)
    )
    with pytest.raises(StructuralError):
        serialize_netlist(c, shuffled)


def test_serialize_refuses_a_layout_its_roles_break():
    # each document would be written, then refused by the parse at its
    # layout line; serialize raises the parse's message
    ppkn, _ = build_ppkn()
    rca, layout = build_rca(2)
    roles = list(rca.roles)
    roles[3] = named("x")
    cases = [
        (ppkn, canonical_layout(2), "layout adder 2 needs 7 lines, document declares 4"),
        (Circuit(7, roles, rca.gates), layout, "layout adder 2 expects line 3 to be an ancilla"),
    ]
    for circuit, bad_layout, message in cases:
        with pytest.raises(StructuralError) as exc:
            serialize_netlist(circuit, bad_layout)
        assert str(exc.value) == message
        document = serialize_netlist(circuit) + f"layout adder {bad_layout.n_bits}\n"
        with pytest.raises(ParseError) as exc:
            parse_netlist(document)
        assert exc.value.message == message


def test_serialize_refuses_a_width_the_parse_would_refuse():
    # the parse refuses `lines 65537` at line 1, so nothing is written
    message = f"width is capped at {MAX_LINES} lines, got {MAX_LINES + 1}"
    with pytest.raises(ParseError) as exc:
        parse_netlist(f"lines {MAX_LINES + 1}\n")
    assert (exc.value.line, exc.value.message) == (1, message)
    gateless = Circuit(MAX_LINES + 1, [named("x")] * (MAX_LINES + 1))
    with pytest.raises(CapacityError) as exc:
        serialize_netlist(gateless)
    assert str(exc.value) == message
    # the first cascade above the cap, 3 * 21846 + 1 lines, with its layout
    with pytest.raises(CapacityError) as exc:
        serialize_netlist(*build_rca(21846))
    assert str(exc.value) == f"width is capped at {MAX_LINES} lines, got 65539"
    widest = Circuit(MAX_LINES, [named("x")] * MAX_LINES)
    assert serialize_netlist(widest).startswith(f"lines {MAX_LINES}\ninput 0 x\n")


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("", 1, "missing lines"),
        ("# only a comment\n", 1, "missing lines"),
        ("# intro\ncnot 0 1\n", 2, "must come first"),
        # a gate before `lines` is out of order before it is malformed
        ("cnot 1\nlines 2\n", 1, "must come first"),
        ("lines 2\nlines 2\n", 2, "duplicate lines"),
        ("lines 0\n", 1, "width must be >= 1"),
        ("lines x\n", 1, "expected a width"),
        ("lines 2 2\n", 1, "usage: lines"),
        (f"lines {MAX_LINES + 1}\n", 1, f"capped at {MAX_LINES} lines"),
        ("lines 2\ninput 0\n", 2, "usage: input"),
        ("lines 2\ninput 0 9bad\n", 2, "label"),
        ("lines 2\ninput 0 a\ninput 0 b\n", 3, "already declared"),
        ("lines 2\nancilla 1\ninput 1 a\n", 3, "already declared"),
        ("lines 2\ninput 5 a\n", 2, "out of range"),
        ("lines 2\ncnot 0 2\n", 2, "out of range"),
        ("lines 2\ncnot 0 0\n", 2, "duplicate line"),
        # a gate that repeats a line, in every position, as Gate names it
        ("lines 4\ncnot 2 2\n", 2, "duplicate line index in (2, 2)"),
        ("lines 4\ntoffoli 1 1 3\n", 2, "duplicate line index in (1, 1, 3)"),
        ("lines 4\ntoffoli 3 1 3\n", 2, "duplicate line index in (1, 3, 3)"),
        ("lines 4\ntoffoli 1 3 1\n", 2, "duplicate line index in (1, 3, 1)"),
        # The first bad token of a gate statement decides its error.
        ("lines 2\ncnot 5 x\n", 2, "out of range"),
        ("lines 2\ncnot x 5\n", 2, "expected a line index"),
        ("lines 3\ntoffoli 0 0 9\n", 2, "out of range"),
        ("lines 2\nnot -1\n", 2, "out of range"),
        ("lines 3\ntoffoli 0 1\n", 2, "usage: toffoli"),
        ("lines 2\nnot 0 1\n", 2, "usage: not"),
        ("lines 2\nhadamard 0\n", 2, "unknown keyword"),
        ("lines 2\nancilla 1 1\n", 2, "constant 0"),
        ("lines 2\noutput 0 S\noutput 0 T\n", 3, "already labeled"),
        ("lines 2\noutput 0 bad-label\n", 2, "label"),
        # A bad output label is reported once the whole document is read, a
        # bad input name at its own line.
        ("lines 2\noutput 0 bad-label\nhadamard 0\n", 3, "unknown keyword"),
        ("lines 2\ninput 0 9bad\ninput 0 a\n", 2, "label"),
        # of two bad labels, the one on the lower line index is reported
        ("lines 3\noutput 2 bad-2\noutput 1 bad-1\n", 3, "'bad-1'"),
        ("lines 4\nlayout adder 1\nlayout adder 1\n", 3, "duplicate layout"),
        ("lines 4\nlayout foo 1\n", 2, "usage: layout"),
        ("lines 4\nlayout adder 0\n", 2, ">= 1 bits"),
        ("lines 5\nlayout adder 1\n", 2, "needs 4 lines"),
        ("lines 4\ninput 3 d\nlayout adder 1\n", 3, "to be an ancilla"),
        # every check a declaration statement can fail, in the order they run
        ("lines 2\ninput x a\n", 2, "expected a line index, got 'x'"),
        ("lines 2\noutput x S\n", 2, "expected a line index, got 'x'"),
        ("lines 2\nancilla 7\n", 2, "line index 7 out of range for width 2"),
        ("lines 2\noutput 9 S\n", 2, "line index 9 out of range for width 2"),
        ("lines 2\ninput -1 a\n", 2, "line index -1 out of range for width 2"),
        ("lines 2\ninput 2 a\n", 2, "line index 2 out of range for width 2"),
        ("lines 2\noutput 2 S\n", 2, "line index 2 out of range for width 2"),
        ("lines 2\nancilla\n", 2, "usage: ancilla <line> [0]"),
        ("lines 2\nancilla 0 0 0\n", 2, "usage: ancilla <line> [0]"),
        ("lines 2\noutput 0\n", 2, "usage: output <line> <label>"),
        ("lines 2\ninput 0 a b\n", 2, "usage: input <line> <name>"),
        ("lines 2\ninput 1 a\nancilla 1\n", 3, "line 1 role already declared"),
        # of two failing declaration checks, the earlier one in that order wins
        ("lines 2\nancilla 5 1\n", 2, "line index 5 out of range for width 2"),
        ("lines 2\nancilla x 1\n", 2, "expected a line index, got 'x'"),
        ("lines 2\ninput x 9bad\n", 2, "expected a line index, got 'x'"),
        # a range error comes at once; only a bad output label waits
        ("lines 2\noutput 5 bad-label\n", 2, "line index 5 out of range for width 2"),
        ("lines 2\ninput 0 a\ninput 0 9bad\n", 3, "line 0 role already declared"),
        ("lines 2\nancilla 1\nancilla 1 1\n", 3, "line 1 role already declared"),
        ("lines 2\noutput 1 bad-label\noutput 1 S\n", 3, "line 1 output already labeled"),
        ("lines 2\ninput 0 9bad x\n", 2, "usage: input <line> <name>"),
    ],
)
def test_parse_errors(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_netlist(text)
    assert exc.value.line == line
    assert fragment in exc.value.message
    assert str(exc.value).startswith(f"line {line}:")


@pytest.mark.parametrize(
    "text, gate",
    [
        ("lines 3\ntoffoli 0 1 2#c\n", toffoli(0, 1, 2)),
        ("lines 2\ncnot 0 1 # note\n", cnot(0, 1)),
    ],
    ids=["glued", "spaced"],
)
def test_parse_strips_a_comment_after_a_gate(text, gate):
    circuit, _ = parse_netlist(text)
    assert circuit.gates == (gate,)


@pytest.mark.parametrize("token", ["+1", "07", "1_0", "\u0663"])
def test_declarations_read_an_index_as_int_does(token):
    # int(token, 10) accepts a sign, leading zeros, an underscore and any
    # Unicode decimal digit; each names the line it would name in Python
    idx = int(token, 10)
    circuit, _ = parse_netlist(f"lines 11\ninput {token} a\noutput {token} S\n")
    assert circuit.roles[idx] == named("a", "S")
    circuit, _ = parse_netlist(f"lines 11\nancilla {token}\n")
    assert circuit.roles[idx].is_ancilla


@pytest.mark.parametrize("token", ["+1", "07", "1_0", "\u0663"])
def test_gates_read_an_index_as_int_does(token):
    # these spellings miss the parser's table of shortest spellings
    idx = int(token, 10)
    other = 4 if idx != 4 else 5
    circuit, _ = parse_netlist(
        f"lines 11\nnot {token}\ncnot {token} 0\ncnot 0 {token}\n"
        f"toffoli {token} {other} 0\ntoffoli {other} {token} 0\ntoffoli 0 {other} {token}\n"
    )
    assert circuit.gates == (
        Gate((), idx),
        cnot(idx, 0),
        cnot(0, idx),
        toffoli(idx, other, 0),
        toffoli(other, idx, 0),
        toffoli(0, other, idx),
    )
    assert all(type(line) is int for gate in circuit.gates for line in gate.controls)


@pytest.mark.parametrize(
    "gate, statement, qasm",
    [
        (Gate((), 3), "not 3", "x q[3];"),
        (cnot(4, 0), "cnot 4 0", "cx q[4], q[0];"),
        (toffoli(0, 1, 3), "toffoli 0 1 3", "ccx q[0], q[1], q[3];"),
        (toffoli(4, 2, 0), "toffoli 2 4 0", "ccx q[2], q[4], q[0];"),
        # an index is printed as str() prints it
        (Gate((True,), 2), "cnot True 2", "cx q[True], q[2];"),
    ],
    ids=["not", "cnot", "toffoli", "toffoli-unordered", "bool-control"],
)
def test_gate_statement_text_is_pinned(gate, statement, qasm):
    circuit = Circuit(5, [named(f"q{i}") for i in range(5)], [gate])
    assert describe_gate(gate) == statement
    assert serialize_netlist(circuit).splitlines()[6:] == [statement]
    assert export_qasm(circuit).splitlines()[3:] == [qasm]
    assert f"  step 1: g0 {statement}" in render_metrics_text(analyze(circuit), circuit)


#: characters that end a line for str.splitlines but not in text mode
NOT_LINE_ENDS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
def test_a_comment_runs_to_the_end_of_its_line(char):
    hidden = f"toffoli 0 1 3  # fix later{char}cnot 2 3\n"
    assert parse_netlist(PPKN_DOC.replace("toffoli 0 1 3\n", hidden)) == parse_netlist(PPKN_DOC)
    with pytest.raises(ParseError) as exc:
        parse_netlist(f"lines 2\n# x{char}y\nnot 5\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_parse_reads_crlf_and_cr_line_ends(newline):
    assert parse_netlist(PPKN_DOC.replace("\n", newline)) == parse_netlist(PPKN_DOC)
    with pytest.raises(ParseError) as exc:
        parse_netlist(newline.join(["lines 2", "# note", "", "not 5", ""]))
    assert exc.value.line == 4
    # a CR before a CR LF ends a line of its own
    with pytest.raises(ParseError) as exc:
        parse_netlist("lines 2\r\r\nnot 5\n")
    assert exc.value.line == 3


def test_width_cap_admits_exactly_max_lines():
    circuit, _ = parse_netlist(f"lines {MAX_LINES}\n")
    assert circuit.width == MAX_LINES


def test_ancilla_accepts_explicit_zero():
    circuit, _ = parse_netlist("lines 2\nancilla 0 0\nancilla 1\n")
    assert all(r.is_ancilla for r in circuit.roles)


def test_layout_requires_canonical_ancilla_positions():
    # Width 7 cascade with line 3 declared as an input: rejected.
    text = "lines 7\ninput 3 x\nlayout adder 2\n"
    with pytest.raises(ParseError) as exc:
        parse_netlist(text)
    assert "line 3" in exc.value.message


RCA2_DOC = serialize_netlist(*build_rca(2))


@pytest.mark.parametrize(
    "doc, statement, layout_line",
    [
        (PPKN_DOC, "input 1 A", 6),
        (RCA2_DOC, "input 4 A1", 9),
        (RCA2_DOC, "input 0 Cin", 9),
        (RCA2_DOC, "input 5 B1", 9),
    ],
    ids=["ppkn-A", "rca2-A1", "rca2-Cin", "rca2-B1"],
)
def test_layout_requires_operand_lines_to_be_inputs(doc, statement, layout_line):
    # an operand line declared constant-0 would be driven with 1s by verify
    line = statement.split()[1]
    doc = doc.replace(f"{statement}\n", f"ancilla {line}\n")
    with pytest.raises(ParseError) as exc:
        parse_netlist(doc)
    assert exc.value.line == layout_line
    assert doc.splitlines()[layout_line - 1].startswith("layout adder")
    assert f"expects line {line} to be an input" in exc.value.message


def test_round_trip_builtin_circuits():
    ppkn, _ = build_ppkn()
    hng, _ = build_hng_reference()
    for circuit in (ppkn, hng):
        again, layout = parse_netlist(serialize_netlist(circuit))
        assert again == circuit
        assert layout is None
    for n in (1, 2, 3, 4):
        circuit, layout = build_rca(n)
        text = serialize_netlist(circuit, layout)
        again, layout_again = parse_netlist(text)
        assert again == circuit
        assert layout_again == layout


def test_rca_document_contains_one_statement_per_gate():
    circuit, layout = build_rca(3)
    text = serialize_netlist(circuit, layout)
    gate_lines = [
        line
        for line in text.splitlines()
        if line.split()[0] in ("not", "cnot", "toffoli")
    ]
    assert len(gate_lines) == 18


def test_serialize_is_deterministic():
    c, layout = build_rca(2)
    assert serialize_netlist(c, layout) == serialize_netlist(c, layout)


@given(circuits_st(max_width=8, max_gates=30))
def test_round_trip_arbitrary_circuits(c):
    again, layout = parse_netlist(serialize_netlist(c))
    assert again == c
    assert layout is None


def test_parse_error_is_circuit_error():
    from revadder import CircuitError

    with pytest.raises(CircuitError):
        parse_netlist("lines 2\ncnot 0 0\n")


# ---------------------------------------------------------------- fuzzing

_DECLARATIONS = ("input", "ancilla", "output", "layout")
_GATE_LINES = {"not": 1, "cnot": 2, "toffoli": 3}
_KEYWORDS = ("lines", *_DECLARATIONS, *_GATE_LINES)
#: gates weigh three times as much as declarations
_STATEMENT_KEYWORDS = _DECLARATIONS + tuple(_GATE_LINES) * 3
_JUNK = ("adder", "x", "#", "-", "-0", "+1", "0x3", "1.5", "07", "9bad", "\u0663", "")
_junk_tokens_st = st.one_of(
    st.integers(-1, 64).map(str), identifiers, st.sampled_from(_JUNK)
)


@st.composite
def _statements_st(draw, width: int):
    """One statement of the grammar, its line indices within the width."""
    index = st.integers(0, width - 1).map(str)
    keyword = draw(st.sampled_from(_STATEMENT_KEYWORDS))
    if keyword in ("input", "output"):
        args = [draw(index), draw(identifiers)]
    elif keyword == "ancilla":
        args = [draw(index)] + draw(st.sampled_from(([], ["0"])))
    elif keyword == "layout":
        args = ["adder", draw(st.integers(0, 21).map(str))]
    else:
        n = _GATE_LINES[keyword]
        args = draw(st.lists(index, min_size=n, max_size=n))
    sep = draw(st.sampled_from((" ", "  ", "\t")))
    comment = draw(st.one_of(st.just(""), st.text(max_size=8).map(lambda t: " #" + t)))
    return sep.join([keyword, *args]) + comment


#: at most one line of noise per document, so that most parse some way in
_noise_st = st.one_of(
    st.builds(
        lambda keyword, args: " ".join([keyword, *args]),
        st.one_of(st.sampled_from(_KEYWORDS), _junk_tokens_st),
        st.lists(_junk_tokens_st, max_size=4),
    ),
    # any width at all: MAX_LINES refuses the huge ones before they allocate
    st.one_of(
        st.integers(), st.sampled_from((MAX_LINES, MAX_LINES + 1, 10**12))
    ).map(lambda width: f"lines {width}"),
    st.text(max_size=12),
)


@st.composite
def _documents_st(draw):
    width = draw(st.integers(1, 64))
    lines = [f"lines {width}"] + draw(st.lists(_statements_st(width), max_size=10))
    noise = draw(st.one_of(st.none(), _noise_st))
    if noise is not None:
        lines.insert(draw(st.integers(0, len(lines))), noise)
    return "\n".join(lines)


@settings(max_examples=300)
@given(_documents_st())
def test_parse_fuzz_raises_only_parse_errors_and_round_trips(text):
    # every document declares its width, so a second `lines` must be refused
    # lines end where text mode ends them: LF, CR LF or CR
    lines = re.split(r"\r\n?|\n", text)
    keywords = [raw.split("#", 1)[0].split()[:1] for raw in lines]
    redeclared = keywords.count(["lines"]) > 1
    try:
        circuit, layout = parse_netlist(text)
    except ParseError as exc:
        assert 1 <= exc.line <= len(lines)
        return
    assert not redeclared
    assert parse_netlist(serialize_netlist(circuit, layout)) == (circuit, layout)


# ------------------------------------------------------- pinned corpus

#: sha256 of the corpus documents: the generator draws them alike on every
#: Python version, and this tells a changed corpus from a changed parse
CORPUS_TEXT_DIGEST = "8dc88173548f4ca7edb6486efbe59dd1aa84562670e536fe77f30b920dd859ed"
#: sha256 of every corpus document's result, and how many parsed and were
#: refused; a change meant to alter an error or an output updates these
#: and says why in CHANGES.md
CORPUS_DIGEST = "701e8028371dbf101a0c92a6d1174d35f1f70379ece47e56501ebac2dec5eff5"
CORPUS_PARSED, CORPUS_REFUSED = 5189, 4811


def test_seeded_corpus_parses_as_pinned():
    texts, digest, parsed, refused = corpus_digests(CORPUS_SEED, CORPUS_SIZE)
    assert texts == CORPUS_TEXT_DIGEST
    assert (parsed, refused) == (CORPUS_PARSED, CORPUS_REFUSED)
    assert digest == CORPUS_DIGEST
