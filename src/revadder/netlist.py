"""Plain-text netlist format: one statement per line.

    lines 4            # width; must be the first statement
    input 0 Cin        # named primary input
    ancilla 3          # constant-0 helper line
    layout adder 1     # optional: the canonical cascade layout
    cnot 2 0           # gates, in program order
    toffoli 0 1 3
    output 0 Sum       # optional output labels

Lines end at LF, CR LF or CR only, as in text mode, so `#` starts a
comment that runs to the end of its line. Blank lines are ignored.
Every statement reads a line index in any spelling `int` reads. A
declaration is checked in one order and its first failing check is
the error: usage, line index, range, duplicate, then an ancilla's `0`
or an input's name; a bad output label is reported once the whole
document is read. A gate's first bad token names its error.
Undeclared lines default to named inputs q<idx>. A document declares
1 to `MAX_LINES` lines; a `layout adder n` document declares 3n + 1,
and its roles keep the layout's rule, which `verify_rca` applies too.
Serialization is canonical (declarations in ascending line order,
Toffoli controls ascending), so equal circuits produce byte-identical
documents, and it refuses what the parse would refuse, so every
document it writes round-trips.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    GATE_KEYWORDS,
    MAX_LINES,
    STATEMENT_TEMPLATES,
    CapacityError,
    Circuit,
    CircuitError,
    Gate,
    LineRole,
    StructuralError,
    check_label,
)
from .adders import AdderLayout, _check_roles, canonical_layout


class ParseError(CircuitError):
    """A malformed netlist document; `line` is the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


#: gate keyword -> tokens in its statement
_GATE_STATEMENTS = {keyword: n + 2 for n, keyword in enumerate(GATE_KEYWORDS)}
#: declaration keyword -> its usage; an ancilla's statement may omit the "0"
_DECLARATIONS = {
    "input": "usage: input <line> <name>",
    "ancilla": "usage: ancilla <line> [0]",
    "output": "usage: output <line> <label>",
}


def _int_token(token: str, line_no: int, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ParseError(f"expected {what}, got {token!r}", line_no) from None


def _line_index(token: str, width: int, line_no: int) -> int:
    """A line index the table of shortest spellings missed, in any spelling
    `int` reads: `01`, `+1`, `1_0` or `\u0663`."""
    idx = _int_token(token, line_no, "a line index")
    if not 0 <= idx < width:
        raise ParseError(f"line index {idx} out of range for width {width}", line_no)
    return idx


def _check_width(width: int) -> None:
    """A document declares 1 to `MAX_LINES` lines."""
    if width < 1:
        raise StructuralError(f"width must be >= 1, got {width}")
    if width > MAX_LINES:
        raise CapacityError(f"width is capped at {MAX_LINES} lines, got {width}")


def _adder_layout(n_bits: int, roles: Sequence[LineRole]) -> AdderLayout:
    """The canonical layout of a `layout adder n` document, which declares
    3n + 1 lines, if its roles keep the layout's rule; else `StructuralError`."""
    if len(roles) != 3 * n_bits + 1:
        raise StructuralError(
            f"layout adder {n_bits} needs {3 * n_bits + 1} lines, document declares {len(roles)}"
        )
    layout = canonical_layout(n_bits)
    _check_roles(layout, roles)
    return layout


def parse_netlist(text: str) -> tuple[Circuit, Optional[AdderLayout]]:
    """Parse a document into a circuit and its optional adder layout."""
    width: Optional[int] = None
    names: dict[int, Optional[str]] = {}  # declared lines; None for an ancilla
    outputs: dict[int, str] = {}
    bad_outputs: list[tuple[int, int]] = []  # (line index, line_no) of a bad label
    controls: list[tuple[int, ...]] = []  # the gates, as two checked columns
    targets: list[int] = []
    add_controls, add_target = controls.append, targets.append
    layout_bits: Optional[int] = None
    layout_line = 0

    # Lines end only at \n, \r\n and \r, as in text mode. str.splitlines also
    # ends them at \x0c, \x85, U+2028 and more, even inside a comment.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    # A library error is a ParseError at `line_no`, the source line being
    # read: a statement, the bad output label's line or the layout line.
    try:
        for line_no, tokens in enumerate(map(str.split, lines), start=1):
            if not tokens:
                continue
            keyword = tokens[0]

            if width is None:
                if keyword != "lines":
                    raise ParseError("the lines declaration must come first", line_no)
                if len(tokens) != 2:
                    raise ParseError("usage: lines <width>", line_no)
                width = _int_token(tokens[1], line_no, "a width")
                _check_width(width)
                # one lookup converts an index's shortest spelling and checks its range
                index = dict(zip(map(str, range(width)), range(width)))

            elif (size := _GATE_STATEMENTS.get(keyword)) is not None:
                if len(tokens) != size:
                    raise ParseError(f"usage: {keyword} {'<c> ' * (size - 2)}<t>", line_no)
                try:
                    if size == 4:
                        c, d, t = index[tokens[1]], index[tokens[2]], index[tokens[3]]
                        if c != d != t != c:
                            add_controls((c, d) if c < d else (d, c))
                            add_target(t)
                            continue
                    elif size == 3:
                        c, t = index[tokens[1]], index[tokens[2]]
                        if c != t:
                            add_controls((c,))
                            add_target(t)
                            continue
                    else:
                        add_target(index[tokens[1]])
                        add_controls(())
                        continue
                except KeyError:
                    pass
                # Another spelling int reads, a bad token or a line used twice:
                # token by token, the first bad one names the error, then Gate.
                indices = [_line_index(token, width, line_no) for token in tokens[1:]]
                gate = Gate(tuple(indices[:-1]), indices[-1])
                add_controls(gate.controls)
                add_target(gate.target)

            elif (usage := _DECLARATIONS.get(keyword)) is not None:
                # checks in the docstring's order; the first to fail is the error
                if len(tokens) != 3 and (len(tokens) != 2 or keyword != "ancilla"):
                    raise ParseError(usage, line_no)
                if (idx := index.get(tokens[1])) is None:
                    idx = _line_index(tokens[1], width, line_no)
                if keyword == "output":
                    if idx in outputs:
                        raise ParseError(f"line {idx} output already labeled", line_no)
                    label = outputs[idx] = tokens[2]
                    if not (label.isascii() and label.isidentifier()):
                        bad_outputs.append((idx, line_no))
                elif idx in names:
                    raise ParseError(f"line {idx} role already declared", line_no)
                elif keyword == "input":
                    name = names[idx] = tokens[2]
                    if not (name.isascii() and name.isidentifier()):
                        check_label(name)  # raises the label's error
                elif len(tokens) == 2 or tokens[2] == "0":
                    names[idx] = None
                else:
                    raise ParseError(
                        f"ancilla lines are constant 0, got initial {tokens[2]!r}", line_no
                    )

            elif keyword == "lines":
                raise ParseError("duplicate lines declaration", line_no)

            elif keyword == "layout":
                if len(tokens) != 3 or tokens[1] != "adder":
                    raise ParseError("usage: layout adder <n>", line_no)
                if layout_bits is not None:
                    raise ParseError("duplicate layout declaration", line_no)
                layout_bits = _int_token(tokens[2], line_no, "a bit count")
                if layout_bits < 1:
                    raise ParseError(f"adder layout needs >= 1 bits, got {layout_bits}", line_no)
                layout_line = line_no

            else:
                raise ParseError(f"unknown keyword {keyword!r}", line_no)

        if width is None:
            raise ParseError("missing lines declaration", 1)

        if bad_outputs:
            # A bad output label is refused only once every statement is read,
            # the first by line index, at the statement that gave it.
            idx, line_no = min(bad_outputs)
            check_label(outputs[idx])

        # Every field was checked where it was read, so roles and gates are made
        # in bulk: names, then output labels, one column each.
        name_column = [names[i] if i in names else f"q{i}" for i in range(width)]
        full_roles = tuple(LineRole._many(name_column, list(map(outputs.get, range(width)))))

        layout = None
        if layout_bits is not None:
            line_no = layout_line
            layout = _adder_layout(layout_bits, full_roles)
    except (StructuralError, CapacityError) as exc:
        raise ParseError(str(exc), line_no) from None

    gates = tuple(Gate._many(controls, targets))
    return Circuit._many((width,), (full_roles,), (gates,))[0], layout


def serialize_netlist(circuit: Circuit, layout: Optional[AdderLayout] = None) -> str:
    """Canonical text form; deterministic bytes for a given circuit.

    A circuit wider than `MAX_LINES` is refused with `CapacityError`
    before any text is built. Only the canonical cascade layout is
    expressible in the format, so a non-canonical layout is rejected
    rather than silently dropped, and so are roles that break its rule,
    which the parse would refuse.
    """
    _check_width(circuit.width)
    roles = circuit.roles
    lines = [f"lines {circuit.width}"]
    lines += [
        f"ancilla {i}" if role.name is None else f"input {i} {role.name}"
        for i, role in enumerate(roles)
    ]
    if layout is not None:
        if layout != canonical_layout(layout.n_bits):
            raise StructuralError("only the canonical adder layout is serializable")
        _adder_layout(layout.n_bits, roles)
        lines.append(f"layout adder {layout.n_bits}")
    lines += [
        STATEMENT_TEMPLATES[len(c := gate.controls)] % (*c, gate.target)
        for gate in circuit.gates
    ]
    lines += [
        f"output {i} {role.output}" for i, role in enumerate(roles) if role.output is not None
    ]
    return "\n".join(lines) + "\n"
