"""Plain-text netlist format: one statement per line.

    lines 4            # width; must be the first statement
    input 0 Cin        # named primary input
    ancilla 3          # constant-0 helper line
    layout adder 1     # optional: the canonical cascade layout
    cnot 2 0           # gates, in program order
    toffoli 0 1 3
    output 0 Sum       # optional output labels

`#` starts a comment; blank lines are ignored. Undeclared lines default
to named inputs q<idx>. Serialization is canonical (declarations in
ascending line order, Toffoli controls ascending), so equal circuits
produce byte-identical documents and every document round-trips.
"""
from __future__ import annotations

from typing import Optional

from .core import (
    MAX_LINES,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    LineRole,
    StructuralError,
    check_label,
    describe_gate,
    new_circuit,
)
from .adders import AdderLayout, canonical_layout


class ParseError(CircuitError):
    """A malformed netlist document; `line` is the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


#: gate keyword -> (kind, tokens in its statement)
_GATE_STATEMENTS = {kind.value: (kind, kind.n_controls + 2) for kind in GateKind}


def _int_token(token: str, line_no: int, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ParseError(f"expected {what}, got {token!r}", line_no) from None


def _check_index(idx: int, width: int, line_no: int) -> int:
    if idx < 0 or idx >= width:
        raise ParseError(f"line index {idx} out of range for width {width}", line_no)
    return idx


def parse_netlist(text: str) -> tuple[Circuit, Optional[AdderLayout]]:
    """Parse a document into a circuit and its optional adder layout."""
    width: Optional[int] = None
    names: dict[int, Optional[str]] = {}  # declared lines; None for an ancilla
    outputs: dict[int, tuple[str, int]] = {}
    gates: list[Gate] = []
    append = gates.append
    layout_bits: Optional[int] = None
    layout_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        keyword = tokens[0]

        if width is None:
            if keyword != "lines":
                raise ParseError("the lines declaration must come first", line_no)
        elif (statement := _GATE_STATEMENTS.get(keyword)) is not None:
            kind, size = statement
            if len(tokens) != size:
                raise ParseError(
                    f"usage: {keyword} {'<c> ' * kind.n_controls}<t>".replace("  ", " "),
                    line_no,
                )
            try:
                if size == 4:
                    c, d, t = int(tokens[1], 10), int(tokens[2], 10), int(tokens[3], 10)
                    if 0 <= c < width and 0 <= d < width and 0 <= t < width:
                        append(Gate(kind, (c, d), t))
                        continue
                elif size == 3:
                    c, t = int(tokens[1], 10), int(tokens[2], 10)
                    if 0 <= c < width and 0 <= t < width:
                        append(Gate(kind, (c,), t))
                        continue
                else:
                    t = int(tokens[1], 10)
                    if 0 <= t < width:
                        append(Gate(kind, (), t))
                        continue
            except ValueError:
                pass
            except StructuralError as exc:
                raise ParseError(str(exc), line_no) from None
            # Token by token, the first bad one names the error.
            for token in tokens[1:]:
                _check_index(_int_token(token, line_no, "a line index"), width, line_no)
            continue

        args = tokens[1:]
        if keyword == "lines":
            if width is not None:
                raise ParseError("duplicate lines declaration", line_no)
            if len(args) != 1:
                raise ParseError("usage: lines <width>", line_no)
            width = _int_token(args[0], line_no, "a width")
            if width < 1:
                raise ParseError(f"width must be >= 1, got {width}", line_no)
            if width > MAX_LINES:
                raise ParseError(f"width is capped at {MAX_LINES} lines, got {width}", line_no)

        elif keyword == "input":
            if len(args) != 2:
                raise ParseError("usage: input <line> <name>", line_no)
            idx = _check_index(_int_token(args[0], line_no, "a line index"), width, line_no)
            if idx in names:
                raise ParseError(f"line {idx} role already declared", line_no)
            try:
                names[idx] = check_label(args[1])
            except StructuralError as exc:
                raise ParseError(str(exc), line_no) from None

        elif keyword == "ancilla":
            if len(args) not in (1, 2):
                raise ParseError("usage: ancilla <line> [0]", line_no)
            idx = _check_index(_int_token(args[0], line_no, "a line index"), width, line_no)
            if idx in names:
                raise ParseError(f"line {idx} role already declared", line_no)
            if len(args) == 2 and args[1] != "0":
                raise ParseError(
                    f"ancilla lines are constant 0, got initial {args[1]!r}", line_no
                )
            names[idx] = None

        elif keyword == "output":
            if len(args) != 2:
                raise ParseError("usage: output <line> <label>", line_no)
            idx = _check_index(_int_token(args[0], line_no, "a line index"), width, line_no)
            if idx in outputs:
                raise ParseError(f"line {idx} output already labeled", line_no)
            outputs[idx] = (args[1], line_no)

        elif keyword == "layout":
            if len(args) != 2 or args[0] != "adder":
                raise ParseError("usage: layout adder <n>", line_no)
            if layout_bits is not None:
                raise ParseError("duplicate layout declaration", line_no)
            layout_bits = _int_token(args[1], line_no, "a bit count")
            if layout_bits < 1:
                raise ParseError(f"adder layout needs >= 1 bits, got {layout_bits}", line_no)
            layout_line = line_no

        else:
            raise ParseError(f"unknown keyword {keyword!r}", line_no)

    if width is None:
        raise ParseError("missing lines declaration", 1)

    # Names were checked where declared, so a bad label here is an output's.
    full_roles = []
    for i in range(width):
        label, label_line = outputs.get(i, (None, 0))
        try:
            full_roles.append(LineRole(names[i] if i in names else f"q{i}", label))
        except StructuralError as exc:
            raise ParseError(str(exc), label_line) from None

    layout = None
    if layout_bits is not None:
        if width != 3 * layout_bits + 1:
            raise ParseError(
                f"layout adder {layout_bits} needs {3 * layout_bits + 1} lines, "
                f"document declares {width}",
                layout_line,
            )
        layout = canonical_layout(layout_bits)
        ancillas = set(layout.ancilla_lines)
        for line, role in enumerate(full_roles):
            if role.is_ancilla != (line in ancillas):
                expected = "an ancilla" if line in ancillas else "an input"
                raise ParseError(
                    f"layout adder {layout_bits} expects line {line} to be {expected}",
                    layout_line,
                )

    return new_circuit(width, full_roles).extend(gates), layout


def serialize_netlist(circuit: Circuit, layout: Optional[AdderLayout] = None) -> str:
    """Canonical text form; deterministic bytes for a given circuit.

    Only the canonical cascade layout is expressible in the format, so a
    non-canonical layout is rejected rather than silently dropped.
    """
    lines = [f"lines {circuit.width}"]
    for i, role in enumerate(circuit.roles):
        if role.is_ancilla:
            lines.append(f"ancilla {i}")
        else:
            lines.append(f"input {i} {role.name}")
    if layout is not None:
        if layout != canonical_layout(layout.n_bits):
            raise StructuralError("only the canonical adder layout is serializable")
        lines.append(f"layout adder {layout.n_bits}")
    lines.extend(map(describe_gate, circuit.gates))
    for i, role in enumerate(circuit.roles):
        if role.output is not None:
            lines.append(f"output {i} {role.output}")
    return "\n".join(lines) + "\n"
