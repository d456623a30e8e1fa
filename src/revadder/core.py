"""Circuit intermediate representation for the NCT gate library.

A circuit is an ordered list of NOT/CNOT/Toffoli gates acting on `width`
lines, plus per-line role metadata (named input or constant-0 ancilla,
optional output label). Lines are indexed 0-based, top to bottom. Circuits
are immutable: builders return new values, so they are safe to share.
"""
from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Optional


class CircuitError(Exception):
    """Base class for everything this package raises on bad input."""


class StructuralError(CircuitError):
    """Malformed gate or circuit: bad indices, widths, role lists."""


class CapacityError(CircuitError):
    """An exhaustive operation was requested beyond its configured limit."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class GateKind(Enum):
    NOT = "not"
    CNOT = "cnot"
    TOFFOLI = "toffoli"

    @property
    def n_controls(self) -> int:
        return _N_CONTROLS[self]


_N_CONTROLS = {GateKind.NOT: 0, GateKind.CNOT: 1, GateKind.TOFFOLI: 2}


@dataclass(frozen=True)
class Gate:
    """One NCT primitive: flip `target` iff every control line is 1.

    Controls are stored sorted, so gates that differ only in control order
    compare (and hash) equal. All line indices within a gate must be
    pairwise distinct.
    """

    kind: GateKind
    controls: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        controls = tuple(sorted(self.controls))
        object.__setattr__(self, "controls", controls)
        if len(controls) != self.kind.n_controls:
            raise StructuralError(
                f"{self.kind.value} takes {self.kind.n_controls} controls, "
                f"got {len(controls)}"
            )
        lines = controls + (self.target,)
        if any(i < 0 for i in lines):
            raise StructuralError(f"negative line index in {lines}")
        if len(set(lines)) != len(lines):
            raise StructuralError(f"duplicate line index in {lines}")

    @property
    def support(self) -> frozenset[int]:
        """All lines the gate touches: controls plus target."""
        return frozenset(self.controls) | {self.target}

    @property
    def max_line(self) -> int:
        return max(self.support)


def not_gate(target: int) -> Gate:
    return Gate(GateKind.NOT, (), target)


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control,), target)


def toffoli(control_a: int, control_b: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (control_a, control_b), target)


def describe_gate(gate: Gate) -> str:
    """Netlist statement of a gate: kind then lines, controls before target."""
    lines = " ".join(str(i) for i in gate.controls + (gate.target,))
    return f"{gate.kind.value} {lines}"


@dataclass(frozen=True)
class LineRole:
    """Role of one circuit line.

    `name is None` marks a constant-0 ancilla; otherwise the line is a
    named primary input. `output` is an optional label for the value the
    line carries at the end of the circuit. Names must be bare identifiers
    so the netlist text format can tokenize them.
    """

    name: Optional[str]
    output: Optional[str] = None

    def __post_init__(self) -> None:
        for label in (self.name, self.output):
            if label is not None and not _NAME_RE.match(label):
                raise StructuralError(f"not a valid line label: {label!r}")

    @property
    def is_ancilla(self) -> bool:
        return self.name is None

    def with_output(self, label: Optional[str]) -> LineRole:
        return replace(self, output=label)


def named(name: str, output: Optional[str] = None) -> LineRole:
    return LineRole(name, output)


def ancilla(output: Optional[str] = None) -> LineRole:
    return LineRole(None, output)


@dataclass(frozen=True)
class Circuit:
    """An ordered NCT gate list over `width` lines.

    Gate order is program order; semantics is sequential left-to-right
    application. Equality compares width, gates, and roles (including
    output labels).
    """

    width: int
    roles: tuple[LineRole, ...]
    gates: tuple[Gate, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", tuple(self.roles))
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.width < 1:
            raise StructuralError(f"width must be >= 1, got {self.width}")
        if len(self.roles) != self.width:
            raise StructuralError(
                f"{len(self.roles)} roles for width {self.width}"
            )
        self._check_gates(self.gates)

    def _check_gates(self, gates: tuple[Gate, ...]) -> None:
        for gate in gates:
            if gate.max_line >= self.width:
                raise StructuralError(
                    f"gate {gate.kind.value} uses line {gate.max_line}, "
                    f"width is {self.width}"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def append(self, gate: Gate) -> Circuit:
        """Return a new circuit with `gate` appended at the end."""
        return self.extend((gate,))

    def extend(self, gates: Iterable[Gate]) -> Circuit:
        """Return a new circuit with `gates` appended, validating only those gates."""
        added = tuple(gates)
        self._check_gates(added)
        extended = copy.copy(self)
        object.__setattr__(extended, "gates", self.gates + added)
        return extended

    def inverse(self) -> Circuit:
        """The reversed gate list.

        Every NCT gate is its own inverse, so running a circuit and then
        its inverse is the identity on all basis states.
        """
        return replace(self, gates=tuple(reversed(self.gates)))

    def count(self, kind: GateKind) -> int:
        return sum(1 for g in self.gates if g.kind is kind)


def new_circuit(width: int, roles: Iterable[LineRole]) -> Circuit:
    """An empty circuit over `width` lines with the given roles."""
    return Circuit(width, tuple(roles))
