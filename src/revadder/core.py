"""Circuit intermediate representation for the NCT gate library.

A circuit is an ordered list of NOT/CNOT/Toffoli gates acting on `width`
lines, plus per-line role metadata (named input or constant-0 ancilla,
optional output label). Lines are indexed 0-based, top to bottom. Circuits
are immutable: builders return new values, so they are safe to share.
"""
from __future__ import annotations

import copy
from dataclasses import FrozenInstanceError, dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import Iterable, Optional

#: The widest circuit a netlist may declare or `build rca` may emit. Both
#: refuse more before allocating anything per line.
MAX_LINES = 1 << 16


class CircuitError(Exception):
    """Base class for everything this package raises on bad input."""


class StructuralError(CircuitError):
    """Malformed gate or circuit: bad indices, widths, role lists."""


class CapacityError(CircuitError):
    """An exhaustive operation was requested beyond its configured limit."""


class GateKind(Enum):
    """An NCT gate kind; its value is the netlist keyword.

    `n_controls` is a plain member attribute, so reading it costs no
    lookup keyed by the member.
    """

    n_controls: int

    NOT = "not", 0
    CNOT = "cnot", 1
    TOFFOLI = "toffoli", 2

    # The value stays the keyword alone, which only __new__ can arrange.
    def __new__(cls, value: str, n_controls: int) -> GateKind:
        member = object.__new__(cls)
        member._value_ = value
        member.n_controls = n_controls
        return member


class _Frozen:
    """A `__slots__` value that compares, hashes and prints like a frozen
    dataclass; pickle and copy rebuild it through its validating constructor."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)  # two or more fields: a tuple

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._fields(self) == self._fields(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields(self)


class Gate(_Frozen):
    """One NCT primitive: flip `target` iff every control line is 1.

    Controls are stored sorted, so gates that differ only in control order
    compare (and hash) equal. All line indices within a gate must be
    pairwise distinct.
    """

    __slots__ = ("kind", "controls", "target")
    kind: GateKind
    controls: tuple[int, ...]
    target: int

    def __init__(self, kind: GateKind, controls: tuple[int, ...], target: int) -> None:
        # Only a pair can be out of order: other lengths are sorted or
        # rejected below.
        if type(controls) is not tuple or len(controls) > 1 and controls[0] > controls[1]:
            controls = tuple(sorted(controls))
        n = len(controls)
        if n != kind.n_controls:
            raise StructuralError(
                f"{kind.value} takes {kind.n_controls} controls, got {n}"
            )
        # sorted controls: the first is the least, equal ones are neighbours
        if target < 0 or n and controls[0] < 0:
            raise StructuralError(f"negative line index in {controls + (target,)}")
        if target in controls or n == 2 and controls[0] == controls[1]:
            raise StructuralError(f"duplicate line index in {controls + (target,)}")
        _set_kind(self, kind)
        _set_controls(self, controls)
        _set_target(self, target)

    @property
    def support(self) -> frozenset[int]:
        """All lines the gate touches: controls plus target."""
        return frozenset(self.controls) | {self.target}

    @property
    def max_line(self) -> int:
        """The largest line the gate touches: its target or its last control."""
        controls = self.controls
        return max(controls[-1], self.target) if controls else self.target


_set_kind, _set_controls, _set_target = (getattr(Gate, f).__set__ for f in Gate.__slots__)


def not_gate(target: int) -> Gate:
    return Gate(GateKind.NOT, (), target)


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control,), target)


def toffoli(control_a: int, control_b: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (control_a, control_b), target)


#: netlist keywords, indexed by control count
_KEYWORDS = tuple(kind.value for kind in sorted(GateKind, key=lambda k: k.n_controls))


def describe_gate(gate: Gate) -> str:
    """Netlist statement of a gate: kind then lines, controls before target."""
    controls = gate.controls
    lines = " ".join(map(str, controls + (gate.target,)))
    return f"{_KEYWORDS[len(controls)]} {lines}"


def check_label(label: Optional[str]) -> Optional[str]:
    """`label` itself if it is None or a bare ASCII identifier; else raise."""
    if label is not None and not (label.isascii() and label.isidentifier()):
        raise StructuralError(f"not a valid line label: {label!r}")
    return label


class LineRole(_Frozen):
    """Role of one circuit line.

    `name is None` marks a constant-0 ancilla; otherwise the line is a
    named primary input. `output` is an optional label for the value the
    line carries at the end of the circuit. Names must be bare ASCII
    identifiers so the netlist text format can tokenize them.
    """

    __slots__ = ("name", "output")
    name: Optional[str]
    output: Optional[str]

    def __init__(self, name: Optional[str], output: Optional[str] = None) -> None:
        _set_name(self, check_label(name))
        _set_output(self, check_label(output))

    @property
    def is_ancilla(self) -> bool:
        return self.name is None


_set_name, _set_output = (getattr(LineRole, f).__set__ for f in LineRole.__slots__)


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
        width = self.width
        for gate in gates:
            controls = gate.controls
            if gate.target >= width or controls and controls[-1] >= width:
                raise StructuralError(
                    f"gate {gate.kind.value} uses line {gate.max_line}, "
                    f"width is {width}"
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
