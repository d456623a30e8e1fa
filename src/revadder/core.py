"""Circuit intermediate representation for the NCT gate library.

A circuit is an ordered list of NOT/CNOT/Toffoli gates acting on `width`
lines, plus per-line role metadata (named input or constant-0 ancilla,
optional output label). Lines are indexed 0-based, top to bottom. Circuits
are immutable: builders return new values, so they are safe to share.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError
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
    """A request beyond a fixed capacity cap: lines, vectors or lane bits."""


#: netlist keyword of a gate, indexed by its control count
GATE_KEYWORDS = ("not", "cnot", "toffoli")


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

    Its kind is its control count: 0, 1 or 2 for NOT, CNOT or Toffoli.
    Controls are stored sorted, so gates that differ only in control order
    compare (and hash) equal. All line indices within a gate must be
    pairwise distinct.
    """

    __slots__ = ("controls", "target")
    controls: tuple[int, ...]
    target: int

    def __init__(self, controls: tuple[int, ...], target: int) -> None:
        # Only a pair can be out of order: other lengths are sorted or
        # rejected below.
        if type(controls) is not tuple or len(controls) > 1 and controls[0] > controls[1]:
            controls = tuple(sorted(controls))
        n = len(controls)
        if n > 2:
            raise StructuralError(f"a gate takes at most 2 controls, got {n}")
        # sorted controls: the first is the least, equal ones are neighbours
        if target < 0 or n and controls[0] < 0:
            raise StructuralError(f"negative line index in {controls + (target,)}")
        if target in controls or n == 2 and controls[0] == controls[1]:
            raise StructuralError(f"duplicate line index in {controls + (target,)}")
        _set_controls(self, controls)
        _set_target(self, target)

    @property
    def kind(self) -> str:
        """The netlist keyword: "not", "cnot" or "toffoli"."""
        return GATE_KEYWORDS[len(self.controls)]

    @property
    def max_line(self) -> int:
        """The largest line the gate touches: its target or its last control."""
        controls = self.controls
        return max(controls[-1], self.target) if controls else self.target


_set_controls, _set_target = (getattr(Gate, f).__set__ for f in Gate.__slots__)


def cnot(control: int, target: int) -> Gate:
    return Gate((control,), target)


def toffoli(control_a: int, control_b: int, target: int) -> Gate:
    return Gate((control_a, control_b), target)


#: netlist statement formats, indexed by control count
_STATEMENTS = tuple(
    keyword + " {}" * (n + 1) for n, keyword in enumerate(GATE_KEYWORDS)
)


def describe_gate(gate: Gate) -> str:
    """Netlist statement of a gate: kind then lines, controls before target."""
    return _STATEMENTS[len(gate.controls)].format(*gate.controls, gate.target)


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


def _check_gates(gates: tuple[Gate, ...], width: int) -> None:
    for gate in gates:
        controls = gate.controls
        if gate.target >= width or controls and controls[-1] >= width:
            raise StructuralError(
                f"gate {gate.kind} uses line {gate.max_line}, width is {width}"
            )


class Circuit(_Frozen):
    """An ordered NCT gate list over `width` lines.

    Gate order is program order; semantics is sequential left-to-right
    application. Equality compares width, roles (including output labels)
    and gates.
    """

    __slots__ = ("width", "roles", "gates")
    width: int
    roles: tuple[LineRole, ...]
    gates: tuple[Gate, ...]

    def __init__(
        self, width: int, roles: Iterable[LineRole], gates: Iterable[Gate] = ()
    ) -> None:
        roles, gates = tuple(roles), tuple(gates)
        if width < 1:
            raise StructuralError(f"width must be >= 1, got {width}")
        if len(roles) != width:
            raise StructuralError(f"{len(roles)} roles for width {width}")
        _check_gates(gates, width)
        _set_width(self, width)
        _set_roles(self, roles)
        _set_gates(self, gates)

    def extend(self, gates: Iterable[Gate]) -> Circuit:
        """Return a new circuit with `gates` appended, validating only those gates."""
        added = tuple(gates)
        _check_gates(added, self.width)
        extended = object.__new__(Circuit)
        _set_width(extended, self.width)
        _set_roles(extended, self.roles)
        _set_gates(extended, self.gates + added)
        return extended


_set_width, _set_roles, _set_gates = (getattr(Circuit, f).__set__ for f in Circuit.__slots__)


def new_circuit(width: int, roles: Iterable[LineRole]) -> Circuit:
    """An empty circuit over `width` lines with the given roles."""
    return Circuit(width, roles)
