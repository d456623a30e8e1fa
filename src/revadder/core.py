"""Circuit intermediate representation for the NCT gate library.

A circuit is an ordered list of NOT/CNOT/Toffoli gates acting on `width`
lines, plus per-line role metadata (named input or constant-0 ancilla,
optional output label). Lines are indexed 0-based, top to bottom. A
circuit is made one way, `Circuit(width, roles, gates)`, which checks every
gate. Circuits are immutable, so they are safe to share.
"""
from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Optional, Sequence

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
        cls._setters = tuple(getattr(cls, field).__set__ for field in cls.__slots__)

    @classmethod
    def _many(cls, *columns: Sequence) -> list:
        """One instance per position of the columns, one column per field in
        slot order, made without calling `__init__`.

        Nothing is checked here. Only library code that has checked every
        field of every instance, as `__init__` would, may call this.
        """
        instances = list(map(object.__new__, repeat(cls, len(columns[0]))))
        for setter, column in zip(cls._setters, columns):
            deque(map(setter, instances, column), 0)  # runs the setters, keeps nothing
        return instances

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._fields(self) == self._fields(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    # imported where raised: nothing else here needs `dataclasses`, and a
    # CLI process that never assigns to a value never loads it
    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

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
        controls = tuple(sorted(controls))
        n = len(controls)
        if n > 2:
            raise StructuralError(f"a gate takes at most 2 controls, got {n}")
        # sorted controls: the first is the least, equal ones are neighbours
        if target < 0 or n and controls[0] < 0:
            raise StructuralError(f"negative line index in {controls + (target,)}")
        if target in controls or n == 2 and controls[0] == controls[1]:
            raise StructuralError(f"duplicate line index in {controls + (target,)}")
        set_controls, set_target = self._setters
        set_controls(self, controls)
        set_target(self, target)

    @property
    def kind(self) -> str:
        """The netlist keyword: "not", "cnot" or "toffoli"."""
        return GATE_KEYWORDS[len(self.controls)]


def cnot(control: int, target: int) -> Gate:
    return Gate((control,), target)


def toffoli(control_a: int, control_b: int, target: int) -> Gate:
    return Gate((control_a, control_b), target)


#: netlist statement templates, indexed by control count: "cnot %s %s"
STATEMENT_TEMPLATES = tuple(
    keyword + " %s" * (n + 1) for n, keyword in enumerate(GATE_KEYWORDS)
)


def describe_gate(gate: Gate) -> str:
    """Netlist statement of a gate: kind then lines, controls before target."""
    return STATEMENT_TEMPLATES[len(gate.controls)] % (*gate.controls, gate.target)


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
        set_name, set_output = self._setters
        set_name(self, check_label(name))
        set_output(self, check_label(output))

    @property
    def is_ancilla(self) -> bool:
        return self.name is None


def named(name: str, output: Optional[str] = None) -> LineRole:
    return LineRole(name, output)


def ancilla(output: Optional[str] = None) -> LineRole:
    return LineRole(None, output)


class Circuit(_Frozen):
    """An ordered NCT gate list over `width` lines.

    The constructor is the one public way to make a circuit. It checks
    that there is one role per line and that every gate stays within
    `width`; a circuit with other gates is `Circuit(c.width, c.roles, gates)`.
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
        for gate in gates:
            controls = gate.controls
            if gate.target >= width or controls and controls[-1] >= width:
                line = max((gate.target, *controls))
                raise StructuralError(
                    f"gate {gate.kind} uses line {line}, width is {width}"
                )
        for setter, value in zip(self._setters, (width, roles, gates)):
            setter(self, value)
