import copy
import dataclasses
import pickle
import time

import pytest
from hypothesis import example, given, strategies as st

from revadder import (
    BatchState,
    Circuit,
    Gate,
    StructuralError,
    analyze,
    ancilla,
    build_ppkn,
    build_rca,
    canonical_layout,
    cnot,
    named,
    new_circuit,
    parse_netlist,
    permutation_of,
    simulate,
    toffoli,
    verify_full_adder,
)
from revadder.core import describe_gate

from helpers import (
    LABEL_RE,
    bitstates_st,
    circuits_st,
    gates_st,
    identifiers,
    not_gate,
    rca_reference,
)

FOUR_ROLES = (named("Cin"), named("A"), named("B"), ancilla())


def test_new_circuit_four_lines():
    c = new_circuit(4, FOUR_ROLES)
    assert c.width == 4
    assert c.gates == ()
    assert c.roles[3].is_ancilla
    assert not c.roles[0].is_ancilla


def test_new_circuit_single_line():
    c = new_circuit(1, (ancilla(),))
    assert c.width == 1


def test_zero_width_rejected():
    with pytest.raises(StructuralError):
        new_circuit(0, ())


def test_roles_length_mismatch_rejected():
    with pytest.raises(StructuralError):
        new_circuit(2, (named("x"),))


def test_append_returns_new_circuit():
    base = new_circuit(4, FOUR_ROLES)
    grown = base.extend((cnot(2, 0),))
    assert base.gates == ()
    assert len(grown.gates) == 1
    assert grown.gates[0] == Gate((2,), 0)


def test_extend_preserves_order():
    gates = (cnot(0, 1), not_gate(0), toffoli(0, 1, 2))
    c = new_circuit(3, (named("a"), named("b"), ancilla())).extend(gates)
    assert c.gates == gates


def test_appending_one_gate_at_a_time_is_linear():
    built, _ = build_rca(1024)
    started = time.perf_counter()
    c = new_circuit(built.width, built.roles)
    for gate in built.gates:
        c = c.extend((gate,))
    elapsed = time.perf_counter() - started
    assert c == built and len(c.gates) == 6 * 1024
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_gate_arity_enforced():
    # NCT gates have at most two controls, in whatever order they arrive
    for controls in ((0, 1, 2), (2, 1, 0), [0, 1, 2], (0, 1, 2, 3)):
        with pytest.raises(StructuralError, match="at most 2 controls"):
            Gate(controls, 5)


def test_gate_lines_distinct():
    with pytest.raises(StructuralError):
        cnot(1, 1)
    with pytest.raises(StructuralError):
        toffoli(0, 0, 2)
    with pytest.raises(StructuralError):
        toffoli(0, 2, 2)


def test_gate_lines_nonnegative():
    with pytest.raises(StructuralError):
        Gate((), -1)
    with pytest.raises(StructuralError):
        Gate((-2,), 0)


BAD_BATCH = (cnot(1, 0), toffoli(0, 1, 2), not_gate(1))


@pytest.mark.parametrize(
    "add",
    [
        lambda c: c.extend((toffoli(0, 1, 2),)),
        lambda c: c.extend(list(BAD_BATCH)),
        lambda c: c.extend(gate for gate in BAD_BATCH),
    ],
    ids=["append", "extend-mid-batch", "extend-generator"],
)
def test_append_rejects_out_of_range_gate(add):
    c = new_circuit(2, (named("a"), named("b"))).extend((cnot(0, 1),))
    with pytest.raises(StructuralError):
        add(c)
    assert c.width == 2 and c.gates == (cnot(0, 1),)


@pytest.mark.parametrize(
    "gate, kind", [(not_gate(2), "not"), (cnot(0, 2), "cnot"), (toffoli(2, 0, 1), "toffoli")]
)
def test_out_of_range_gate_is_named_by_its_kind(gate, kind):
    roles = (named("a"), named("b"))
    message = f"^gate {kind} uses line 2, width is 2$"
    with pytest.raises(StructuralError, match=message):
        Circuit(2, roles, (gate,))
    with pytest.raises(StructuralError, match=message):
        new_circuit(2, roles).extend((gate,))


def test_toffoli_control_order_normalized():
    assert toffoli(1, 0, 3) == toffoli(0, 1, 3)
    assert hash(toffoli(1, 0, 3)) == hash(toffoli(0, 1, 3))
    assert toffoli(1, 0, 3).controls == (0, 1)


def test_gate_normalizes_controls_from_any_sequence():
    unsorted = Gate((3, 1), 0)
    listed = Gate([1, 3], 0)
    expected = "Gate(controls=(1, 3), target=0)"
    assert repr(unsorted) == repr(listed) == expected
    assert unsorted == listed
    assert hash(unsorted) == hash(listed)
    assert type(listed.controls) is tuple


def test_gate_kind_control_counts_survive_copies():
    # a gate's kind is its control count, named by its netlist keyword
    expected = {(): "not", (2,): "cnot", (2, 0): "toffoli"}
    for controls, kind in expected.items():
        gate = Gate(controls, 1)
        assert gate.kind == kind and describe_gate(gate).split()[0] == kind
        for again in (pickle.loads(pickle.dumps(gate)), copy.deepcopy(gate)):
            assert again.kind == kind
    with pytest.raises(AttributeError):
        cnot(0, 1).kind = "not"


def test_role_labels_validated():
    with pytest.raises(StructuralError, match=r"^not a valid line label: '9bad'$"):
        named("9bad")
    with pytest.raises(StructuralError, match=r"^not a valid line label: '9bad'$"):
        named("a", "9bad")
    with pytest.raises(StructuralError):
        named("a b")
    with pytest.raises(StructuralError):
        ancilla("has-dash")
    # Leading underscore and digits after the first character are fine.
    named("_ok2")


@given(st.one_of(st.text(), identifiers))
@example("")
@example("\u00e9")
@example("\u0663")
@example("A\n")
@example("if")
def test_label_check_matches_reference_regex(label):
    if LABEL_RE.match(label):
        assert named(label).name == label
    else:
        with pytest.raises(StructuralError):
            named(label)


def test_label_check_matches_reference_regex_on_short_ascii():
    short = [chr(a) for a in range(128)]
    short += [x + y for x in short for y in short]
    rejected = []
    for label in short:
        try:
            named(label)
        except StructuralError:
            rejected.append(label)
    assert rejected == [label for label in short if not LABEL_RE.match(label)]


def test_with_output():
    role = named("A", "Sum")
    assert role.output == "Sum"
    assert role.name == "A"


def test_role_repr():
    assert repr(named("A", "Sum")) == "LineRole(name='A', output='Sum')"
    assert repr(ancilla()) == "LineRole(name=None, output=None)"


def test_layout_and_report_repr():
    assert repr(canonical_layout(2)) == (
        "AdderLayout(n_bits=2, cin_line=0, a_lines=(1, 4), b_lines=(2, 5), "
        "ancilla_lines=(3, 6))"
    )
    circuit, layout = build_ppkn()
    broken = Circuit(circuit.width, circuit.roles, circuit.gates[:-1])
    assert repr(verify_full_adder(broken, layout)) == (
        "VerificationReport(cases=8, mismatches=("
        "Mismatch(a=1, b=0, cin=0, quantity='sum', expected=1, actual=0), "
        "Mismatch(a=1, b=0, cin=1, quantity='sum', expected=0, actual=1), "
        "Mismatch(a=1, b=1, cin=0, quantity='sum', expected=0, actual=1), "
        "Mismatch(a=1, b=1, cin=1, quantity='sum', expected=1, actual=0)), "
        "bijective=True)"
    )
    assert repr(analyze(circuit)) == (
        "MetricsReport(gate_count=6, not_count=0, cnot_count=5, toffoli_count=1, "
        "quantum_cost=10, logical_depth=4, "
        "schedule=Schedule(timesteps=((0, 1), (2,), (3, 4), (5,))))"
    )


#: one value of each slot-based class, with its fields in declaration order
VALUES = [
    (toffoli(3, 1, 0), ((1, 3), 0)),
    (not_gate(2), ((), 2)),
    (named("A", "Sum"), ("A", "Sum")),
    (ancilla(), (None, None)),
    (canonical_layout(2), (2, 0, (1, 4), (2, 5), (3, 6))),
    (BatchState((1, 2), 2), ((1, 2), 2)),
    (
        Circuit(3, (named("a"), ancilla("b"), named("c")), (cnot(0, 1), not_gate(2))),
        (3, (named("a"), ancilla("b"), named("c")), (cnot(0, 1), not_gate(2))),
    ),
    # made in bulk, without their validating constructors
    (parse_netlist("lines 4\ntoffoli 3 1 0\n")[0].gates[0], ((1, 3), 0)),
    (build_rca(3)[0], (10, rca_reference(3).roles, rca_reference(3).gates)),
]
VALUE_IDS = [
    "toffoli", "not", "named", "ancilla", "layout", "batch", "circuit", "parsed-gate", "rca",
]


@pytest.mark.parametrize("value, fields", VALUES, ids=VALUE_IDS)
def test_values_are_frozen(value, fields):
    for name in type(value).__slots__:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1
    assert tuple(getattr(value, name) for name in type(value).__slots__) == fields


@pytest.mark.parametrize("value, fields", VALUES, ids=VALUE_IDS)
def test_values_copy_and_pickle_through_the_constructor(value, fields):
    assert value.__reduce__() == (type(value), fields)
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for again in copies:
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value)


@pytest.mark.parametrize("value, fields", VALUES, ids=VALUE_IDS)
def test_values_hash_and_compare_by_fields_and_class(value, fields):
    assert hash(value) == hash(fields)
    assert value != fields and fields != value
    assert value != object()
    assert value == type(value)(*fields)
    assert value == type(value)(**dict(zip(type(value).__slots__, fields)))


def test_count_by_kind():
    c = new_circuit(3, (named("a"), named("b"), ancilla()))
    c = c.extend((cnot(0, 1), cnot(1, 2), toffoli(0, 1, 2), not_gate(0)))
    report = analyze(c)
    assert (report.not_count, report.cnot_count, report.toffoli_count) == (1, 2, 1)


def test_circuit_is_frozen():
    c = new_circuit(2, (named("a"), named("b")))
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.width = 3


@given(circuits_st(max_width=6, max_gates=20))
def test_inverse_undoes_circuit_exhaustively(c):
    # every NCT gate is its own inverse, so the reversed gate list undoes c
    table = permutation_of(c.extend(reversed(c.gates)))
    assert table.entries == tuple(range(1 << c.width))


@given(st.data())
def test_self_inverse_gates(data):
    width = data.draw(st.integers(1, 8))
    gate = data.draw(gates_st(width))
    state = data.draw(bitstates_st(width))
    c = new_circuit(width, tuple(named(f"q{i}") for i in range(width)))
    twice = c.extend((gate, gate))
    assert simulate(twice, state) == state
