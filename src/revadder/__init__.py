"""Reversible NCT circuits: input-preserving adders, metrics, verification."""

from .core import (
    CapacityError,
    Circuit,
    CircuitError,
    Gate,
    StructuralError,
    ancilla,
    cnot,
    named,
    new_circuit,
    toffoli,
)
from .simulate import (
    EXHAUSTIVE_LINE_LIMIT,
    BatchState,
    PermutationTable,
    all_basis_states,
    is_bijection,
    permutation_of,
    simulate,
    simulate_batch,
)
from .adders import (
    AdderLayout,
    Mismatch,
    VerificationReport,
    build_hng_reference,
    build_ppkn,
    build_rca,
    canonical_layout,
    oracle_add,
    ppkn_gates,
    render_verification_text,
    verify_full_adder,
    verify_rca,
)
from .netlist import ParseError, parse_netlist, serialize_netlist

#: names loaded from their module on first use, so that a command that
#: needs neither module does not import them
_LAZY = {
    "DEFAULT_LITERATURE": "metrics",
    "HNG_PUBLISHED": "metrics",
    "TSG_PUBLISHED": "metrics",
    "analyze": "metrics",
    "compare_report": "metrics",
    "logical_depth": "metrics",
    "render_comparison_csv": "metrics",
    "render_comparison_text": "metrics",
    "render_metrics_csv": "metrics",
    "render_metrics_text": "metrics",
    "export_qasm": "qasm",
}


def __getattr__(name: str):
    from importlib import import_module

    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__version__ = "0.1.0"

__all__ = [
    "AdderLayout",
    "BatchState",
    "CapacityError",
    "Circuit",
    "CircuitError",
    "DEFAULT_LITERATURE",
    "EXHAUSTIVE_LINE_LIMIT",
    "Gate",
    "HNG_PUBLISHED",
    "Mismatch",
    "ParseError",
    "PermutationTable",
    "StructuralError",
    "TSG_PUBLISHED",
    "VerificationReport",
    "all_basis_states",
    "analyze",
    "ancilla",
    "build_hng_reference",
    "build_ppkn",
    "build_rca",
    "canonical_layout",
    "cnot",
    "compare_report",
    "export_qasm",
    "is_bijection",
    "logical_depth",
    "named",
    "new_circuit",
    "oracle_add",
    "parse_netlist",
    "permutation_of",
    "ppkn_gates",
    "render_comparison_csv",
    "render_comparison_text",
    "render_metrics_csv",
    "render_metrics_text",
    "render_verification_text",
    "serialize_netlist",
    "simulate",
    "simulate_batch",
    "toffoli",
    "verify_full_adder",
    "verify_rca",
]
