"""Reversible NCT circuits: input-preserving adders, metrics, verification."""

# importing the `simulate` submodule binds the module to the package's
# `simulate` attribute, so the function is bound after it, here
from .simulate import simulate

#: each public name under the module that defines it; a name loads from
#: its module on first use, so a process imports only what it reads
_EXPORTS = {
    "core": ("CapacityError", "Circuit", "CircuitError", "Gate", "StructuralError",
             "ancilla", "cnot", "named", "toffoli"),
    "simulate": ("EXHAUSTIVE_LINE_LIMIT", "BatchState", "PermutationTable",
                 "all_basis_states", "is_bijection", "permutation_of", "simulate",
                 "simulate_batch"),
    "adders": ("AdderLayout", "Mismatch", "VerificationReport", "build_hng_reference",
               "build_ppkn", "build_rca", "canonical_layout", "oracle_add", "ppkn_gates",
               "render_verification_text", "verify_full_adder", "verify_rca"),
    "netlist": ("ParseError", "parse_netlist", "serialize_netlist"),
    "metrics": ("DEFAULT_LITERATURE", "HNG_PUBLISHED", "TSG_PUBLISHED", "analyze",
                "compare_report", "logical_depth", "render_comparison_csv",
                "render_comparison_text", "render_metrics_csv", "render_metrics_text"),
    "qasm": ("export_qasm",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # `revadder.netlist` before anything imported it
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys() | _EXPORTS.keys())


__version__ = "0.1.0"

__all__ = sorted(_HOME)
