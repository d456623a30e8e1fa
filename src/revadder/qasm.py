"""Export to OPENQASM 3 style text. One register, x/cx/ccx gates only."""
from __future__ import annotations

from .core import Circuit

#: gate names, indexed by control count
_QASM_NAMES = ("x", "cx", "ccx")


def export_qasm(circuit: Circuit) -> str:
    """Deterministic QASM text: header, one width-w register, program order."""
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"qubit[{circuit.width}] q;",
    ]
    for gate in circuit.gates:
        controls = gate.controls
        args = "], q[".join(map(str, controls + (gate.target,)))
        lines.append(f"{_QASM_NAMES[len(controls)]} q[{args}];")
    return "\n".join(lines) + "\n"
