"""Export to OPENQASM 3 style text. One register, x/cx/ccx gates only."""
from __future__ import annotations

from .core import Circuit

#: gate statements, indexed by control count
_QASM_STATEMENTS = ("x q[{}];", "cx q[{}], q[{}];", "ccx q[{}], q[{}], q[{}];")


def export_qasm(circuit: Circuit) -> str:
    """Deterministic QASM text: header, one width-w register, program order."""
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"qubit[{circuit.width}] q;",
    ]
    for gate in circuit.gates:
        lines.append(_QASM_STATEMENTS[len(gate.controls)].format(*gate.controls, gate.target))
    return "\n".join(lines) + "\n"
