"""Export to OPENQASM 3 style text. One register, x/cx/ccx gates only."""
from __future__ import annotations

from .core import Circuit

#: gate statements, indexed by control count
_QASM_STATEMENTS = ("x q[%s];", "cx q[%s], q[%s];", "ccx q[%s], q[%s], q[%s];")


def export_qasm(circuit: Circuit) -> str:
    """Deterministic QASM text: header, one width-w register, program order."""
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"qubit[{circuit.width}] q;",
    ]
    lines += [
        _QASM_STATEMENTS[len(c := gate.controls)] % (*c, gate.target)
        for gate in circuit.gates
    ]
    return "\n".join(lines) + "\n"
