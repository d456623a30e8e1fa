"""Gate-count, quantum-cost, and logical-depth metrics.

The depth model: gates sharing only a control line may run in the same
time step (fan-out from a shared control is free), but any overlap that
involves a target forces sequencing. Two gates conflict when either
one's target lies on a line the other touches (a control or its
target). The scheduler is ASAP list scheduling over that conflict
relation, read from a per-line frontier in time linear in the gate
count; the returned schedule is the witness for the reported depth.
"""
from __future__ import annotations

import csv
import io
from typing import NamedTuple, Optional, Sequence

from .adders import build_hng_reference, build_ppkn
from .core import Circuit, describe_gate


#: The paper's quantum cost of each gate kind.
NOT_COST = CNOT_COST = 1
TOFFOLI_COST = 5


class Schedule(NamedTuple):
    """Timestep assignment witnessing a logical depth.

    `timesteps[t]` lists (ascending) the indices into the circuit's gate
    list that execute in step t+1. Every gate appears exactly once; gates
    within one step never conflict; conflicting gates keep program order
    across steps.
    """

    timesteps: tuple[tuple[int, ...], ...]


def logical_depth(circuit: Circuit) -> tuple[int, Schedule]:
    """ASAP longest-path depth with its witness schedule.

    Each gate lands one step after the deepest earlier gate it conflicts
    with (step 1 when unconstrained). Executing the schedule step by
    step, in any order within a step, reproduces sequential simulation.

    Per line l, `targeted[l]` is the deepest step of a gate targeting l
    and `touched[l]` that of any gate that touches l. The deepest
    earlier conflict of a gate is the largest of touched[its target] and
    targeted[its lines], so the cost is linear in the gate count.
    """
    targeted = [0] * circuit.width
    touched = [0] * circuit.width
    steps: list[list[int]] = []
    for i, gate in enumerate(circuit.gates):
        target, controls = gate.target, gate.controls
        # targeted[target] <= touched[target], so the controls suffice
        level = touched[target]
        for c in controls:
            if targeted[c] > level:
                level = targeted[c]
        level += 1
        targeted[target] = touched[target] = level
        for c in controls:
            if touched[c] < level:
                touched[c] = level
        if level > len(steps):
            steps.append([])
        steps[level - 1].append(i)
    return len(steps), Schedule(tuple(tuple(step) for step in steps))


class MetricsReport(NamedTuple):
    """All computed figures for one circuit, plus the depth witness."""

    gate_count: int
    not_count: int
    cnot_count: int
    toffoli_count: int
    quantum_cost: int
    logical_depth: int
    schedule: Schedule


def analyze(circuit: Circuit) -> MetricsReport:
    depth, schedule = logical_depth(circuit)
    counts = [0, 0, 0]  # NOT, CNOT, Toffoli: indexed by control count
    for g in circuit.gates:
        counts[len(g.controls)] += 1
    nots, cnots, toffolis = counts
    return MetricsReport(
        gate_count=len(circuit.gates),
        not_count=nots,
        cnot_count=cnots,
        toffoli_count=toffolis,
        quantum_cost=nots * NOT_COST + cnots * CNOT_COST + toffolis * TOFFOLI_COST,
        logical_depth=depth,
        schedule=schedule,
    )


#: Each figure once, in the column order of every rendering: its report
#: field, its table column and its label in the metrics text.
_FIGURES = (
    ("gate_count", "gates", "gates"),
    ("toffoli_count", "toffoli", "  toffoli"),
    ("cnot_count", "cnot", "  cnot"),
    ("not_count", "not", "  not"),
    ("quantum_cost", "qc", "quantum cost"),
    ("logical_depth", "depth", "logical depth"),
)


class ComparisonRow(NamedTuple):
    """One gate's figures, fields in column order. Figures the source does
    not give stay None."""

    name: str
    provenance: str  # "computed" | "literature"
    gate_count: Optional[int] = None
    toffoli_count: Optional[int] = None
    cnot_count: Optional[int] = None
    not_count: Optional[int] = None
    quantum_cost: Optional[int] = None
    logical_depth: Optional[int] = None


#: Published figures for the standard input-preserving full adders.
HNG_PUBLISHED = ComparisonRow(
    "HNG", "literature", gate_count=5, toffoli_count=2, quantum_cost=12, logical_depth=5
)
TSG_PUBLISHED = ComparisonRow(
    "TSG", "literature", gate_count=6, toffoli_count=2, quantum_cost=14, logical_depth=6
)
DEFAULT_LITERATURE = (HNG_PUBLISHED, TSG_PUBLISHED)


class Discrepancy(NamedTuple):
    """A computed figure that disagrees with its published counterpart."""

    name: str
    baseline: str
    metric: str
    computed: int
    published: int

    def describe(self) -> str:
        return (
            f"{self.name}: computed {self.metric} {self.computed} "
            f"differs from published {self.baseline} value {self.published}"
        )


class QcReduction(NamedTuple):
    """Quantum-cost reduction of one row over a published baseline."""

    name: str
    baseline: str
    qc: int
    baseline_qc: int

    @property
    def ratio(self) -> float:
        return (self.baseline_qc - self.qc) / self.baseline_qc

    def describe(self) -> str:
        pct = 100.0 * self.ratio
        return (
            f"quantum-cost reduction, {self.name} {self.qc} vs published "
            f"{self.baseline} {self.baseline_qc}: "
            f"({self.baseline_qc} - {self.qc}) / {self.baseline_qc} "
            f"= {pct:.1f}% (rounds to {round(pct):d}%)"
        )


class ComparisonTable(NamedTuple):
    """The paper's rows, the HNG reference's disagreements with the
    published HNG, and PPKN's quantum-cost reduction over it."""

    rows: tuple[ComparisonRow, ...]
    discrepancies: tuple[Discrepancy, ...]
    qc_reduction: QcReduction


def compare_report() -> ComparisonTable:
    """The paper's table: PPKN and the HNG reference, computed, then the
    published HNG and TSG rows.

    The HNG reference is checked against the published HNG on every figure
    that row gives; disagreements are recorded, never reconciled. The
    reduction is PPKN's quantum cost over the published HNG's.
    """
    ppkn, hng = (
        ComparisonRow(name, "computed", *(getattr(report, field) for field, _, _ in _FIGURES))
        for name, report in (
            ("PPKN", analyze(build_ppkn()[0])),
            ("HNG-reference", analyze(build_hng_reference()[0])),
        )
    )
    discrepancies = tuple(
        Discrepancy(hng.name, HNG_PUBLISHED.name, field.replace("_", " "), have, want)
        for field, _, _ in _FIGURES
        if (want := getattr(HNG_PUBLISHED, field)) is not None
        and (have := getattr(hng, field)) != want
    )
    reduction = QcReduction(
        ppkn.name, HNG_PUBLISHED.name, ppkn.quantum_cost, HNG_PUBLISHED.quantum_cost
    )
    return ComparisonTable((ppkn, hng, *DEFAULT_LITERATURE), discrepancies, reduction)


# ---------------------------------------------------------------- rendering

COMPARISON_COLUMNS = ("name", "provenance", *(column for _, column, _ in _FIGURES))


def _csv(rows: Sequence[Sequence[object]]) -> str:
    """CSV text, one record per line; None is an empty cell."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def render_comparison_text(table: ComparisonTable) -> str:
    grid = [list(COMPARISON_COLUMNS)] + [
        ["-" if v is None else str(v) for v in row] for row in table.rows
    ]
    widths = [max(len(line[i]) for line in grid) for i in range(len(grid[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in grid
    ]
    if table.discrepancies:
        lines.append("")
        for flag in table.discrepancies:
            lines.append(f"discrepancy: {flag.describe()}")
    lines += ["", table.qc_reduction.describe()]
    return "\n".join(lines) + "\n"


def render_comparison_csv(table: ComparisonTable) -> str:
    return _csv([COMPARISON_COLUMNS, *table.rows])


def render_metrics_text(report: MetricsReport, circuit: Circuit) -> str:
    lines = [f"{label:<14}{getattr(report, field)}" for field, _, label in _FIGURES]
    lines.append("schedule:")
    for t, step in enumerate(report.schedule.timesteps, start=1):
        body = " | ".join(f"g{i} {describe_gate(circuit.gates[i])}" for i in step)
        lines.append(f"  step {t}: {body}")
    return "\n".join(lines) + "\n"


def render_metrics_csv(report: MetricsReport) -> str:
    schedule = "|".join(
        " ".join(str(i) for i in step) for step in report.schedule.timesteps
    )
    return _csv([
        COMPARISON_COLUMNS[2:] + ("schedule",),
        [getattr(report, field) for field, _, _ in _FIGURES] + [schedule],
    ])
