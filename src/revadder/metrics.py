"""Gate-count, quantum-cost, and logical-depth metrics.

The depth model: gates sharing only a control line may run in the same
time step (fan-out from a shared control is free), but any overlap that
involves a target forces sequencing. Two gates conflict when either
one's target lies in the other's support (controls plus target). The
scheduler is ASAP list scheduling over that conflict relation, read from
a per-line frontier in time linear in the gate count; the returned
schedule is the witness for the reported depth.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Circuit, Gate, GateKind


@dataclass(frozen=True)
class CostModel:
    """Per-gate cost weights. The stock model prices NOT=1, CNOT=1, Toffoli=5."""

    not_cost: int = 1
    cnot_cost: int = 1
    toffoli_cost: int = 5

    def cost(self, kind: GateKind) -> int:
        return {
            GateKind.NOT: self.not_cost,
            GateKind.CNOT: self.cnot_cost,
            GateKind.TOFFOLI: self.toffoli_cost,
        }[kind]


DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class Schedule:
    """Timestep assignment witnessing a logical depth.

    `timesteps[t]` lists (ascending) the indices into the circuit's gate
    list that execute in step t+1. Every gate appears exactly once; gates
    within one step never conflict; conflicting gates keep program order
    across steps.
    """

    timesteps: tuple[tuple[int, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.timesteps)


def logical_depth(circuit: Circuit) -> tuple[int, Schedule]:
    """ASAP longest-path depth with its witness schedule.

    Each gate lands one step after the deepest earlier gate it conflicts
    with (step 1 when unconstrained). Executing the schedule step by
    step, in any order within a step, reproduces sequential simulation.

    Per line l, `targeted[l]` is the deepest step of a gate targeting l
    and `touched[l]` that of a gate whose support holds l. The deepest
    earlier conflict of a gate is the largest of touched[its target] and
    targeted[its lines], so the cost is linear in the gate count.
    """
    targeted = [0] * circuit.width
    touched = [0] * circuit.width
    steps: list[list[int]] = []
    for i, gate in enumerate(circuit.gates):
        target = gate.target
        # targeted[target] <= touched[target], so the controls suffice
        level = 1 + max([touched[target]] + [targeted[c] for c in gate.controls])
        targeted[target] = touched[target] = level
        for c in gate.controls:
            touched[c] = max(touched[c], level)
        if level > len(steps):
            steps.append([])
        steps[level - 1].append(i)
    return len(steps), Schedule(tuple(tuple(step) for step in steps))


@dataclass(frozen=True)
class MetricsReport:
    """All computed figures for one circuit, plus the depth witness."""

    gate_count: int
    not_count: int
    cnot_count: int
    toffoli_count: int
    quantum_cost: int
    logical_depth: int
    schedule: Schedule


def quantum_cost(circuit: Circuit, model: CostModel = DEFAULT_COST_MODEL) -> int:
    """Sum of per-gate costs under the model."""
    return sum(model.cost(g.kind) for g in circuit.gates)


def analyze(circuit: Circuit, model: CostModel = DEFAULT_COST_MODEL) -> MetricsReport:
    depth, schedule = logical_depth(circuit)
    return MetricsReport(
        gate_count=len(circuit.gates),
        not_count=circuit.count(GateKind.NOT),
        cnot_count=circuit.count(GateKind.CNOT),
        toffoli_count=circuit.count(GateKind.TOFFOLI),
        quantum_cost=quantum_cost(circuit, model),
        logical_depth=depth,
        schedule=schedule,
    )


@dataclass(frozen=True)
class LiteratureRow:
    """A gate's published figures. Fields the source does not give stay None."""

    name: str
    gate_count: Optional[int] = None
    toffoli_count: Optional[int] = None
    quantum_cost: Optional[int] = None
    logical_depth: Optional[int] = None


#: Published figures for the standard input-preserving full adders.
HNG_PUBLISHED = LiteratureRow(
    "HNG", gate_count=5, toffoli_count=2, quantum_cost=12, logical_depth=5
)
TSG_PUBLISHED = LiteratureRow(
    "TSG", gate_count=6, toffoli_count=2, quantum_cost=14, logical_depth=6
)
DEFAULT_LITERATURE = (HNG_PUBLISHED, TSG_PUBLISHED)


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    provenance: str  # "computed" | "literature"
    gate_count: Optional[int]
    toffoli_count: Optional[int]
    cnot_count: Optional[int]
    not_count: Optional[int]
    quantum_cost: Optional[int]
    logical_depth: Optional[int]


@dataclass(frozen=True)
class Discrepancy:
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


@dataclass(frozen=True)
class QcReduction:
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


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    discrepancies: tuple[Discrepancy, ...]
    qc_reduction: Optional[QcReduction]


def _baseline_key(name: str) -> str:
    # "HNG-reference" pairs with the published "HNG" row
    return name.split("-", 1)[0]


_CHECKED_METRICS = (
    ("gate count", "gate_count"),
    ("toffoli count", "toffoli_count"),
    ("quantum cost", "quantum_cost"),
    ("logical depth", "logical_depth"),
)


def compare_report(
    computed: Sequence[tuple[str, MetricsReport]],
    literature: Sequence[LiteratureRow] = DEFAULT_LITERATURE,
) -> ComparisonTable:
    """One table mixing computed and published rows, mismatches flagged.

    A computed row named like "X" or "X-anything" is checked against the
    published row "X" wherever both carry a figure; disagreements are
    recorded, never reconciled. When a computed "PPKN" row and a
    published "HNG" row are both present, the table also carries the
    quantum-cost reduction ratio between them.
    """
    if not computed:
        raise ValueError("compare_report needs at least one computed report")
    rows: list[ComparisonRow] = []
    discrepancies: list[Discrepancy] = []
    published_by_name = {row.name: row for row in literature}
    for name, report in computed:
        rows.append(
            ComparisonRow(
                name=name,
                provenance="computed",
                gate_count=report.gate_count,
                toffoli_count=report.toffoli_count,
                cnot_count=report.cnot_count,
                not_count=report.not_count,
                quantum_cost=report.quantum_cost,
                logical_depth=report.logical_depth,
            )
        )
        baseline = published_by_name.get(_baseline_key(name))
        if baseline is None:
            continue
        for label, attr in _CHECKED_METRICS:
            have = getattr(report, attr)
            want = getattr(baseline, attr)
            if want is not None and have != want:
                discrepancies.append(
                    Discrepancy(name, baseline.name, label, have, want)
                )
    for row in literature:
        rows.append(
            ComparisonRow(
                name=row.name,
                provenance="literature",
                gate_count=row.gate_count,
                toffoli_count=row.toffoli_count,
                cnot_count=None,
                not_count=None,
                quantum_cost=row.quantum_cost,
                logical_depth=row.logical_depth,
            )
        )

    reduction = None
    ppkn = next((r for n, r in computed if _baseline_key(n) == "PPKN"), None)
    hng = published_by_name.get("HNG")
    if ppkn is not None and hng is not None and hng.quantum_cost:
        reduction = QcReduction(
            "PPKN", "HNG", ppkn.quantum_cost, hng.quantum_cost
        )
    return ComparisonTable(tuple(rows), tuple(discrepancies), reduction)


# ---------------------------------------------------------------- rendering

COMPARISON_COLUMNS = (
    "name", "provenance", "gates", "toffoli", "cnot", "not", "qc", "depth",
)


def _cells(row: ComparisonRow) -> list[str]:
    values = (
        row.gate_count, row.toffoli_count, row.cnot_count,
        row.not_count, row.quantum_cost, row.logical_depth,
    )
    return [row.name, row.provenance] + [
        "-" if v is None else str(v) for v in values
    ]


def render_comparison_text(table: ComparisonTable) -> str:
    grid = [list(COMPARISON_COLUMNS)] + [_cells(row) for row in table.rows]
    widths = [max(len(line[i]) for line in grid) for i in range(len(grid[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in grid
    ]
    if table.discrepancies:
        lines.append("")
        for flag in table.discrepancies:
            lines.append(f"discrepancy: {flag.describe()}")
    if table.qc_reduction is not None:
        lines.append("")
        lines.append(table.qc_reduction.describe())
    return "\n".join(lines) + "\n"


def render_comparison_csv(table: ComparisonTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COMPARISON_COLUMNS)
    for row in table.rows:
        cells = _cells(row)
        writer.writerow([c if c != "-" else "" for c in cells])
    return buf.getvalue()


def describe_gate(gate: Gate) -> str:
    """Netlist-style one-liner: kind then lines, controls before target."""
    lines = " ".join(str(i) for i in gate.controls + (gate.target,))
    return f"{gate.kind.value} {lines}"


def render_metrics_text(report: MetricsReport, circuit: Optional[Circuit] = None) -> str:
    lines = [
        f"gates         {report.gate_count}",
        f"  toffoli     {report.toffoli_count}",
        f"  cnot        {report.cnot_count}",
        f"  not         {report.not_count}",
        f"quantum cost  {report.quantum_cost}",
        f"logical depth {report.logical_depth}",
        "schedule:",
    ]
    for t, step in enumerate(report.schedule.timesteps, start=1):
        if circuit is not None:
            body = " | ".join(
                f"g{i} {describe_gate(circuit.gates[i])}" for i in step
            )
        else:
            body = " ".join(f"g{i}" for i in step)
        lines.append(f"  step {t}: {body}")
    return "\n".join(lines) + "\n"


def render_metrics_csv(report: MetricsReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("gates", "toffoli", "cnot", "not", "qc", "depth", "schedule"))
    schedule = "|".join(
        " ".join(str(i) for i in step) for step in report.schedule.timesteps
    )
    writer.writerow((
        report.gate_count, report.toffoli_count, report.cnot_count,
        report.not_count, report.quantum_cost, report.logical_depth, schedule,
    ))
    return buf.getvalue()
