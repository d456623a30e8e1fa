"""Command-line interface.

Exit codes: 0 success, 1 verification found counterexamples, 2 bad
usage/flags or an output that cannot be written (an `-o` file that
cannot be opened, a write that fails, as on a full disk, or a reader
that went away), 3 netlist not decodable as text or not parsable. File arguments accept `-` for
standard input/output, so commands compose:

    revadder build ppkn | revadder metrics -
    revadder build rca --bits 3 | revadder verify -

Every command runs in its own process, so the metrics and QASM modules
are imported inside the commands that use them: `build` and `verify`
never load them.

Both `revadder` and `python -m revadder` start through
`revadder.__main__:run`, which runs `main` as a process. `main` is the
in-process entry point, for callers such as click's `CliRunner`.
"""
from __future__ import annotations

import click

from .adders import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    EXHAUSTIVE_ADDER_BITS,
    AdderLayout,
    build_hng_reference,
    build_ppkn,
    build_rca,
    render_verification_text,
    verify_full_adder,
    verify_rca,
)
from .core import MAX_LINES, CapacityError, Circuit
from .netlist import ParseError, parse_netlist, serialize_netlist
from .simulate import BatchState, simulate_batch

EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE_ERROR = 3

#: the widest cascade whose 3n + 1 lines fit in MAX_LINES
MAX_RCA_BITS = (MAX_LINES - 1) // 3


class _Group(click.Group):
    """Reports a reader that went away as an output that cannot be
    written, exit 2; click's `main` would exit 1, the code for
    counterexamples, with nothing on stderr."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError as exc:
            error = click.ClickException(str(exc))
            error.exit_code = EXIT_USAGE
            raise error from None


@click.group(cls=_Group)
def main() -> None:
    """Build, simulate, verify, and analyze reversible NCT adder circuits."""


def _read_document(ctx: click.Context, fh) -> tuple:
    name = getattr(fh, "name", "<input>")
    try:
        return parse_netlist(fh.read())
    except (ParseError, UnicodeDecodeError) as exc:
        click.echo(f"{name}: {exc}", err=True)
        ctx.exit(EXIT_PARSE_ERROR)


@main.command()
@click.argument("kind", type=click.Choice(["ppkn", "hng", "rca"]))
@click.option("--bits", type=int, default=None, help="Operand width (rca only).")
@click.option("-o", "--output", type=click.File("w"), default="-", help="Destination file.")
@click.pass_context
def build(ctx: click.Context, kind: str, bits, output) -> None:
    """Emit a built-in circuit as a netlist document."""
    if kind == "rca":
        if bits is None or bits < 1:
            raise click.UsageError("rca needs --bits N with N >= 1")
        if bits > MAX_RCA_BITS:
            click.echo(
                f"Error: rca --bits is capped at {MAX_RCA_BITS} "
                f"({MAX_LINES} lines), got {bits}", err=True,
            )
            ctx.exit(EXIT_USAGE)
        circuit, layout = build_rca(bits)
    else:
        if bits is not None:
            raise click.UsageError(f"--bits applies to rca only, not {kind}")
        if kind == "ppkn":
            circuit, layout = build_ppkn()
        else:
            # the baseline's layout is not the canonical one the format can state
            circuit, _ = build_hng_reference()
            layout = None
    document = serialize_netlist(circuit, layout)
    # click opens the file on this first write, so a usage error above
    # never truncates it; a destination it cannot open is bad usage too
    try:
        output.write(document)
    except click.FileError as exc:
        exc.exit_code = EXIT_USAGE
        raise


@main.command(name="simulate")
@click.argument("file", type=click.File("r"))
@click.option("--input", "bitstring", required=True,
              help="One bit per line, line 0 leftmost, length = width.")
@click.pass_context
def simulate_cmd(ctx: click.Context, file, bitstring: str) -> None:
    """Run a netlist on one basis state and print the output bits."""
    circuit, _ = _read_document(ctx, file)
    if len(bitstring) != circuit.width or set(bitstring) - {"0", "1"}:
        raise click.UsageError(
            f"--input must be {circuit.width} characters of 0/1, got {bitstring!r}"
        )
    # one lane: each line's word is that line's bit
    out = simulate_batch(circuit, BatchState(map(int, bitstring), 1)).words
    click.echo(f"input  {bitstring}")
    click.echo(f"output {''.join(str(b) for b in out)}")
    for i, role in enumerate(circuit.roles):
        if role.output is not None:
            click.echo(f"{role.output} = {out[i]}")


def _layout_from_roles(circuit: Circuit) -> AdderLayout | None:
    """Recognize a 1-bit adder by its role names (Cin/A/B plus one ancilla)."""
    if circuit.width != 4:
        return None
    by_name: dict[str, int] = {}
    ancillas = []
    for i, role in enumerate(circuit.roles):
        if role.is_ancilla:
            ancillas.append(i)
        elif role.name.lower() in ("cin", "a", "b") and role.name.lower() not in by_name:
            by_name[role.name.lower()] = i
    if len(by_name) == 3 and len(ancillas) == 1:
        return AdderLayout(1, by_name["cin"], (by_name["a"],), (by_name["b"],), (ancillas[0],))
    return None


class _SamplingOption(click.Option):
    """A sampling flag that is None when not given, so that `verify_rca`
    works out its value; the help still shows the default."""

    def get_default(self, ctx: click.Context, call: bool = True):
        return None if call else self.default


@main.command()
@click.argument("file", type=click.File("r"))
@click.option("--mode", type=click.Choice(["auto", "exhaustive", "random"]),
              default="auto", help="Vector selection (auto: exhaustive when small).")
@click.option("--trials", cls=_SamplingOption, type=click.IntRange(min=1),
              default=DEFAULT_TRIALS, show_default=True, help="Sample count in random mode.")
@click.option("--seed", cls=_SamplingOption, type=int, default=DEFAULT_SEED,
              show_default=True, help="Generator seed in random mode.")
@click.pass_context
def verify(ctx: click.Context, file, mode: str, trials: int | None, seed: int | None) -> None:
    """Check a netlist against integer addition; exit 1 on counterexamples."""
    circuit, layout = _read_document(ctx, file)
    if layout is None:
        layout = _layout_from_roles(circuit)
    if layout is None:
        raise click.UsageError(
            "document has no adder layout and its roles do not describe "
            "a 1-bit adder (inputs Cin/A/B plus one ancilla)"
        )
    n = layout.n_bits
    if mode == "auto":
        mode = "exhaustive" if n <= EXHAUSTIVE_ADDER_BITS else "random"
    # an exhaustive check draws nothing, so a sampling flag would be
    # ignored while the report reads "PASS: <all rows> cases"
    if n == 1 or mode == "exhaustive" and n <= EXHAUSTIVE_ADDER_BITS:
        sampling = ["--mode random"] if mode == "random" else []
        sampling += [
            f"--{name}" for name, value in (("trials", trials), ("seed", seed))
            if value is not None
        ]
        if sampling:
            click.echo(
                f"Error: {', '.join(sampling)} not allowed: a {n}-bit adder is "
                f"checked on all {1 << (2 * n + 1)} rows", err=True,
            )
            ctx.exit(EXIT_USAGE)
    if n == 1:
        report = verify_full_adder(circuit, layout)
    else:
        try:
            report = verify_rca(circuit, layout, mode, trials=trials, seed=seed)
        except CapacityError as exc:
            raise click.UsageError(str(exc)) from None
    click.echo(render_verification_text(report), nl=False)
    if not report.passed:
        ctx.exit(EXIT_VERIFY_FAILED)


@main.command()
@click.argument("file", type=click.File("r"))
@click.option("--csv", "as_csv", is_flag=True, help="Machine-readable output.")
@click.pass_context
def metrics(ctx: click.Context, file, as_csv: bool) -> None:
    """Print gate counts, quantum cost, depth, and the witness schedule."""
    from .metrics import analyze, render_metrics_csv, render_metrics_text

    circuit, _ = _read_document(ctx, file)
    report = analyze(circuit)
    if as_csv:
        click.echo(render_metrics_csv(report), nl=False)
    else:
        click.echo(render_metrics_text(report, circuit), nl=False)


@main.command()
@click.option("--csv", "as_csv", is_flag=True, help="Machine-readable output.")
def compare(as_csv: bool) -> None:
    """Compare the built-in adders against the published figures."""
    from .metrics import compare_report, render_comparison_csv, render_comparison_text

    table = compare_report()
    if as_csv:
        click.echo(render_comparison_csv(table), nl=False)
    else:
        click.echo(render_comparison_text(table), nl=False)


@main.command()
@click.argument("file", type=click.File("r"))
@click.option("--format", "fmt", type=click.Choice(["qasm"]), default="qasm",
              show_default=True, help="Export format.")
@click.pass_context
def export(ctx: click.Context, file, fmt: str) -> None:
    """Convert a netlist to an interchange format."""
    from .qasm import export_qasm

    circuit, _ = _read_document(ctx, file)
    click.echo(export_qasm(circuit), nl=False)
