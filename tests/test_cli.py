import gc
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import revadder
from revadder import build_ppkn, build_rca, canonical_layout, serialize_netlist
from revadder.adders import RANDOM_LANE_BITS
from revadder.cli import MAX_RCA_BITS, main
from revadder.core import MAX_LINES

runner = CliRunner()

PPKN_DOC = serialize_netlist(build_ppkn()[0], canonical_layout(1))
RCA4_DOC = serialize_netlist(*build_rca(4))
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(revadder.__file__).parents[1]))


def invoke(*args, **kwargs):
    return runner.invoke(main, list(args), **kwargs)


def run_python(*args, **kwargs):
    """Run `python ARGS` as a child process that imports revadder from this tree."""
    kwargs = {"env": CLI_ENV, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *args], **kwargs)


def run_process(*args, **kwargs):
    """Run `python -m revadder ARGS` as a child process, through
    `revadder.__main__:run`."""
    return run_python("-m", "revadder", *args, **kwargs)


def test_build_ppkn_emits_canonical_netlist():
    result = invoke("build", "ppkn")
    assert result.exit_code == 0
    assert result.output == PPKN_DOC


def test_build_writes_output_file(tmp_path: Path):
    target = tmp_path / "adder.net"
    result = invoke("build", "ppkn", "-o", str(target))
    assert result.exit_code == 0
    assert target.read_text() == PPKN_DOC


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_build_to_unwritable_output_is_usage_error(tmp_path: Path, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "x.net"
    result = run_process("build", "ppkn", "-o", str(target), text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith(f"Error: Could not open file '{target}': ")


def test_build_usage_error_leaves_output_file_untouched(tmp_path: Path):
    # click opens -o lazily, on the first write, which a usage error never reaches
    target = tmp_path / "existing.net"
    target.write_bytes(b"kept\n")
    result = invoke("build", "rca", "-o", str(target))
    assert result.exit_code == 2
    assert target.read_bytes() == b"kept\n"


def test_process_writes_the_same_output_file(tmp_path: Path):
    # the process ends with `os._exit`, which flushes and closes no file:
    # click must close -o before `main` returns, or its buffer is lost
    target = tmp_path / "rca16.net"
    result = run_process("build", "rca", "--bits", "16", "-o", str(target))
    assert (result.returncode, result.stderr) == (0, b"")
    assert target.read_bytes() == invoke("build", "rca", "--bits", "16").output.encode()


def test_process_failing_verify_matches_in_process_run():
    doc = invoke("build", "rca", "--bits", "3").output.replace("cnot 1 0\n", "")
    in_process = invoke("verify", "-", input=doc)
    result = run_process("verify", "-", input=doc, text=True)
    assert in_process.exit_code == result.returncode == 1
    assert result.stdout == in_process.output
    assert result.stderr == ""


def test_both_entry_points_start_through_run():
    # plain text: Python 3.10 has no tomllib
    root = Path(__file__).resolve().parents[1]
    scripts = (root / "pyproject.toml").read_text().split("[project.scripts]\n")[1]
    assert scripts.splitlines()[0] == 'revadder = "revadder.__main__:run"'
    # `python -m revadder` runs the module's one top-level call
    main_module = Path(revadder.__file__).with_name("__main__.py").read_text()
    assert main_module.endswith('\n\nif __name__ == "__main__":\n    run()\n')


#: `run` on the probe's arguments, with an atexit handler that writes a line to {stream}
ATEXIT_PROBE = """
import atexit, sys
atexit.register(lambda: sys.{stream}.write("atexit handler ran\\n"))
sys.argv[0] = "revadder"
from revadder.__main__ import run
run()
"""


def test_process_runs_atexit_handlers_before_it_ends():
    result = run_python("-c", ATEXIT_PROBE.format(stream="stderr"), "build", "ppkn", text=True)
    assert (result.returncode, result.stderr) == (0, "atexit handler ran\n")
    assert result.stdout == PPKN_DOC


def test_in_process_run_leaves_the_collector_on():
    assert invoke("build", "ppkn").exit_code == 0
    assert gc.isenabled()


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize(
    "args", [["build", "ppkn"], ["compare"], ["build", "ppkn", "-o", "/dev/full"]],
    ids=["build-stdout", "compare-stdout", "build-o"],
)
def test_output_that_cannot_be_written_is_usage_error(args):
    with open("/dev/full", "wb") as full:
        result = run_process(*args, stdout=full, text=True)
    assert result.returncode == 2
    assert result.stderr == "Error: [Errno 28] No space left on device\n"  # no traceback


@needs_dev_full
def test_failed_final_flush_is_usage_error(tmp_path: Path):
    # the command writes only to -o; the handler's line reaches stdout's
    # buffer after `main` returned, so only the final flush can fail
    # (buffered: PYTHONUNBUFFERED would make the handler's own write fail)
    target = tmp_path / "adder.net"
    env = {k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        result = run_python(
            "-c", ATEXIT_PROBE.format(stream="stdout"), "build", "ppkn", "-o", str(target),
            stdout=full, env=env, text=True,
        )
    assert result.returncode == 2
    assert result.stderr == "Error: [Errno 28] No space left on device\n"
    assert target.read_text() == PPKN_DOC


def run_to_gone_reader(*args, env):
    """Run `python -m revadder ARGS` with stdout a pipe whose read end is
    already closed, as when the next process of a pipeline has exited."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_process(*args, stdout=write_end, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "args, buffered",
    [(["build", "rca", "--bits", "2000"], False), (["build", "ppkn"], True), (["compare"], True)],
    ids=["build-rca-2000", "build-ppkn-buffered", "compare-buffered"],
)
def test_reader_that_went_away_is_usage_error(args, buffered):
    # click's own handling would exit 1, the code for counterexamples; with
    # buffered stdout the final flush fails too, and is not reported again
    env = {k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    result = run_to_gone_reader(*args, env=env)
    assert result.returncode == 2
    assert result.stderr == "Error: [Errno 32] Broken pipe\n"  # no traceback


def run_with_closed(fd: int, *args, **kwargs):
    """Run `python -m revadder ARGS` with descriptor `fd` closed, as the
    shell's `<&-` (fd 0) or `>&-` (fd 1) does, so that Python makes that
    standard stream None."""
    script = f'exec "$0" -m revadder "$@" {fd}>&-'
    kwargs = {"env": CLI_ENV, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run(["sh", "-c", script, sys.executable, *args], text=True, **kwargs)


@pytest.mark.parametrize(
    "fd, args, stream",
    [(1, ["build", "ppkn"], "output"), (0, ["verify", "-"], "input"), (1, ["compare"], "output")],
    ids=["build-stdout", "verify-stdin", "compare-stdout"],
)
def test_closed_standard_stream_is_usage_error(fd, args, stream):
    result = run_with_closed(fd, *args)
    assert result.returncode == 2
    assert result.stderr == f"Error: standard {stream} is closed\n"  # no traceback


def test_closed_stream_the_command_does_not_use_keeps_its_result(tmp_path: Path):
    result = run_with_closed(0, "build", "ppkn")
    assert (result.returncode, result.stdout, result.stderr) == (0, PPKN_DOC, "")
    target = tmp_path / "adder.net"
    result = run_with_closed(1, "build", "ppkn", "-o", str(target))
    assert (result.returncode, result.stderr) == (0, "")
    assert target.read_text() == PPKN_DOC


def test_build_rca_requires_bits():
    result = invoke("build", "rca")
    assert result.exit_code == 2
    assert "--bits" in result.output


def test_build_rejects_bits_for_single_adders():
    result = invoke("build", "ppkn", "--bits", "2")
    assert result.exit_code == 2


def test_build_rejects_unknown_kind():
    assert invoke("build", "mystery").exit_code == 2


def test_build_hng_has_no_layout_statement():
    result = invoke("build", "hng")
    assert result.exit_code == 0
    assert "layout" not in result.output
    assert "toffoli 0 1 3" in result.output


def test_pipeline_build_metrics():
    doc = invoke("build", "ppkn").output
    result = invoke("metrics", "-", input=doc)
    assert result.exit_code == 0
    assert "quantum cost  10" in result.output
    assert "logical depth 4" in result.output
    assert "step 1: g0 cnot 2 0 | g1 cnot 2 1" in result.output


def test_metrics_csv():
    doc = invoke("build", "rca", "--bits", "3").output
    result = invoke("metrics", "-", "--csv", input=doc)
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "gates,toffoli,cnot,not,qc,depth,schedule"
    assert lines[1].startswith("18,3,15,0,30,10,")


def test_simulate_single_vector():
    # Lines are (Cin, A, B, ancilla); Cin=1, B=1 gives sum 0 carry 1.
    result = invoke("simulate", "-", "--input", "1010", input=PPKN_DOC)
    assert result.exit_code == 0
    assert "input  1010" in result.output
    assert "output 0011" in result.output
    assert "Sum = 0" in result.output
    assert "Cout = 1" in result.output
    assert "A = 0" in result.output
    assert "B = 1" in result.output


def test_simulate_rejects_wrong_length():
    result = invoke("simulate", "-", "--input", "101", input=PPKN_DOC)
    assert result.exit_code == 2
    assert "4 characters" in result.output


def test_simulate_rejects_non_bits():
    result = invoke("simulate", "-", "--input", "10x0", input=PPKN_DOC)
    assert result.exit_code == 2


def test_verify_adder_document_passes():
    result = invoke("verify", "-", input=PPKN_DOC)
    assert result.exit_code == 0
    assert "PASS: 8 cases, 0 mismatches" in result.output
    assert "bijective" in result.output


def test_verify_rca_pipeline_passes():
    doc = invoke("build", "rca", "--bits", "3").output
    result = invoke("verify", "-", input=doc)
    assert result.exit_code == 0
    assert "PASS: 128 cases" in result.output


def test_verify_broken_document_exits_1():
    # Drop the carry-correction CNOT: counterexamples on every b=1 row,
    # listed by (a, b, cin).
    broken = PPKN_DOC.replace("cnot 2 3\n", "")
    result = invoke("verify", "-", input=broken)
    assert result.exit_code == 1
    assert result.output == (
        "FAIL: 4 of 8 rows wrong (4 mismatches)\n"
        "  a=0 b=1 cin=0: cout expected 0, got 1\n"
        "  a=0 b=1 cin=1: cout expected 1, got 0\n"
        "  a=1 b=1 cin=0: cout expected 1, got 0\n"
        "  a=1 b=1 cin=1: cout expected 1, got 0\n"
        "basis-state map: bijective\n"
    )


def test_verify_broken_hng_listing_is_pinned():
    doc = invoke("build", "hng").output.replace("toffoli 0 1 3\n", "", 1)
    result = invoke("verify", "-", input=doc)
    assert result.exit_code == 1
    assert result.output == (
        "FAIL: 2 of 8 rows wrong (2 mismatches)\n"
        "  a=1 b=1 cin=0: cout expected 1, got 0\n"
        "  a=1 b=1 cin=1: cout expected 1, got 0\n"
        "basis-state map: bijective\n"
    )


def test_verify_failing_32_bit_random_report_is_pinned():
    # block 31 without its first fan-out onto a: a, cout and sum all go
    # wrong, three mismatches per row, and the listing stops after 20
    doc = invoke("build", "rca", "--bits", "32").output
    broken = doc.replace("cnot 95 94\n", "", 1)
    assert broken.count("cnot 95 94\n") == 1
    result = invoke(
        "verify", "-", "--mode", "random", "--trials", "2000", "--seed", "5",
        input=broken,
    )
    assert result.exit_code == 1
    assert result.output == (
        "FAIL: 1001 of 2000 rows wrong (2502 mismatches)\n"
        "  a=5636345 b=3388390180 cin=0: a expected 5636345, got 2153119993\n"
        "  a=5636345 b=3388390180 cin=0: cout expected 0, got 1\n"
        "  a=5636345 b=3388390180 cin=0: sum expected 3394026525, got 1246542877\n"
        "  a=35559688 b=4231781309 cin=0: a expected 35559688, got 2183043336\n"
        "  a=35559688 b=4231781309 cin=0: cout expected 0, got 1\n"
        "  a=35559688 b=4231781309 cin=0: sum expected 4267340997, got 2119857349\n"
        "  a=44513976 b=3067528732 cin=0: a expected 44513976, got 2191997624\n"
        "  a=44513976 b=3067528732 cin=0: cout expected 0, got 1\n"
        "  a=44513976 b=3067528732 cin=0: sum expected 3112042708, got 964559060\n"
        "  a=56313412 b=4190503144 cin=0: a expected 56313412, got 2203797060\n"
        "  a=56313412 b=4190503144 cin=0: cout expected 0, got 1\n"
        "  a=56313412 b=4190503144 cin=0: sum expected 4246816556, got 2099332908\n"
        "  a=58050234 b=3961007531 cin=0: a expected 58050234, got 2205533882\n"
        "  a=58050234 b=3961007531 cin=0: cout expected 0, got 1\n"
        "  a=58050234 b=3961007531 cin=0: sum expected 4019057765, got 1871574117\n"
        "  a=70014825 b=4026810991 cin=0: a expected 70014825, got 2217498473\n"
        "  a=70014825 b=4026810991 cin=0: cout expected 0, got 1\n"
        "  a=70014825 b=4026810991 cin=0: sum expected 4096825816, got 1949342168\n"
        "  a=70180677 b=2890529813 cin=0: a expected 70180677, got 2217664325\n"
        "  a=70180677 b=2890529813 cin=0: cout expected 0, got 1\n"
        "  ... and 2482 more\n"
    )


def test_verify_hng_by_role_names():
    doc = invoke("build", "hng").output
    result = invoke("verify", "-", input=doc)
    assert result.exit_code == 0
    assert "PASS: 8 cases" in result.output


def test_verify_underivable_document_is_usage_error():
    result = invoke("verify", "-", input="lines 2\ncnot 0 1\n")
    assert result.exit_code == 2
    assert "no adder layout" in result.output


def test_verify_random_mode_reports_trials():
    doc = invoke("build", "rca", "--bits", "3").output
    result = invoke(
        "verify", "-", "--mode", "random", "--trials", "250", "--seed", "7",
        input=doc,
    )
    assert result.exit_code == 0
    assert "PASS: 250 cases" in result.output


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_non_positive_trials(trials):
    doc = invoke("build", "rca", "--bits", "9").output
    result = run_process("verify", "-", "--trials", trials, input=doc, text=True)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "--trials" in result.stderr


@pytest.mark.parametrize(
    "flags", [["--mode", "random"], ["--trials", "5"], ["--seed", "3"]]
)
def test_verify_one_bit_document_rejects_sampling_flags(flags):
    # an exhaustive check draws nothing, so a sampling flag would otherwise
    # be ignored while the report reads "PASS: 8 cases". A 1-bit adder is
    # always checked on all 8 rows; a 4-bit one on all 512 under --mode
    # auto or exhaustive, but --mode random samples it.
    runs = [(PPKN_DOC, flags, "all 8 rows")]
    if flags[0] != "--mode":
        for mode in ([], ["--mode", "exhaustive"]):
            runs.append((RCA4_DOC, mode + flags, "all 512 rows"))
    for document, args, rows in runs:
        result = run_process("verify", "-", *args, input=document, text=True)
        assert result.returncode == 2, args
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.count("\n") == 1
        assert flags[0] in result.stderr and rows in result.stderr


@pytest.mark.parametrize(
    "args, document, stderr",
    [
        (["build", "rca", "--bits", str(MAX_RCA_BITS + 1)], "",
         f"Error: rca --bits is capped at {MAX_RCA_BITS} ({MAX_LINES} lines), "
         f"got {MAX_RCA_BITS + 1}\n"),
        (["verify", "-", "--trials", "5", "--seed", "3"], PPKN_DOC,
         "Error: --trials, --seed not allowed: a 1-bit adder is checked on all 8 rows\n"),
    ],
    ids=["build-cap", "sampling-flags"],
)
def test_refused_flags_print_one_error_line(args, document, stderr):
    result = run_process(*args, input=document, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", stderr)


def test_verify_one_bit_document_in_exhaustive_mode_passes():
    result = invoke("verify", "-", "--mode", "exhaustive", input=PPKN_DOC)
    assert result.exit_code == 0
    assert result.output == "PASS: 8 cases, 0 mismatches\nbasis-state map: bijective\n"


@pytest.mark.parametrize("command", ["metrics", "verify", "export"])
def test_non_utf8_input_is_a_parse_error(command):
    # UTF-8 mode pins the text encoding whatever the locale
    result = run_process(command, "-", input=b"\xff\xfe", env=dict(CLI_ENV, PYTHONUTF8="1"))
    assert result.returncode == 3
    stderr = result.stderr.decode()
    assert "Traceback" not in stderr
    assert stderr.startswith("<stdin>: ") and stderr.count("\n") == 1


@pytest.mark.parametrize(
    "args, document, code, cap",
    [
        (["build", "rca", "--bits", str(MAX_RCA_BITS + 1)], "", 2, MAX_RCA_BITS),
        (["verify", "-"], f"lines {MAX_LINES + 1}\n", 3, MAX_LINES),
    ],
    ids=["build-bits", "document-lines"],
)
def test_oversized_inputs_are_refused_before_allocation(args, document, code, cap):
    # at the cap plus one, so that a missing check fails fast
    result = run_process(*args, input=document, text=True, timeout=60)
    assert result.returncode == code
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1 and f"capped at {cap}" in result.stderr


@pytest.mark.parametrize("trials", [RANDOM_LANE_BITS // 16 + 1, 10**12])
def test_verify_oversized_trials_is_usage_error(trials):
    # a 5-bit cascade has 16 lines, so the first row is the lane-bit cap plus 16
    doc = invoke("build", "rca", "--bits", "5").output
    result = run_process(
        "verify", "--mode", "random", "--trials", str(trials), "-",
        input=doc, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert f"capped at {RANDOM_LANE_BITS} lane bits" in result.stderr


@pytest.mark.parametrize("bits, cases", [(8947, 10000), (8948, 9999)])
def test_verify_default_sample_fits_the_lane_bit_cap(bits, cases):
    # 3 * 8948 + 1 = 26,845 lines: 10,000 trials would exceed RANDOM_LANE_BITS,
    # so the default sample, given no flag, is lowered to fit
    result = invoke("verify", "-", input=serialize_netlist(*build_rca(bits)))
    assert result.exit_code == 0
    assert result.output == f"PASS: {cases} cases, 0 mismatches\n"


STARTUP_PROBE = """
import json, sys
import revadder.cli
import revadder
loaded = [m for m in ("revadder.metrics", "revadder.qasm") if m in sys.modules]
undirred = sorted(set(revadder.__all__) - set(dir(revadder)))
from revadder import analyze, export_qasm, simulate
print(json.dumps({
    "loaded": loaded,
    "undirred": undirred,
    "kinds": [type(f).__name__ for f in (simulate, analyze, export_qasm)],
    "unresolved": [name for name in revadder.__all__ if not hasattr(revadder, name)],
    "unknown_resolves": hasattr(revadder, "no_such_name"),
}))
"""


def test_cli_start_up_loads_metrics_and_qasm_only_on_use():
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE], capture_output=True, text=True, env=CLI_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "loaded": [],
        "undirred": [],
        # `simulate` names both a submodule and a function: the function wins
        "kinds": ["function", "function", "function"],
        "unresolved": [],
        "unknown_resolves": False,
    }


def test_library_import_loads_no_dataclasses():
    # `import revadder` alone: what click imports depends on its version
    probe = (
        "import json, sys; before = set(sys.modules); import revadder; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    result = run_python("-c", probe, text=True)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert "revadder.core" in loaded
    assert "dataclasses" not in loaded


def test_export_table_files_each_name_under_its_defining_module():
    # a name filed under a module that only imports it would still resolve,
    # but would load the wrong module
    table = revadder._EXPORTS
    assert sum(map(len, table.values())) == len(revadder.__all__)
    for module, names in table.items():
        for name in names:
            value = getattr(revadder, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == f"revadder.{module}", name


#: a bare `import revadder`, then the submodules it resolves as attributes
IMPORT_PROBE = """
import json, sys
import revadder
loaded = sorted(m for m in sys.modules if m.startswith("revadder"))
resolved = [getattr(revadder, m).__name__ for m in ("core", "adders", "netlist")]
print(json.dumps({"loaded": loaded, "resolved": resolved}))
"""


def test_bare_import_loads_core_and_simulate_only():
    result = run_python("-c", IMPORT_PROBE, text=True)
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["loaded"] == ["revadder", "revadder.core", "revadder.simulate"]
    assert probe["resolved"] == ["revadder.core", "revadder.adders", "revadder.netlist"]


def test_public_surface_is_what_the_cli_and_benchmark_use():
    assert sorted(revadder.__all__) == [
        "AdderLayout", "BatchState", "CapacityError", "Circuit", "CircuitError",
        "DEFAULT_LITERATURE", "EXHAUSTIVE_LINE_LIMIT", "Gate",
        "HNG_PUBLISHED", "Mismatch", "ParseError", "PermutationTable",
        "StructuralError", "TSG_PUBLISHED", "VerificationReport",
        "all_basis_states", "analyze", "ancilla",
        "build_hng_reference", "build_ppkn", "build_rca", "canonical_layout",
        "cnot", "compare_report", "export_qasm", "is_bijection", "logical_depth",
        "named", "oracle_add", "parse_netlist", "permutation_of",
        "ppkn_gates", "render_comparison_csv", "render_comparison_text",
        "render_metrics_csv", "render_metrics_text", "render_verification_text",
        "serialize_netlist", "simulate", "simulate_batch", "toffoli",
        "verify_full_adder", "verify_rca",
    ]


def test_verify_exhaustive_beyond_cap_is_usage_error():
    doc = invoke("build", "rca", "--bits", "9").output
    # the cap, not a sampling flag, is what a 9-bit exhaustive verify breaks
    for flags in ([], ["--trials", "5"]):
        result = invoke("verify", "-", "--mode", "exhaustive", *flags, input=doc)
        assert result.exit_code == 2
        assert "capped at 8 bits" in result.output


def test_verify_auto_switches_to_random_for_wide_adders():
    doc = invoke("build", "rca", "--bits", "9").output
    result = invoke("verify", "-", "--trials", "64", input=doc)
    assert result.exit_code == 0
    assert "PASS: 64 cases" in result.output


def test_parse_error_exits_3():
    result = invoke("metrics", "-", input="lines 4\ncnot 0 0\n")
    assert result.exit_code == 3
    assert "line 2" in result.stderr
    assert "duplicate line" in result.stderr


@pytest.mark.parametrize(
    "build_args, statement",
    [(["ppkn"], "input 1 A"), (["rca", "--bits", "2"], "input 4 A1")],
    ids=["ppkn", "rca2"],
)
def test_verify_rejects_operand_line_declared_as_ancilla(build_args, statement):
    line = statement.split()[1]
    doc = invoke("build", *build_args).output.replace(
        f"{statement}\n", f"ancilla {line}\n"
    )
    result = invoke("verify", "-", input=doc)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert f"expects line {line} to be an input" in result.stderr


def test_parse_error_names_the_file(tmp_path: Path):
    bad = tmp_path / "bad.net"
    bad.write_text("lines 4\nfrobnicate 1\n")
    result = invoke("metrics", str(bad))
    assert result.exit_code == 3
    assert "bad.net" in result.stderr


def test_compare_table():
    result = invoke("compare")
    assert result.exit_code == 0
    assert "PPKN" in result.output
    assert "literature" in result.output
    assert "discrepancy: HNG-reference" in result.output
    assert "16.7%" in result.output
    assert "(12 - 10) / 12" in result.output


def test_compare_csv():
    result = invoke("compare", "--csv")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "name,provenance,gates,toffoli,cnot,not,qc,depth"
    assert "PPKN,computed,6,1,5,0,10,4" in lines
    assert "TSG,literature,6,2,,,14,6" in lines


METRICS_GOLDEN = {
    ("ppkn",): (
        "gates         6\n"
        "  toffoli     1\n"
        "  cnot        5\n"
        "  not         0\n"
        "quantum cost  10\n"
        "logical depth 4\n"
        "schedule:\n"
        "  step 1: g0 cnot 2 0 | g1 cnot 2 1\n"
        "  step 2: g2 toffoli 0 1 3\n"
        "  step 3: g3 cnot 2 1 | g4 cnot 2 3\n"
        "  step 4: g5 cnot 1 0\n",
        "gates,toffoli,cnot,not,qc,depth,schedule\n"
        "6,1,5,0,10,4,0 1|2|3 4|5\n",
    ),
    ("hng",): (
        "gates         5\n"
        "  toffoli     2\n"
        "  cnot        3\n"
        "  not         0\n"
        "quantum cost  13\n"
        "logical depth 5\n"
        "schedule:\n"
        "  step 1: g0 toffoli 0 1 3\n"
        "  step 2: g1 cnot 0 1\n"
        "  step 3: g2 toffoli 1 2 3\n"
        "  step 4: g3 cnot 1 2\n"
        "  step 5: g4 cnot 0 1\n",
        "gates,toffoli,cnot,not,qc,depth,schedule\n"
        "5,2,3,0,13,5,0|1|2|3|4\n",
    ),
    ("rca", "--bits", "3"): (
        "gates         18\n"
        "  toffoli     3\n"
        "  cnot        15\n"
        "  not         0\n"
        "quantum cost  30\n"
        "logical depth 10\n"
        "schedule:\n"
        "  step 1: g0 cnot 2 0 | g1 cnot 2 1 | g7 cnot 5 4 | g13 cnot 8 7\n"
        "  step 2: g2 toffoli 0 1 3\n"
        "  step 3: g3 cnot 2 1 | g4 cnot 2 3\n"
        "  step 4: g5 cnot 1 0 | g6 cnot 5 3\n"
        "  step 5: g8 toffoli 3 4 6\n"
        "  step 6: g9 cnot 5 4 | g10 cnot 5 6\n"
        "  step 7: g11 cnot 4 3 | g12 cnot 8 6\n"
        "  step 8: g14 toffoli 6 7 9\n"
        "  step 9: g15 cnot 8 7 | g16 cnot 8 9\n"
        "  step 10: g17 cnot 7 6\n",
        "gates,toffoli,cnot,not,qc,depth,schedule\n"
        "18,3,15,0,30,10,0 1 7 13|2|3 4|5 6|8|9 10|11 12|14|15 16|17\n",
    ),
}


@pytest.mark.parametrize("as_csv", [False, True], ids=["text", "csv"])
@pytest.mark.parametrize("build_args", list(METRICS_GOLDEN), ids=["ppkn", "hng", "rca3"])
def test_metrics_output_is_pinned(build_args, as_csv):
    doc = invoke("build", *build_args).output
    result = invoke("metrics", *(["--csv"] if as_csv else []), "-", input=doc)
    assert result.exit_code == 0
    assert result.stdout == METRICS_GOLDEN[build_args][as_csv]


#: a document with NOT gates, the one gate kind the built-in circuits lack
NOT_GATES_DOC = (
    "lines 3\ninput 0 a\ninput 1 b\nancilla 2\n"
    "not 0\ncnot 0 1\ntoffoli 0 1 2\nnot 2\noutput 2 c\n"
)
NOT_GATES_GOLDEN = (
    "gates         4\n"
    "  toffoli     1\n"
    "  cnot        1\n"
    "  not         2\n"
    "quantum cost  8\n"
    "logical depth 4\n"
    "schedule:\n"
    "  step 1: g0 not 0\n"
    "  step 2: g1 cnot 0 1\n"
    "  step 3: g2 toffoli 0 1 2\n"
    "  step 4: g3 not 2\n",
    "gates,toffoli,cnot,not,qc,depth,schedule\n"
    "4,1,1,2,8,4,0|1|2|3\n",
)


@pytest.mark.parametrize("as_csv", [False, True], ids=["text", "csv"])
def test_metrics_output_with_not_gates_is_pinned(as_csv):
    result = invoke("metrics", *(["--csv"] if as_csv else []), "-", input=NOT_GATES_DOC)
    assert result.exit_code == 0
    assert result.stdout == NOT_GATES_GOLDEN[as_csv]


def test_compare_output_is_pinned():
    result = invoke("compare")
    assert result.exit_code == 0
    assert result.stdout == (
        "name           provenance  gates  toffoli  cnot  not  qc  depth\n"
        "PPKN           computed    6      1        5     0    10  4\n"
        "HNG-reference  computed    5      2        3     0    13  5\n"
        "HNG            literature  5      2        -     -    12  5\n"
        "TSG            literature  6      2        -     -    14  6\n"
        "\n"
        "discrepancy: HNG-reference: computed quantum cost 13 differs from "
        "published HNG value 12\n"
        "\n"
        "quantum-cost reduction, PPKN 10 vs published HNG 12: "
        "(12 - 10) / 12 = 16.7% (rounds to 17%)\n"
    )


def test_compare_csv_output_is_pinned():
    result = invoke("compare", "--csv")
    assert result.exit_code == 0
    assert result.stdout == (
        "name,provenance,gates,toffoli,cnot,not,qc,depth\n"
        "PPKN,computed,6,1,5,0,10,4\n"
        "HNG-reference,computed,5,2,3,0,13,5\n"
        "HNG,literature,5,2,,,12,5\n"
        "TSG,literature,6,2,,,14,6\n"
    )


def test_export_qasm():
    result = invoke("export", "-", input=PPKN_DOC)
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "OPENQASM 3.0;"
    assert lines[1] == 'include "stdgates.inc";'
    assert lines[2] == "qubit[4] q;"
    assert "ccx q[0], q[1], q[3];" in lines
    assert lines[-1] == "cx q[1], q[0];"


RCA3_QASM = """\
OPENQASM 3.0;
include "stdgates.inc";
qubit[10] q;
cx q[2], q[0];
cx q[2], q[1];
ccx q[0], q[1], q[3];
cx q[2], q[1];
cx q[2], q[3];
cx q[1], q[0];
cx q[5], q[3];
cx q[5], q[4];
ccx q[3], q[4], q[6];
cx q[5], q[4];
cx q[5], q[6];
cx q[4], q[3];
cx q[8], q[6];
cx q[8], q[7];
ccx q[6], q[7], q[9];
cx q[8], q[7];
cx q[8], q[9];
cx q[7], q[6];
"""


def test_export_output_is_pinned():
    doc = invoke("build", "rca", "--bits", "3").output
    result = invoke("export", "-", input=doc)
    assert result.exit_code == 0
    assert result.stdout == RCA3_QASM


def test_export_unknown_format_rejected():
    result = invoke("export", "-", "--format", "svg", input=PPKN_DOC)
    assert result.exit_code == 2


def test_help_lists_commands():
    result = invoke("--help")
    assert result.exit_code == 0
    for command in ("build", "simulate", "verify", "metrics", "compare", "export"):
        assert command in result.output
