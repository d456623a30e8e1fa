"""The CLI as a process: `python -m revadder` and the `revadder` console
script both start through `run`. In-process callers, such as click's
`CliRunner`, call `revadder.cli:main` instead, which changes nothing in
the interpreter.

`run` switches the cyclic garbage collector off before click and
`revadder.cli` import, and never switches it back on. A command makes
frozen values, tuples, ints and strings, which reference counting frees;
the only reference cycles are one per process (click's context, or one
caught error), so nothing a command allocates per input waits for the
collector. Once the command has returned, `run` follows the
interpreter's own order, atexit handlers and then flushing stdout and
stderr, and ends the process with `os._exit`, which skips the
finalization that would walk the import-time heap while the next
process of a pipeline waits for end of input.

An `OSError` that escapes a command, or a final flush of stdout that
fails (a full disk, `> /dev/full`), is an output that cannot be
written: one `Error:` line on stderr and exit 2, as for an `-o` file
that cannot be opened. So is a standard stream the process started
without (`>&-`, `<&-`), once a command reads or writes it; a command
that does not use it keeps its result.
"""
from __future__ import annotations

import atexit
import gc
import os
import sys


class _Closed:
    """Stands in for a standard stream that is closed: click hands it to
    a command as it is, and reading or writing it raises `OSError`."""

    def __init__(self, name: str) -> None:
        self.name = name

    def read(self, *args):
        raise OSError(f"{self.name} is closed")

    write = read

    def flush(self) -> None:
        pass  # nothing was written


def run() -> None:
    """Run the CLI in this process and end the process with its exit status."""
    gc.disable()
    from .cli import EXIT_USAGE, main

    # Python makes a stream None when its descriptor was closed at start
    if sys.stdin is None:
        sys.stdin = _Closed("standard input")
    if sys.stdout is None:
        sys.stdout = _Closed("standard output")

    error, status = None, 0
    try:
        main()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        status = exc.code or 0
    except OSError as exc:
        error, status = exc, EXIT_USAGE
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError as exc:
        # a pipe the command found broken fails again here: report it once
        if status != EXIT_USAGE:
            error, status = exc, EXIT_USAGE
    if sys.stderr is not None:
        try:
            if error is not None:
                sys.stderr.write(f"Error: {error}\n")
            sys.stderr.flush()
        except OSError:
            pass  # nowhere left to report it; the exit status still says so
    os._exit(status)


if __name__ == "__main__":
    run()
