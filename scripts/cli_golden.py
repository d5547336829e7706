#!/usr/bin/env python3
"""Run every CLI subcommand on every reference of the example workspaces,
first the one over Z and then the one over Z/12, and print a transcript:
the command line, its stdout, its stderr and its exit code, in text and in
--json form.

Usage: python3 scripts/cli_golden.py
Expected standard output: scripts/cli_golden.out

The subcommands and the reference kinds of their argument slots come from
`freeabcat.cli.COMMANDS`.  Each slot takes every reference of the kinds it
accepts, so `image` prints the particular epi it finds and any byte change
in any answer shows up in a diff.  The commands run in-process through
`freeabcat.cli.main`.  `selftest` takes no reference and no workspace; it
runs once in each form, after the Z workspace, so the bytes of its eight
suite verdicts are checked too.  The script exits non-zero, naming the
command, when a command of the table ran no case on either workspace.
"""

import collections
import contextlib
import io
import itertools
import json
import os
import sys

from freeabcat.cli import COMMANDS, main as cli_main
from freeabcat.serialize import KINDS

WORKSPACES = ("scripts/example_workspace.json", "scripts/example_workspace_z12.json")

# subcommand -> the flag sets it runs with; the others run with none
FLAG_SETS = {"convert": (("--to", "chain"), ("--to", "pair"), ("--to", "square"))}


def references(data: dict, kinds: tuple[str, ...]) -> list[str]:
    return [f"{kind}:{name}" for kind in kinds for name in data.get(KINDS[kind].section, {})]


def run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return out.getvalue(), err.getvalue(), code


def transcript(workspace: str, with_selftest: bool):
    """Print the cases of one workspace; yields the command of each case."""
    with open(workspace, encoding="utf-8") as fh:
        data = json.load(fh)
    for command, (_help, slots, _handler) in COMMANDS.items():
        if not slots and not with_selftest:
            continue
        ws_args = ("-w", workspace) if slots else ()
        for refs in itertools.product(*(references(data, kinds) for kinds in slots)):
            for flags in FLAG_SETS.get(command, ((),)):
                for mode in ((), ("--json",)):
                    argv = [command, *refs, *flags, *ws_args, *mode]
                    stdout, stderr, code = run(argv)
                    print(f"$ freeabcat {' '.join(argv)}")
                    print(stdout, end="")
                    if stderr:
                        print(f"[stderr] {stderr}", end="")
                    print(f"[exit {code}]")
                    yield command


def main():
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ran = collections.Counter()
    for i, workspace in enumerate(WORKSPACES):
        ran.update(transcript(workspace, with_selftest=i == 0))
    untried = [command for command in COMMANDS if not ran[command]]
    if untried:
        sys.exit(f"cli_golden: no case ran for {', '.join(untried)}")


if __name__ == "__main__":
    main()
