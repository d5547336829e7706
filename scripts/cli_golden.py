#!/usr/bin/env python3
"""Run every CLI subcommand on every reference of the example workspaces,
first the one over Z and then the one over Z/12, and print a transcript:
the command line, its stdout, its stderr and its exit code, in text and in
--json form.

Usage: python3 scripts/cli_golden.py
Expected standard output: scripts/cli_golden.out

Each argument slot takes every reference of the kinds the subcommand
accepts, so `image` prints the particular epi it finds and any byte change
in any answer shows up in a diff.  The commands run in-process through
`freeabcat.cli.main`.  `selftest` takes no reference and no workspace; it
runs once in each form, after the Z workspace, so the bytes of its eight
suite verdicts are checked too.
"""

import contextlib
import io
import itertools
import json
import os

from freeabcat.cli import main as cli_main
from freeabcat.serialize import KINDS

WORKSPACES = ("scripts/example_workspace.json", "scripts/example_workspace_z12.json")

# subcommand -> the reference kinds of each positional slot, then extra flags
COMMANDS = (
    ("eval", (("chain", "square"), ("module",)), ()),
    ("member", (("chain", "pair", "family"), ("module",)), ()),
    ("kernel", (("morphism",),), ()),
    ("cokernel", (("morphism",),), ()),
    ("image", (("morphism",),), ()),
    ("homgroup", (("chain",), ("chain",)), ()),
    ("iszero", (("chain",),), ()),
    ("dual", (("chain", "pair", "square"),), ()),
    ("convert", (("chain", "pair", "square"),), (("--to", "chain"), ("--to", "pair"),
                                                 ("--to", "square"))),
    ("snf", (("matrix",),), ()),
    ("selftest", (), ()),
)


def references(data: dict, kinds: tuple[str, ...]) -> list[str]:
    return [f"{kind}:{name}" for kind in kinds for name in data.get(KINDS[kind].section, {})]


def run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return out.getvalue(), err.getvalue(), code


def transcript(workspace: str, with_selftest: bool):
    with open(workspace, encoding="utf-8") as fh:
        data = json.load(fh)
    for command, slots, flag_sets in COMMANDS:
        if not slots and not with_selftest:
            continue
        ws_args = ("-w", workspace) if slots else ()
        for refs in itertools.product(*(references(data, kinds) for kinds in slots)):
            for flags in flag_sets or ((),):
                for mode in ((), ("--json",)):
                    argv = [command, *refs, *flags, *ws_args, *mode]
                    stdout, stderr, code = run(argv)
                    print(f"$ freeabcat {' '.join(argv)}")
                    print(stdout, end="")
                    if stderr:
                        print(f"[stderr] {stderr}", end="")
                    print(f"[exit {code}]")


def main():
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    for i, workspace in enumerate(WORKSPACES):
        transcript(workspace, with_selftest=i == 0)


if __name__ == "__main__":
    main()
