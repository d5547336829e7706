"""Workspace JSON parsing and the command line surface.

The golden command outputs here are frozen strings: changing any of them
is an interface break, not a refactor.
"""

import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import freeabcat.cli
from freeabcat import Matrix, ZZ, Zmod, is_unimodular, snf
from freeabcat.cli import COMMANDS, main
from freeabcat.errors import InternalInvariantError, WorkspaceError
from freeabcat.serialize import KINDS
from freeabcat.workspace import (
    Workspace,
    load_workspace,
    parse_workspace,
    resolve_ref,
    workspace_to_text,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLE = REPO / "scripts" / "example_workspace.json"


@pytest.mark.parametrize("name,ring,chain", [
    ("example_workspace.json", ZZ, "chain:X_ex"),
    ("example_workspace_z12.json", Zmod(12), "chain:X3"),
], ids=["Z", "Z/12"])
def test_example_workspace_roundtrip_is_identity(name, ring, chain):
    original = json.loads((REPO / "scripts" / name).read_text())
    ws = parse_workspace(original)
    text = workspace_to_text(ws)
    again = parse_workspace(json.loads(text))
    assert workspace_to_text(again) == text
    assert again == ws
    written = json.loads(text)
    for section in ("chains", "squares", "modules", "pairs", "families", "morphisms",
                    "matrices"):
        assert set(written.get(section, {})) == set(original.get(section, {}))
    for key, u in original.get("morphisms", {}).items():
        assert (written["morphisms"][key]["src"], written["morphisms"][key]["dst"]) \
            == (u["src"], u["dst"])
    assert ws.ring == ring
    assert resolve_ref(ws, chain).ranks == (1, 2, 1)
    assert resolve_ref(ws, "module:presented").invariant_factors == (6,)


@pytest.mark.parametrize("ring", [ZZ, Zmod(4)], ids=["Z", "Z/4"])
def test_canonical_text_of_a_bool_entry_parses_back(ring):
    ws = Workspace(ring=ring, matrices={"b": Matrix(ring, 1, 2, [True, 0])})
    text = workspace_to_text(ws)
    assert json.loads(text)["matrices"]["b"] == [[1, 0]]
    again = parse_workspace(json.loads(text))
    assert again == ws
    assert workspace_to_text(again) == text


def test_morphism_ends_keep_their_names_when_chains_are_equal():
    chain = {"m1": [[1]], "m2": [[2]]}
    ws = parse_workspace({
        "ring": "Z", "chains": {"a": chain, "b": chain},
        "morphisms": {"u": {"src": "b", "dst": "a", "a1": [[1]], "a2": [[1]], "a3": [[1]]}},
    })
    written = json.loads(workspace_to_text(ws))["morphisms"]["u"]
    assert (written["src"], written["dst"]) == ("b", "a")


def test_workspace_rejects_unknown_section(tmp_path):
    bad = tmp_path / "ws.json"
    bad.write_text('{"ring": "Z", "gadgets": {}}')
    with pytest.raises(WorkspaceError, match="gadgets"):
        load_workspace(str(bad))


def test_workspace_rejects_bad_names():
    with pytest.raises(WorkspaceError, match="name"):
        parse_workspace({"ring": "Z", "modules": {"a b": {"invariant_factors": []}}})


def test_workspace_requires_matching_object_ring():
    data = {"ring": "Z",
            "modules": {"m": {"ring": {"Zmod": 4}, "invariant_factors": [2]}}}
    with pytest.raises(WorkspaceError, match="ring"):
        parse_workspace(data)


def test_matrix_dict_form_for_zero_row_shapes():
    data = {"ring": {"Zmod": 4},
            "matrices": {"flat": {"shape": [0, 2], "entries": []}}}
    ws = parse_workspace(data)
    assert ws.matrices["flat"] == Matrix.zeros(Zmod(4), 0, 2)


def _run(argv: list[str], capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


W = ["-w", str(EXAMPLE)]


def test_cli_member_golden(capsys):
    code, out, _ = _run(["member", "chain:X_ex", "module:Z4"] + W, capsys)
    assert code == 0
    assert out == "false\n"
    code, out, _ = _run(["member", "chain:X_ex", "module:Z2", "--json"] + W, capsys)
    assert code == 0
    assert json.loads(out) == {"member": True}


def test_cli_convert_golden(capsys):
    code, out, _ = _run(
        ["convert", "chain:X_ex", "--to", "pair", "--convention", "paper"] + W,
        capsys)
    assert code == 0
    assert out == ("convention = paper-row\n"
                   "U (1x2) = [[-1, 2]]\n"
                   "V (2x1) = [[0], [-1]]\n")


def test_cli_eval_golden(capsys):
    code, out, _ = _run(["eval", "chain:X_ex", "module:Z4", "--json"] + W, capsys)
    assert code == 0
    assert json.loads(out) == {"invariant_factors": [2]}
    code, out, _ = _run(["eval", "square:SQ_ex", "module:Z4", "--json"] + W, capsys)
    assert code == 0
    assert json.loads(out) == {"invariant_factors": [2]}


def test_cli_snf_golden(capsys):
    code, out, _ = _run(["snf", "matrix:demo", "--json"] + W, capsys)
    assert code == 0
    got = json.loads(out)
    assert got["S"] == [[2, 0], [0, 4]]
    # P demo Q = S with unimodular P, Q
    assert got["P"] == [[1, 0], [3, -1]]
    assert got["Q"] == [[1, -2], [0, 1]]


def test_cli_snf_over_zmod_certifies_mod_n(tmp_path, capsys):
    ring, rows = Zmod(6), [[4, 2, 3], [2, 0, 3], [2, 4, 0]]
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({"ring": {"Zmod": 6}, "matrices": {"m": rows}}))
    code, out, _ = _run(["snf", "matrix:m", "--json", "-w", str(ws)], capsys)
    assert code == 0
    got = {k: Matrix.from_rows(ring, v) for k, v in json.loads(out).items()}
    s = got["S"]
    assert got["P"] @ Matrix.from_rows(ring, rows) @ got["Q"] == s
    assert all(s.entry(i, j) == 0 for i in range(s.rows) for j in range(s.cols) if i != j)
    assert is_unimodular(got["P"]) and is_unimodular(got["Q"])


def test_cli_dual_pair_golden(capsys):
    code, out, _ = _run(["dual", "pair:P_ex"] + W, capsys)
    assert code == 0
    assert out == ("convention = paper-row\n"
                   "U (1x2) = [[0, -1]]\n"
                   "V (2x1) = [[-1], [2]]\n")


def test_cli_dual_chain_and_square_golden(capsys):
    code, out, _ = _run(["dual", "chain:X_ex"] + W, capsys)
    assert code == 0
    assert out == ("ranks = [1, 2, 1]\n"
                   "m1 (2x1) = [[0], [-1]]\n"
                   "m2 (1x2) = [[-1, 2]]\n")
    code, out, _ = _run(["dual", "square:SQ_ex"] + W, capsys)
    assert code == 0
    assert out == ("ranks = [1, 2, 1, 1]\n"
                   "f (2x1) = [[0], [-1]]\n"
                   "a (1x1) = [[2]]\n"
                   "b (1x2) = [[1, -2]]\n"
                   "g (1x1) = [[1]]\n")


def test_cli_convert_square_and_pair_golden(capsys):
    code, out, _ = _run(["convert", "square:SQ_ex", "--to", "chain"] + W, capsys)
    assert code == 0
    assert out == ("ranks = [1, 2, 1]\n"
                   "m1 (2x1) = [[1], [-2]]\n"
                   "m2 (1x2) = [[0, -1]]\n")
    code, out, _ = _run(["convert", "pair:P_col", "--to", "square"] + W, capsys)
    assert code == 0
    assert out == ("ranks = [1, 2, 1, 1]\n"
                   "f (2x1) = [[-1], [2]]\n"
                   "a (1x1) = [[-2]]\n"
                   "b (1x2) = [[0, -1]]\n"
                   "g (1x1) = [[1]]\n")


def test_cli_eval_square_text_golden(capsys):
    code, out, _ = _run(["eval", "square:SQ_ex", "module:Z4"] + W, capsys)
    assert code == 0
    assert out == "invariant factors: [2]\n"


def test_resolve_ref_unknown_kind_message():
    ws = load_workspace(str(EXAMPLE))
    with pytest.raises(WorkspaceError) as err:
        resolve_ref(ws, "gadget:x")
    assert str(err.value) == (
        "gadget:x: unknown kind 'gadget' (expected one of chain, family, "
        "matrix, module, morphism, pair, square)")


def test_cli_iszero_and_homgroup(capsys):
    code, out, _ = _run(["iszero", "chain:embed1", "--json"] + W, capsys)
    assert code == 0 and json.loads(out) == {"is_zero": False}
    code, out, _ = _run(["homgroup", "chain:embed1", "chain:embed1", "--json"] + W,
                        capsys)
    assert code == 0 and json.loads(out) == {"invariant_factors": [0]}


def test_cli_kernel_cokernel_image(capsys):
    code, out, _ = _run(["kernel", "morphism:doubling", "--json"] + W, capsys)
    assert code == 0
    got = json.loads(out)
    assert set(got) == {"object", "morphism"}
    assert got["object"]["ranks"] == [0, 1, 1]
    code, out, _ = _run(["cokernel", "morphism:doubling", "--json"] + W, capsys)
    assert code == 0
    assert json.loads(out)["object"]["ranks"] == [1, 1, 0]
    code, out, _ = _run(["image", "morphism:collapse", "--json"] + W, capsys)
    assert code == 0
    got = json.loads(out)
    assert set(got) == {"object", "mono", "epi"}


def test_cli_member_family_and_pair(capsys):
    code, out, _ = _run(["member", "family:two_torsion", "module:V4"] + W, capsys)
    assert code == 0 and out == "true\n"
    code, out, _ = _run(["member", "family:everything", "module:free1"] + W, capsys)
    assert code == 0 and out == "true\n"
    code, out, _ = _run(["member", "pair:P_col", "module:Z6"] + W, capsys)
    assert code == 0 and out == "false\n"


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    code, _, err = _run(["eval", "chain:nope", "module:Z4"] + W, capsys)
    assert code == 1 and "nope" in err

    code, _, err = _run(["eval", "module:Z4", "module:Z4"] + W, capsys)
    assert code == 1  # wrong kind of reference

    code, _, err = _run(["eval", "chain:X_ex", "module:Z4",
                         "-w", str(tmp_path / "absent.json")], capsys)
    assert code == 1 and "absent.json" in err

    broken = tmp_path / "broken.json"
    broken.write_text('{"ring": "Z",,}')
    code, _, err = _run(["eval", "chain:X_ex", "module:Z4", "-w", str(broken)],
                        capsys)
    assert code == 1
    assert "broken.json:1:" in err  # parse location survives to stderr

    malformed = [
        ([], "workspace: workspace must be a JSON object"),
        ({}, 'workspace: a workspace needs a "ring"'),
        ({"ring": "Z", "chains": []}, "chains: expected an object of named entries"),
    ]
    for data, message in malformed:
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(data))
        code, _, err = _run(["eval", "chain:X_ex", "module:Z4", "-w", str(bad)], capsys)
        assert (code, err) == (1, f"error: {message}\n")

    code, _, err = _run(["eval", "chain", "module:Z4"] + W, capsys)
    assert (code, err) == (1, "error: chain: references look like kind:name\n")

    code, _, err = _run(["eval", "chain:X_ex", "module:Z4"], capsys)
    assert (code, err) == (1, "error: this command needs -w/--workspace FILE\n")

    code, _, err = _run(["dual", "pair:P_col"] + W, capsys)
    assert code == 2 and "convention" in err.lower()

    def broken_invariant(x):
        raise InternalInvariantError("a certified solve failed")

    monkeypatch.setattr(freeabcat.cli, "is_zero_object", broken_invariant)
    code, out, err = _run(["iszero", "chain:X_ex"] + W, capsys)
    assert (code, out, err) == (3, "", "internal error: a certified solve failed\n")


@pytest.mark.parametrize("to_kind", ["chain", "pair", "square"])
def test_cli_convert_rejects_an_unknown_convention_for_every_target(to_kind, capsys):
    code, out, err = _run(["convert", "chain:X_ex", "--to", to_kind,
                           "--convention", "bogus"] + W, capsys)
    assert (code, out, err) == (2, "", "error: unknown convention 'bogus'\n")


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_help_shows_one_placeholder_per_slot(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "-h"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.startswith(f"usage: freeabcat {name} ")
    placeholders = re.findall(r"(\S+):NAME", usage)
    assert [p.split("|") for p in placeholders] == [list(kinds) for kinds in COMMANDS[name][1]]


# a reference of each kind in the example workspace, and the flags a command needs
_EXAMPLE_REF = {kind: f"{kind}:{sorted(json.loads(EXAMPLE.read_text())[spec.section])[0]}"
                for kind, spec in KINDS.items()}
_NEEDED_FLAGS = {"convert": ["--to", "chain"]}


@pytest.mark.parametrize("name,slot", [(name, i) for name, (_, slots, _) in COMMANDS.items()
                                       for i in range(len(slots))])
def test_cli_rejects_a_reference_of_a_kind_the_slot_does_not_take(name, slot, capsys):
    slots = COMMANDS[name][1]
    kinds = slots[slot]
    wrong = _EXAMPLE_REF[next(kind for kind in sorted(KINDS) if kind not in kinds)]
    refs = [wrong if i == slot else _EXAMPLE_REF[k[0]] for i, k in enumerate(slots)]
    code, out, err = _run([name, *refs, *_NEEDED_FLAGS.get(name, [])] + W, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {wrong}: expected a reference of kind {' or '.join(kinds)}\n"


def test_cli_rejects_a_workspace_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"ring": "Z", "modules": {"caf\xe9": {}}}')
    code, _, err = _run(["eval", "chain:X_ex", "module:Z4", "-w", str(bad)], capsys)
    assert code == 1
    assert err.startswith("error:") and "latin1.json" in err


def test_cli_rejects_json_nested_past_the_recursion_limit(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, _, err = _run(["eval", "chain:X_ex", "module:Z4", "-w", str(deep)], capsys)
    assert code == 1
    assert err.startswith("error:") and "deep.json" in err


def test_cli_rejects_an_integer_past_the_digit_limit(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"ring": "Z", "matrices": {"m": [[' + "7" * 5000 + ']]}}')
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        code, _, err = _run(["snf", "matrix:m", "-w", str(big)], capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1
    assert err.startswith("error:") and "big.json" in err


def _huge_transform_workspace(tmp_path) -> tuple[pathlib.Path, Matrix]:
    """A unimodular 9x9 matrix of entries up to about 1016 bits, whose own
    Smith transforms have entries far past CPython's 4300-digit limit."""
    rng = random.Random(7)
    m = Matrix.from_rows(ZZ, [[rng.randint(-2**20, 2**20) for _ in range(9)]
                              for _ in range(8)])
    u = snf(m).Q
    ws = tmp_path / "huge.json"
    ws.write_text(json.dumps({"ring": "Z", "matrices": {"u": u.to_rows()}}))
    return ws, u


def _huge_smith_entry_workspace(tmp_path) -> tuple[pathlib.Path, Matrix]:
    """[[a, 1], [0, b]] for coprime a and b = a + 1 of 2,200 digits each:
    its Smith form is diag(1, a * b), whose last entry has about 4,400
    digits, past the limit through S alone; its transforms stay small."""
    a = random.Random(7).randrange(10 ** 2199, 10 ** 2200)
    u = Matrix.from_rows(ZZ, [[a, 1], [0, a + 1]])
    ws = tmp_path / "smith.json"
    ws.write_text(json.dumps({"ring": "Z", "matrices": {"u": u.to_rows()}}))
    return ws, u


def test_cli_writes_results_past_the_digit_limit(tmp_path, capsys):
    """`snf` writes S, P and Q in text and in --json form however many
    digits they have, and restores the digit limit afterwards: once on a
    matrix whose transform Q passes the limit (through the coefficient
    growth of ROADMAP item 3), once on one whose S passes it."""
    for make, key in ((_huge_transform_workspace, "Q"), (_huge_smith_entry_workspace, "S")):
        ws, u = make(tmp_path)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # CPython's default
        try:
            text = _run(["snf", "matrix:u", "-w", str(ws)], capsys)
            as_json = _run(["snf", "matrix:u", "-w", str(ws), "--json"], capsys)
            assert sys.get_int_max_str_digits() == 4300  # restored after writing
            sys.set_int_max_str_digits(0)
            got = json.loads(as_json[1])
            from_text = {line.split(" ")[0]: json.loads(line.split(" = ")[1])
                         for line in text[1].splitlines()}
        finally:
            sys.set_int_max_str_digits(limit)
        assert text[0] == as_json[0] == 0 and text[2] == as_json[2] == ""
        assert from_text == got
        s, p, q = (Matrix.from_rows(ZZ, got[k]) for k in ("S", "P", "Q"))
        assert max(abs(v).bit_length() for row in got[key] for v in row) > 14300
        assert p @ u @ q == s


@pytest.mark.parametrize("argv,unbuffered", [([], False), (["--json"], True)],
                         ids=["text-flushed-at-exit", "json-unbuffered"])
def test_cli_with_a_closed_stdout_keeps_its_code_and_writes_no_error(argv, unbuffered):
    """A cold child whose stdout is a pipe with its read end closed before
    the child writes: the command exits with its own code and writes
    nothing to stderr, whether the write fails in `main` (unbuffered) or
    would fail in the flush at exit (a short buffered output)."""
    read, write = os.pipe()
    os.close(read)
    env = {"PYTHONPATH": str(REPO / "src"), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
    try:
        proc = subprocess.run([sys.executable, "-B", "-m", "freeabcat.cli", "eval", "chain:X_ex",
                               "module:Z4", "-w", str(EXAMPLE), *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_cli_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "freeabcat.cli",
         "eval", "chain:X_ex", "module:Z4", "--json", "-w", str(EXAMPLE)],
        capture_output=True, text=True, cwd=str(REPO))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"invariant_factors": [2]}


def test_cli_and_suites_load_only_the_standard_library():
    """A cold child under `python -S`, where no site-packages directory or
    .pth hook is reachable: importing the CLI loads neither the suites,
    their random generators, `dataclasses` nor `inspect`; `selftest
    --json` passes all eight suites, and then only freeabcat and modules
    of the standard library are loaded.  `-B` keeps the child from
    writing bytecode into the source tree, since its environment is only
    PYTHONPATH; `-W error` fails it on any warning."""
    probe = ("import json, sys, freeabcat.cli\n"
             "early = [m for m in ('freeabcat.suites', 'freeabcat.randgen', 'dataclasses', 'inspect')"
             " if m in sys.modules]\n"
             "code = freeabcat.cli.main(['selftest', '--json'])\n"
             "print(json.dumps([code, early, sorted(m for m in sys.modules if m != '__main__'"
             " and m.partition('.')[0] not in (*sys.stdlib_module_names, 'freeabcat'))]))")
    proc = subprocess.run([sys.executable, "-B", "-W", "error", "-S", "-c", probe],
                          capture_output=True, text=True, cwd=str(REPO),
                          env={"PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    selftest, loaded = map(json.loads, proc.stdout.splitlines())
    assert loaded == [0, [], []]
    assert selftest["ok"] is True and len(selftest["results"]) == 8


def test_cli_selftest_passes(capsys):
    code, out, _ = _run(["selftest", "--json"], capsys)
    assert code == 0
    got = json.loads(out)
    assert got["ok"] is True
    assert len(got["results"]) == 8


def test_cli_selftest_takes_no_workspace():
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "-w", "x"])
    assert exc.value.code == 2
