"""Reject paths of the workspace readers: every malformed entry is a
WorkspaceError whose location is the dotted path to the offending value.

Each case is (section, entry, location suffix); the entry is read as
`<section>.e` of a workspace over Z that also holds the chain `x`, so a
morphism has ends to name.
"""

import itertools
import json
import pathlib
import random
import types

import pytest

import freeabcat.cli
from freeabcat import serialize
from freeabcat.cli import main
from freeabcat.errors import DimensionMismatch, WorkspaceError
from freeabcat.linalg import Matrix
from freeabcat.workspace import parse_workspace

EXAMPLE = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "example_workspace.json"

X = {"m1": [[-1], [2]], "m2": [[0, -1]]}
CHAIN = {"m1": [[1]], "m2": [[1]]}
SQUARE = {"f": [[1]], "a": [[2]], "b": [[2]], "g": [[1]]}
MODULE = {"ambient_rank": 1, "relations": [[2]]}
PAIR = {"U": [[1]], "V": [[1]], "convention": "column"}
MORPHISM = {"src": "x", "dst": "x", "a1": [[1]], "a2": [[1, 0], [0, 1]], "a3": [[1]]}
MATRIX = {"shape": [1, 1], "entries": [[1]]}

_DROP = object()  # a change that removes the key


def _with(base: dict, **changes) -> dict:
    out = {**base, **changes}
    return {k: v for k, v in out.items() if v is not _DROP}


# what every reader shares: not an object, an unknown key, a restated ring
# that disagrees or is not a ring, and each missing required key
COMMON = [
    (section, bad, where)
    for section, base, required in (
        ("chains", CHAIN, ("m1", "m2")),
        ("squares", SQUARE, ("f", "a", "b", "g")),
        ("modules", MODULE, ("ambient_rank", "relations")),
        ("pairs", PAIR, ("U", "V", "convention")),
        ("morphisms", MORPHISM, ("src", "dst", "a1", "a2", "a3")),
    )
    for bad, where in (
        (5, ""),
        ([base], ""),
        (_with(base, extra=1), ""),
        (_with(base, ring={"Zmod": 4}), ".ring"),
        (_with(base, ring="Q"), ".ring"),
        (_with(base, ring={"Zmod": True}), ".ring"),
        *((_with(base, **{key: _DROP}), "") for key in required),
    )
]

SPECIFIC = [
    # chains: the ranks hint, entries, row counts, composability
    ("chains", _with(CHAIN, ranks="abc"), ".ranks"),
    ("chains", _with(CHAIN, ranks=[1, 1]), ".ranks"),
    ("chains", _with(CHAIN, ranks=[1, -1, 1]), ".ranks"),
    ("chains", _with(CHAIN, ranks=[1, True, 1]), ".ranks"),
    ("chains", _with(CHAIN, ranks=[1, 2, 1]), ".m1"),
    ("chains", _with(CHAIN, m1=[[True]]), ".m1[0]"),
    ("chains", _with(CHAIN, m1=[[1, 2], [3]]), ".m1"),
    ("chains", _with(CHAIN, m1="x"), ".m1"),
    ("chains", _with(CHAIN, m1=[[1.5]]), ".m1[0]"),
    ("chains", _with(CHAIN, m2=[[1, 2]]), ".m2"),
    ("chains", _with(CHAIN, m1=[], m2=[[1]]), ".m2"),
    # squares
    ("squares", _with(SQUARE, ranks=[1, 1, 1]), ".ranks"),
    ("squares", _with(SQUARE, ranks=[1, 1, 1, False]), ".ranks"),
    ("squares", _with(SQUARE, ranks=[1, 1, 1, 2]), ".b"),
    ("squares", _with(SQUARE, f=[[True]]), ".f[0]"),
    ("squares", _with(SQUARE, g=[[1, 2], [3]]), ".g"),
    ("squares", _with(SQUARE, a=[[1, 1]]), ".a"),
    ("squares", _with(SQUARE, g=[[3]]), ""),
    # modules, in both forms
    ("modules", {"invariant_factors": "x"}, ".invariant_factors"),
    ("modules", {"invariant_factors": [2, True]}, ".invariant_factors"),
    ("modules", {"invariant_factors": [2], "relations": []}, ""),
    ("modules", {"invariant_factors": [2], "ring": {"Zmod": 2}}, ".ring"),
    ("modules", {}, ""),
    ("modules", _with(MODULE, ambient_rank=True), ".ambient_rank"),
    ("modules", _with(MODULE, ambient_rank=-1), ".ambient_rank"),
    ("modules", _with(MODULE, ambient_rank="1"), ".ambient_rank"),
    ("modules", _with(MODULE, ambient_rank=2), ".relations"),
    ("modules", _with(MODULE, relations=[[True]]), ".relations[0]"),
    ("modules", _with(MODULE, relations=[[1, 2], [3]]), ".relations"),
    # pairs: the *shape hints and the convention
    ("pairs", _with(PAIR, ushape=[1]), ".ushape"),
    ("pairs", _with(PAIR, vshape=[True, 1]), ".vshape"),
    ("pairs", _with(PAIR, ushape=[-1, 1]), ".ushape"),
    ("pairs", _with(PAIR, ushape="1x1"), ".ushape"),
    ("pairs", _with(PAIR, vshape=[2, 1]), ".V"),
    ("pairs", _with(PAIR, convention=3), ".convention"),
    ("pairs", _with(PAIR, convention="sideways"), ".convention"),
    ("pairs", _with(PAIR, U=[[True]]), ".U[0]"),
    ("pairs", _with(PAIR, V=[[1], [2]], convention="paper"), ""),
    # morphisms: the ends and the components
    ("morphisms", _with(MORPHISM, src=3), ".src"),
    ("morphisms", _with(MORPHISM, dst="nope"), ".dst"),
    ("morphisms", _with(MORPHISM, a2=[[1, 0]]), ".a2"),
    ("morphisms", _with(MORPHISM, a3=[[True]]), ".a3[0]"),
    ("morphisms", _with(MORPHISM, a1=[[2]]), ""),
    # families
    ("families", 5, ""),
    ("families", {"chains": [], "extra": 1}, ""),
    ("families", {"chains": [], "ring": {"Zmod": 4}}, ".ring"),
    ("families", {}, ""),
    ("families", {"chains": 3}, ".chains"),
    ("families", {"pairs": {}}, ".pairs"),
    ("families", {"chains": [CHAIN, 5]}, ".chains[1]"),
    ("families", {"chains": [_with(CHAIN, ring={"Zmod": 3})]}, ".chains[0].ring"),
    ("families", {"pairs": [_with(PAIR, convention=_DROP)]}, ".pairs[0]"),
    ("families", {"pairs": [_with(PAIR, U=[[1, 2]])]}, ".pairs[0]"),
    # matrices, as nested lists and in the dict form
    ("matrices", 5, ""),
    ("matrices", [5], "[0]"),
    ("matrices", [[True]], "[0]"),
    ("matrices", [[1, 2], [3]], ""),
    ("matrices", _with(MATRIX, extra=1), ""),
    ("matrices", _with(MATRIX, ring="Z"), ""),
    ("matrices", _with(MATRIX, shape=_DROP), ""),
    ("matrices", _with(MATRIX, entries=_DROP), ""),
    ("matrices", _with(MATRIX, shape=[1]), ".shape"),
    ("matrices", _with(MATRIX, shape=[True, 1]), ".shape"),
    ("matrices", _with(MATRIX, shape=[-1, 1]), ".shape"),
    ("matrices", _with(MATRIX, shape=None), ".shape"),
    ("matrices", _with(MATRIX, shape=[2, 1]), ""),
    ("matrices", _with(MATRIX, shape=[1, 2]), ""),
    ("matrices", _with(MATRIX, entries=[[True]]), "[0]"),
    ("matrices", _with(MATRIX, entries={}), ""),
    # bad input past row 0: the first bad row is reported, and before the row count
    ("chains", _with(CHAIN, m2=[[1], [1.5]]), ".m2[1]"),
    ("matrices", [[1], [True]], "[1]"),
    ("matrices", [[1], [2], 5], "[2]"),
    ("matrices", _with(MATRIX, shape=[2, 1], entries=[[True]]), "[0]"),
]


@pytest.mark.parametrize("section,entry,where", COMMON + SPECIFIC)
def test_reader_rejects_at_its_dotted_location(section, entry, where):
    with pytest.raises(WorkspaceError) as err:
        parse_workspace({"ring": "Z", "chains": {"x": X}, section: {"e": entry}})
    assert err.value.location == f"{section}.e{where}"


@pytest.mark.parametrize("ring", [{"Zmod": 1}, {"Zmod": True}, {"Zmod": 4, "x": 1}, "Q", None])
def test_workspace_ring_rejects_at_ring(ring):
    with pytest.raises(WorkspaceError) as err:
        parse_workspace({"ring": ring})
    assert err.value.location == "ring"


def test_readers_accept_the_base_entries():
    ws = parse_workspace({
        "ring": "Z", "chains": {"x": X, "e": _with(CHAIN, ranks=[1, 1, 1])},
        "squares": {"e": _with(SQUARE, ranks=[1, 1, 1, 1], ring="Z")},
        "modules": {"e": MODULE}, "pairs": {"e": _with(PAIR, ushape=[1, 1])},
        "morphisms": {"e": MORPHISM}, "matrices": {"e": MATRIX},
        "families": {"e": {"chains": [CHAIN], "pairs": [PAIR]}},
    })
    assert len(ws.families["e"].members) == 2


def test_cli_reports_a_reader_reject_with_exit_1(tmp_path, capsys):
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({"ring": "Z", "squares": {"s": _with(SQUARE, g=[[3]])}}))
    assert main(["dual", "square:s", "-w", str(ws)]) == 1
    assert capsys.readouterr().err.startswith("error: squares.s: ")


# -- differential mutation fuzz: the one-pass matrix scan against the
#    per-row reader it replaced, kept here as the oracle


def _from_rows_per_row(ring, rows, cols):
    c = len(rows[0]) if rows else (0 if cols is None else cols)
    if any(len(row) != c for row in rows):
        raise DimensionMismatch("ragged rows")
    if cols is not None and cols != c:
        raise DimensionMismatch(f"declared cols {cols} but rows have {c}")
    return Matrix(ring, len(rows), c, tuple(itertools.chain.from_iterable(rows)))


def _matrix_from_json_per_row(ring, data, where, rows=None, cols=None):
    """Every row checked at its own location, then the row count, then the
    shape."""
    if isinstance(data, dict):
        serialize._fields(data, where, "a matrix object", None, ("shape", "entries"))
        shape = serialize._hint(data, "shape", 2, where)
        for want, got, what in zip((rows, cols), shape, ("rows", "columns")):
            if want not in (None, got):
                serialize._fail(f"{where}.shape", f"expected {want} {what}")
        rows, cols = shape
        data = data["entries"]
    if not isinstance(data, list):
        serialize._fail(where, "expected a nested list of integers")
    for i, row in enumerate(data):
        if not isinstance(row, list) or any(type(v) is not int for v in row):
            serialize._fail(f"{where}[{i}]", "expected a list of integers")
    if rows is not None and len(data) != rows:
        serialize._fail(where, f"expected {rows} rows, got {len(data)}")
    return serialize._built(where, _from_rows_per_row, ring, data, cols)


MATRIX_KEYS = {"m1", "m2", "f", "a", "b", "g", "a1", "a2", "a3", "U", "V", "relations"}
BAD_ENTRIES = (True, 1.5, "x", None, [1], 2**70)  # 2**70 is a valid entry
NON_ROWS = (5, "12", None, {"0": 1}, True)


def _matrix_paths(node, path=()):
    """The key paths of every matrix in a workspace."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if key in MATRIX_KEYS or path == ("matrices",):
            yield (*path, key)
        elif isinstance(value, (dict, list)):
            yield from _matrix_paths(value, (*path, key))


def _mutated(rng: random.Random, base: dict, paths: list) -> dict:
    """`base` with one to three matrices at `paths` mutated, once or twice
    each: an entry made bad, a row made a non-list, a row dropped, grown,
    shrunk or inserted.  One in five is read in the dict form, its shape
    taken before the mutations.  Only the containers on the way to a
    mutated matrix are copied."""
    data = base.copy()
    for *path, key in rng.sample(paths, rng.randint(1, 3)):
        node = data
        for step in path:
            node[step] = node[step].copy()
            node = node[step]
        m = node[key] = [row.copy() for row in node[key]]
        if rng.random() < 0.2:
            node[key] = {"shape": [len(m), len(m[0]) if m else 0], "entries": m}
        for _ in range(rng.randint(1, 2)):
            rows = [i for i, row in enumerate(m) if isinstance(row, list)]
            cells = [(i, j) for i in rows for j in range(len(m[i]))]
            op = rng.randrange(6)
            if op == 0 and cells:
                i, j = rng.choice(cells)
                m[i][j] = rng.choice(BAD_ENTRIES)
            elif op == 1 and rows:
                m[rng.choice(rows)] = rng.choice(NON_ROWS)
            elif op == 2 and rows:
                del m[rng.choice(rows)]
            elif op == 3 and rows:
                m[rng.choice(rows)].append(rng.randint(-3, 3))
            elif op == 4 and cells:
                m[rng.choice(cells)[0]].pop()
            else:
                m.insert(rng.randint(0, len(m)), [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
    return data


def _outcome(reader, *args, **kwargs):
    """What `reader(*args, **kwargs)` returns, or the type, message and
    location of what it raises; then the error itself, or None."""
    try:
        value = reader(*args, **kwargs)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "location", None)), exc
    return value, None


def test_matrix_scan_reads_as_the_per_row_reader(monkeypatch, capsys):
    """2,000 seeded mutations of the example workspace, each read through
    `main`.  Every matrix read returns the per-row reader's matrix or
    raises its error (type, message and location), so each workspace is
    accepted or rejected as by the per-row reader, and a reject exits 1."""
    base = json.loads(EXAMPLE.read_text())
    paths = list(_matrix_paths(base))
    rng, scan = random.Random(20251020), serialize.matrix_from_json
    parsed = freeabcat.cli.build_parser().parse_args(["iszero", "chain:X_ex", "-w", "mutated"])

    def both(*args, **kwargs):
        (got, exc), (want, _) = (_outcome(scan, *args, **kwargs),
                                 _outcome(_matrix_from_json_per_row, *args, **kwargs))
        assert got == want
        if exc is not None:
            raise exc
        return got

    monkeypatch.setattr(serialize, "matrix_from_json", both)
    kind = serialize.KINDS["matrix"]
    monkeypatch.setitem(serialize.KINDS, "matrix",
                        serialize.Kind(kind.section, both, kind.to_json, kind.to_chain, kind.dual))
    # parsed once: argparse would take a third of the time
    monkeypatch.setattr(freeabcat.cli, "build_parser",
                        lambda: types.SimpleNamespace(parse_args=lambda argv: parsed))
    monkeypatch.setattr(freeabcat.cli, "load_workspace",
                        lambda _: parse_workspace(_mutated(rng, base, paths)))
    codes = [main() for _ in range(2000)]
    rejects = capsys.readouterr().err.splitlines()
    assert sorted(set(codes)) == [0, 1] and codes.count(1) == len(rejects) > 1800
    assert all(line.startswith("error: ") for line in rejects)
