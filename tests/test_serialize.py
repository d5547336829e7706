"""Reject paths of the workspace readers: every malformed entry is a
WorkspaceError whose location is the dotted path to the offending value.

Each case is (section, entry, location suffix); the entry is read as
`<section>.e` of a workspace over Z that also holds the chain `x`, so a
morphism has ends to name.
"""

import json

import pytest

from freeabcat.cli import main
from freeabcat.errors import WorkspaceError
from freeabcat.workspace import parse_workspace

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
