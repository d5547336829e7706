"""JSON encoding of every value the command line reads or writes.

Matrices are row-major nested integer lists; a zero-row matrix loses its
column count that way, so shape hints are accepted on input and emitted
whenever a serialized object could be ambiguous.  A matrix read gets one
type scan of its rows and entries, and only one that fails it is walked
row by row for the first bad row.  Parse errors carry a dotted location
into the offending document.

`KINDS` is the one table of object kinds that the workspace and the
command line dispatch on.
"""

from __future__ import annotations

import itertools

from .chains import ChainMorphism, ChainObject
from .definable import (
    DefinableFamily,
    DefinablePair,
    dual_chain,
    dual_pair,
    dual_square,
    normalize_convention,
    pair_to_chain,
)
from .errors import FreeabcatError, WorkspaceError
from .fpmodules import FpModule
from .linalg import Matrix, RingSpec, Zmod, ZZ, _Value
from .squares import FpSquare, square_to_chain


def _fail(where: str, message: str):
    raise WorkspaceError(message, location=where)


def _ints(data, where: str) -> list[int]:
    if not isinstance(data, list) or any(type(v) is not int for v in data):
        _fail(where, "expected a list of integers")
    return data


def _fields(data, where: str, noun: str, ring: RingSpec | None,
            required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """`data` as an object with every `required` key and no keys beyond
    those and `optional`; one that restates the ring (allowed unless
    `ring` is None) must name `ring`."""
    if not isinstance(data, dict):
        _fail(where, f"expected an object, got {type(data).__name__}")
    extra = sorted(set(data) - {*required, *optional, *(() if ring is None else ("ring",))})
    if extra:
        _fail(where, f"unknown keys: {', '.join(extra)}")
    if "ring" in data and ring_from_json(data["ring"], f"{where}.ring") != ring:
        _fail(f"{where}.ring", "does not match the workspace ring")
    for key in required:
        if key not in data:
            _fail(where, f'{noun} needs "{key}"')
    return data


def _hint(data: dict, key: str, n: int, where: str) -> list:
    """The `ranks` or `shape` hint `key`: n nonnegative integers, or n
    Nones when it is absent."""
    if key not in data:
        return [None] * n
    hint = _ints(data[key], f"{where}.{key}")
    if len(hint) != n or any(v < 0 for v in hint):
        _fail(f"{where}.{key}", f"expected {n} nonnegative integers")
    return hint


def _built(where: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, with a failed construction reported at `where`."""
    try:
        return make(*args, **kwargs)
    except FreeabcatError as exc:
        _fail(where, str(exc))


# -- rings -------------------------------------------------------------


def ring_to_json(ring: RingSpec):
    if ring.is_modular:
        return {"Zmod": ring.modulus}
    return "Z"


def ring_from_json(data, where: str = "ring") -> RingSpec:
    if data == "Z":
        return ZZ
    if isinstance(data, dict) and set(data) == {"Zmod"}:
        n = data["Zmod"]
        if type(n) is not int or n < 2:
            _fail(where, "Zmod modulus must be an integer >= 2")
        return Zmod(n)
    _fail(where, 'expected "Z" or {"Zmod": n}')


# -- matrices ----------------------------------------------------------


def matrix_to_json(m: Matrix):
    """Rows of ints; a bool entry, which `Matrix` accepts, is written as its int."""
    if m.rows == 0 and m.cols > 0:
        return {"shape": [m.rows, m.cols], "entries": []}
    return [list(map(int, row)) for row in m.to_rows()]


def matrix_from_json(ring: RingSpec, data, where: str,
                     rows: int | None = None, cols: int | None = None) -> Matrix:
    if isinstance(data, dict):
        _fields(data, where, "a matrix object", None, ("shape", "entries"))
        shape = _hint(data, "shape", 2, where)
        for want, got, what in zip((rows, cols), shape, ("rows", "columns")):
            if want not in (None, got):
                _fail(f"{where}.shape", f"expected {want} {what}")
        rows, cols = shape
        data = data["entries"]
    if not isinstance(data, list):
        _fail(where, "expected a nested list of integers")
    if not ({list}.issuperset(map(type, data))
            and {int}.issuperset(map(type, itertools.chain.from_iterable(data)))):
        for i, row in enumerate(data):  # the first bad row is the one reported
            _ints(row, f"{where}[{i}]")
    if rows is not None and len(data) != rows:
        _fail(where, f"expected {rows} rows, got {len(data)}")
    return _built(where, Matrix.from_rows, ring, data, cols=cols)


# -- chains and morphisms ----------------------------------------------


def chain_to_json(x: ChainObject):
    return {
        "ranks": list(x.ranks),
        "m1": matrix_to_json(x.m1),
        "m2": matrix_to_json(x.m2),
    }


def chain_from_json(ring: RingSpec, data, where: str = "chain") -> ChainObject:
    data = _fields(data, where, "a chain", ring, ("m1", "m2"), ("ranks",))
    n1, n2, n3 = _hint(data, "ranks", 3, where)
    m1 = matrix_from_json(ring, data["m1"], f"{where}.m1", rows=n2, cols=n1)
    m2 = matrix_from_json(ring, data["m2"], f"{where}.m2", rows=n3, cols=m1.rows)
    return _built(where, ChainObject, ring, m1, m2)


def morphism_to_json(u: ChainMorphism, src_name: str, dst_name: str):
    return {
        "src": src_name,
        "dst": dst_name,
        "a1": matrix_to_json(u.a1),
        "a2": matrix_to_json(u.a2),
        "a3": matrix_to_json(u.a3),
    }


def morphism_from_json(ring: RingSpec, data, chains: dict[str, ChainObject],
                       where: str = "morphism") -> ChainMorphism:
    data = _fields(data, where, "a morphism", ring, ("src", "dst", "a1", "a2", "a3"))
    for key in ("src", "dst"):
        if not isinstance(data[key], str):
            _fail(f"{where}.{key}", "expected a chain name")
        if data[key] not in chains:
            _fail(f"{where}.{key}", f"unknown chain {data[key]!r}")
    src, dst = chains[data["src"]], chains[data["dst"]]
    comps = [
        matrix_from_json(ring, data[key], f"{where}.{key}", rows=r, cols=c)
        for key, r, c in zip(("a1", "a2", "a3"), dst.ranks, src.ranks)
    ]
    return _built(where, ChainMorphism, src, dst, *comps)


# -- squares -----------------------------------------------------------


def square_to_json(s: FpSquare):
    return {
        "ranks": list(s.ranks),
        "f": matrix_to_json(s.f),
        "a": matrix_to_json(s.a),
        "b": matrix_to_json(s.b),
        "g": matrix_to_json(s.g),
    }


def square_from_json(ring: RingSpec, data, where: str = "square") -> FpSquare:
    data = _fields(data, where, "a square", ring, ("f", "a", "b", "g"), ("ranks",))
    tl, tr, bl, br = _hint(data, "ranks", 4, where)
    f = matrix_from_json(ring, data["f"], f"{where}.f", rows=tr, cols=tl)
    a = matrix_from_json(ring, data["a"], f"{where}.a", rows=bl, cols=f.cols)
    b = matrix_from_json(ring, data["b"], f"{where}.b", rows=br, cols=f.rows)
    g = matrix_from_json(ring, data["g"], f"{where}.g", rows=b.rows, cols=a.rows)
    return _built(where, FpSquare, ring, f, a, b, g)


# -- modules -----------------------------------------------------------


def module_to_json(m: FpModule):
    factors = list(m.invariant_factors)
    if m == FpModule.from_invariant_factors(m.ring, factors):
        return {"invariant_factors": factors}
    return {"ambient_rank": m.ambient_rank, "relations": matrix_to_json(m.relations)}


def module_from_json(ring: RingSpec, data, where: str = "module") -> FpModule:
    if isinstance(data, dict) and "ring" in data:  # a bad ring is reported before a bad key
        _fields({"ring": data["ring"]}, where, "a module", ring, ())
    if isinstance(data, dict) and "invariant_factors" in data:
        _fields(data, where, "a module", ring, ("invariant_factors",))
        factors = _ints(data["invariant_factors"], f"{where}.invariant_factors")
        return _built(where, FpModule.from_invariant_factors, ring, factors)
    data = _fields(data, where, 'a module without "invariant_factors"', ring,
                   ("ambient_rank", "relations"))
    rank = data["ambient_rank"]
    if type(rank) is not int or rank < 0:
        _fail(f"{where}.ambient_rank", "expected a nonnegative integer")
    rel = matrix_from_json(ring, data["relations"], f"{where}.relations", rows=rank)
    return FpModule(ring, rank, rel)


# -- pairs and families --------------------------------------------------


def pair_to_json(p: DefinablePair):
    return {
        "U": matrix_to_json(p.u),
        "V": matrix_to_json(p.v),
        "ushape": [p.u.rows, p.u.cols],
        "vshape": [p.v.rows, p.v.cols],
        "convention": p.convention,
    }


def pair_from_json(ring: RingSpec, data, where: str = "pair") -> DefinablePair:
    data = _fields(data, where, "a pair", ring, ("U", "V", "convention"), ("ushape", "vshape"))
    ushape, vshape = _hint(data, "ushape", 2, where), _hint(data, "vshape", 2, where)
    if not isinstance(data["convention"], str):
        _fail(f"{where}.convention", "expected a convention name")
    convention = _built(f"{where}.convention", normalize_convention, data["convention"])
    u = matrix_from_json(ring, data["U"], f"{where}.U", *ushape)
    v = matrix_from_json(ring, data["V"], f"{where}.V", *vshape)
    return _built(where, DefinablePair, ring, u, v, convention)


def family_to_json(fam: DefinableFamily):
    return {"chains": [chain_to_json(x) for x in fam.members]}


def family_from_json(ring: RingSpec, data, where: str = "family") -> DefinableFamily:
    data = _fields(data, where, "a family", ring, (), ("chains", "pairs"))
    if "chains" not in data and "pairs" not in data:
        _fail(where, 'a family needs "chains" or "pairs"')
    members = []
    for key, reader in (("chains", chain_from_json), ("pairs", pair_from_json)):
        items = data.get(key, [])
        if not isinstance(items, list):
            _fail(f"{where}.{key}", "expected a list")
        for i, item in enumerate(items):
            parsed = reader(ring, item, f"{where}.{key}[{i}]")
            members.append(pair_to_chain(parsed) if key == "pairs" else parsed)
    return DefinableFamily(ring, tuple(members))


# -- the kind table ------------------------------------------------------


class Kind(_Value):
    """What one `kind:name` reference is: its workspace section and codec,
    and for the three presentations of a chain the way to a chain and the
    dual.  A morphism's codec also takes the chains its ends name."""

    def __init__(self, section: str, from_json, to_json, to_chain=None, dual=None):
        vars(self).update(section=section, from_json=from_json, to_json=to_json,
                          to_chain=to_chain, dual=dual)


# in workspace section order: morphisms are read after the chains they name
KINDS = {
    "chain": Kind("chains", chain_from_json, chain_to_json, lambda x: x, dual_chain),
    "square": Kind("squares", square_from_json, square_to_json, square_to_chain, dual_square),
    "module": Kind("modules", module_from_json, module_to_json),
    "pair": Kind("pairs", pair_from_json, pair_to_json, pair_to_chain, dual_pair),
    "family": Kind("families", family_from_json, family_to_json),
    "morphism": Kind("morphisms", morphism_from_json, morphism_to_json),
    "matrix": Kind("matrices", matrix_from_json, matrix_to_json),
}
