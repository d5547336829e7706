"""JSON encoding of every value the command line reads or writes.

Matrices are row-major nested integer lists; a zero-row matrix loses its
column count that way, so shape hints are accepted on input and emitted
whenever a serialized object could be ambiguous.  Parse errors carry a
dotted location into the offending document.

`KINDS` is the one table of object kinds that the workspace and the
command line dispatch on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
from .linalg import Matrix, RingSpec, Zmod, ZZ
from .squares import FpSquare, square_to_chain


def _fail(where: str, message: str):
    raise WorkspaceError(message, location=where)


def _expect_dict(data, where: str) -> dict:
    if not isinstance(data, dict):
        _fail(where, f"expected an object, got {type(data).__name__}")
    return data


def _expect_int_list(data, where: str) -> list[int]:
    if not isinstance(data, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in data
    ):
        _fail(where, "expected a list of integers")
    return data


def _check_keys(data: dict, allowed: set[str], where: str):
    extra = sorted(set(data) - allowed)
    if extra:
        _fail(where, f"unknown keys: {', '.join(extra)}")


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
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            _fail(where, "Zmod modulus must be an integer >= 2")
        return Zmod(n)
    _fail(where, 'expected "Z" or {"Zmod": n}')


def _check_ring(data: dict, ring: RingSpec, where: str):
    """Objects inside a workspace may restate the ring; it must agree."""
    if "ring" in data and ring_from_json(data["ring"], f"{where}.ring") != ring:
        _fail(f"{where}.ring", "does not match the workspace ring")


# -- matrices ----------------------------------------------------------


def matrix_to_json(m: Matrix):
    if m.rows == 0 and m.cols > 0:
        return {"shape": [m.rows, m.cols], "entries": []}
    return m.to_rows()


def matrix_from_json(ring: RingSpec, data, where: str,
                     rows: int | None = None, cols: int | None = None) -> Matrix:
    if isinstance(data, dict):
        _check_keys(data, {"shape", "entries"}, where)
        if "shape" not in data or "entries" not in data:
            _fail(where, 'matrix object form needs "shape" and "entries"')
        shape = _expect_int_list(data["shape"], f"{where}.shape")
        if len(shape) != 2 or shape[0] < 0 or shape[1] < 0:
            _fail(f"{where}.shape", "expected [rows, cols]")
        if rows is not None and rows != shape[0]:
            _fail(f"{where}.shape", f"expected {rows} rows")
        if cols is not None and cols != shape[1]:
            _fail(f"{where}.shape", f"expected {cols} columns")
        rows, cols = shape
        data = data["entries"]
    if not isinstance(data, list):
        _fail(where, "expected a nested list of integers")
    entries = [_expect_int_list(row, f"{where}[{i}]") for i, row in enumerate(data)]
    if rows is not None and len(entries) != rows:
        _fail(where, f"expected {rows} rows, got {len(entries)}")
    try:
        return Matrix.from_rows(ring, entries, cols=cols)
    except FreeabcatError as exc:
        _fail(where, str(exc))


# -- chains and morphisms ----------------------------------------------


def chain_to_json(x: ChainObject):
    return {
        "ranks": list(x.ranks),
        "m1": matrix_to_json(x.m1),
        "m2": matrix_to_json(x.m2),
    }


def chain_from_json(ring: RingSpec, data, where: str = "chain") -> ChainObject:
    data = _expect_dict(data, where)
    _check_keys(data, {"ring", "ranks", "m1", "m2"}, where)
    _check_ring(data, ring, where)
    if "m1" not in data or "m2" not in data:
        _fail(where, 'a chain needs "m1" and "m2"')
    n1 = n2 = n3 = None
    if "ranks" in data:
        ranks = _expect_int_list(data["ranks"], f"{where}.ranks")
        if len(ranks) != 3 or any(r < 0 for r in ranks):
            _fail(f"{where}.ranks", "expected three nonnegative ranks")
        n1, n2, n3 = ranks
    m1 = matrix_from_json(ring, data["m1"], f"{where}.m1", rows=n2, cols=n1)
    m2 = matrix_from_json(ring, data["m2"], f"{where}.m2", rows=n3, cols=m1.rows)
    try:
        return ChainObject(ring, m1, m2)
    except FreeabcatError as exc:
        _fail(where, str(exc))


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
    data = _expect_dict(data, where)
    _check_keys(data, {"ring", "src", "dst", "a1", "a2", "a3"}, where)
    _check_ring(data, ring, where)
    for key in ("src", "dst", "a1", "a2", "a3"):
        if key not in data:
            _fail(where, f'a morphism needs "{key}"')
    ends = []
    for key in ("src", "dst"):
        name = data[key]
        if not isinstance(name, str):
            _fail(f"{where}.{key}", "expected a chain name")
        if name not in chains:
            _fail(f"{where}.{key}", f"unknown chain {name!r}")
        ends.append(chains[name])
    src, dst = ends
    comps = [
        matrix_from_json(ring, data[key], f"{where}.{key}", rows=r, cols=c)
        for key, r, c in (
            ("a1", dst.n1, src.n1), ("a2", dst.n2, src.n2), ("a3", dst.n3, src.n3),
        )
    ]
    try:
        return ChainMorphism(src, dst, *comps)
    except FreeabcatError as exc:
        _fail(where, str(exc))


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
    data = _expect_dict(data, where)
    _check_keys(data, {"ring", "ranks", "f", "a", "b", "g"}, where)
    _check_ring(data, ring, where)
    for key in ("f", "a", "b", "g"):
        if key not in data:
            _fail(where, f'a square needs "{key}"')
    tl = tr = bl = br = None
    if "ranks" in data:
        ranks = _expect_int_list(data["ranks"], f"{where}.ranks")
        if len(ranks) != 4 or any(r < 0 for r in ranks):
            _fail(f"{where}.ranks", "expected four nonnegative ranks")
        tl, tr, bl, br = ranks
    f = matrix_from_json(ring, data["f"], f"{where}.f", rows=tr, cols=tl)
    a = matrix_from_json(ring, data["a"], f"{where}.a", rows=bl, cols=f.cols)
    b = matrix_from_json(ring, data["b"], f"{where}.b", rows=br, cols=f.rows)
    g = matrix_from_json(ring, data["g"], f"{where}.g", rows=b.rows, cols=a.rows)
    try:
        return FpSquare(ring, f, a, b, g)
    except FreeabcatError as exc:
        _fail(where, str(exc))


# -- modules -----------------------------------------------------------


def module_to_json(m: FpModule):
    factors = list(m.invariant_factors)
    if m == FpModule.from_invariant_factors(m.ring, factors):
        return {"invariant_factors": factors}
    return {"ambient_rank": m.ambient_rank, "relations": matrix_to_json(m.relations)}


def module_from_json(ring: RingSpec, data, where: str = "module") -> FpModule:
    data = _expect_dict(data, where)
    _check_ring(data, ring, where)
    if "invariant_factors" in data:
        _check_keys(data, {"ring", "invariant_factors"}, where)
        factors = _expect_int_list(data["invariant_factors"], f"{where}.invariant_factors")
        try:
            return FpModule.from_invariant_factors(ring, factors)
        except FreeabcatError as exc:
            _fail(where, str(exc))
    _check_keys(data, {"ring", "ambient_rank", "relations"}, where)
    if "ambient_rank" not in data or "relations" not in data:
        _fail(where, 'a module needs "invariant_factors" or "ambient_rank"+"relations"')
    rank = data["ambient_rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
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
    data = _expect_dict(data, where)
    _check_keys(data, {"ring", "U", "V", "ushape", "vshape", "convention"}, where)
    _check_ring(data, ring, where)
    for key in ("U", "V", "convention"):
        if key not in data:
            _fail(where, f'a pair needs "{key}"')
    shapes = {}
    for key in ("ushape", "vshape"):
        shapes[key] = (None, None)
        if key in data:
            shape = _expect_int_list(data[key], f"{where}.{key}")
            if len(shape) != 2 or any(v < 0 for v in shape):
                _fail(f"{where}.{key}", "expected [rows, cols]")
            shapes[key] = tuple(shape)
    if not isinstance(data["convention"], str):
        _fail(f"{where}.convention", "expected a convention name")
    try:
        convention = normalize_convention(data["convention"])
    except FreeabcatError as exc:
        _fail(f"{where}.convention", str(exc))
    u = matrix_from_json(ring, data["U"], f"{where}.U", *shapes["ushape"])
    v = matrix_from_json(ring, data["V"], f"{where}.V", *shapes["vshape"])
    try:
        return DefinablePair(ring, u, v, convention)
    except FreeabcatError as exc:
        _fail(where, str(exc))


def family_to_json(fam: DefinableFamily):
    return {"chains": [chain_to_json(x) for x in fam.members]}


def family_from_json(ring: RingSpec, data, where: str = "family") -> DefinableFamily:
    data = _expect_dict(data, where)
    _check_keys(data, {"ring", "chains", "pairs"}, where)
    _check_ring(data, ring, where)
    if "chains" not in data and "pairs" not in data:
        _fail(where, 'a family needs "chains" or "pairs"')
    members = []
    for key, reader in (("chains", chain_from_json), ("pairs", pair_from_json)):
        if key not in data:
            continue
        items = data[key]
        if not isinstance(items, list):
            _fail(f"{where}.{key}", "expected a list")
        for i, item in enumerate(items):
            parsed = reader(ring, item, f"{where}.{key}[{i}]")
            members.append(pair_to_chain(parsed) if key == "pairs" else parsed)
    return DefinableFamily(ring, tuple(members))


# -- the kind table ------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """What one `kind:name` reference is: its workspace section and codec,
    and for the three presentations of a chain the way to a chain and the
    dual.  A morphism's codec also takes the chains its ends name."""

    section: str
    from_json: Callable
    to_json: Callable
    to_chain: Callable | None = None
    dual: Callable | None = None


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
