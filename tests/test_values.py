"""Value semantics of the package's immutable records: construction,
equality, hashing, immutability and repr, for every record class; a
record's table of results is not a field, and rings are interned.

Each case gives a class, its fields in declaration order, and one field
with a second value that still makes a valid instance.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import freeabcat

from freeabcat.chains import (
    ChainMorphism,
    ChainObject,
    ChainWithMap,
    ImageFactorization,
    MiddleFactorization,
    embed_rank,
    identity_morphism,
)
from freeabcat.definable import (
    COLUMN,
    DefinableFamily,
    DefinablePair,
    chain_member,
    dual_chain,
    pair_to_chain,
)
from freeabcat.fpmodules import FpModule, SnakeSequence
from freeabcat.linalg import ZZ, Matrix, RingSpec, Zmod, _Value
from freeabcat.serialize import Kind, chain_from_json, chain_to_json, ring_from_json
from freeabcat.squares import FpSquare, evaluate_chain, evaluate_square
from freeabcat.workspace import Workspace


def _m(rows):
    return Matrix.from_rows(ZZ, rows)


_E = embed_rank(ZZ, 1)                       # 0 -> Z -> 0
_ID = identity_morphism(_E)
_DOUBLE = ChainMorphism(_E, _E, _ID.a1, _m([[2]]), _ID.a3)
_X = ChainObject(ZZ, _m([[-1], [2]]), _m([[0, -1]]))
_MOD = FpModule(ZZ, 1, _m([[2]]))

# (class, fields in declaration order, a field, another valid value of it)
CASES = [
    (RingSpec, {"modulus": 4}, "modulus", 6),
    (Matrix, {"ring": ZZ, "rows": 1, "cols": 2, "entries": (1, 2)}, "entries", (1, 3)),
    (FpModule, {"ring": ZZ, "ambient_rank": 1, "relations": _m([[2]])}, "relations", _m([[3]])),
    (SnakeSequence, {"terms": ((_m([[1]]), _m([[2]])),), "maps": (_m([[1]]),), "modules": (_MOD,)},
     "maps", (_m([[2]]),)),
    (ChainObject, {"ring": ZZ, "m1": _m([[-1], [2]]), "m2": _m([[0, -1]])}, "m1", _m([[1], [2]])),
    (ChainMorphism, {"src": _E, "dst": _E, "a1": _ID.a1, "a2": _ID.a2, "a3": _ID.a3},
     "a2", _m([[2]])),
    (ChainWithMap, {"object": _E, "morphism": _ID}, "morphism", _DOUBLE),
    (ImageFactorization, {"object": _E, "mono": _ID, "epi": _ID}, "epi", _DOUBLE),
    (MiddleFactorization, {"kernel_side": _ID, "cokernel_side": _ID, "connecting": _ID},
     "connecting", _DOUBLE),
    (FpSquare, {"ring": ZZ, "f": _m([[1]]), "a": _m([[2]]), "b": Matrix.zeros(ZZ, 0, 1),
                "g": Matrix.zeros(ZZ, 0, 1)}, "a", _m([[3]])),
    (DefinableFamily, {"ring": ZZ, "members": (_X,)}, "members", (_X, dual_chain(_X))),
    (DefinablePair, {"ring": ZZ, "u": _m([[1]]), "v": _m([[2]]), "convention": COLUMN},
     "v", _m([[3]])),
    (Kind, {"section": "chains", "from_json": chain_from_json, "to_json": chain_to_json,
            "to_chain": None, "dual": dual_chain}, "to_chain", dual_chain),
    (Workspace, {"ring": ZZ, "chains": {"x": _X}, "squares": {}, "modules": {"m": _MOD},
                 "pairs": {}, "families": {}, "morphisms": {}, "matrices": {}},
     "matrices", {"u": _m([[1]])}),
]


@pytest.mark.parametrize("cls, fields, name, other", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, fields, name, other):
    a, b = cls(**fields), cls(*fields.values())
    # positional and keyword construction agree, and each field reads back
    assert a == b and not a != b
    assert all(getattr(a, k) is v for k, v in fields.items())
    changed = cls(**{**fields, name: other})
    assert changed != a and not changed == a
    # compared by type and fields: a subclass with equal fields is not equal
    assert a != type("Sub", (cls,), {})(**fields)
    assert all(a != c(**f) for c, f, *_ in CASES if c is not cls)
    assert a != tuple(fields.values())
    if cls is Workspace:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for attempt in (lambda: setattr(a, name, other), lambda: setattr(a, "extra", 1),
                    lambda: delattr(a, name)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(a, name) is fields[name]
    if cls is Matrix:
        assert repr(a) == "Matrix(Z, 1x2, [[1, 2]])"
    else:
        assert repr(a) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"


def test_value_defaults_and_cached_fields():
    # the optional fields of Kind, and a fresh empty section per Workspace
    kind = Kind("modules", chain_from_json, chain_to_json)
    assert kind.to_chain is None and kind.dual is None
    first, second = Workspace(ZZ), Workspace(Zmod(4))
    assert first.chains == {} and first.chains is not second.chains
    assert first.matrices is not second.matrices
    assert first != Workspace(ZZ, chains={"x": _X})
    # a cached invariant_factors is not a field
    cached, fresh = FpModule(ZZ, 1, _m([[2]])), FpModule(ZZ, 1, _m([[2]]))
    assert cached.invariant_factors == (2,) and "invariant_factors" in vars(cached)
    assert "invariant_factors" not in vars(fresh)
    assert cached == fresh and fresh == cached and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    seeded = FpModule.from_invariant_factors(ZZ, [2])
    assert "invariant_factors" in vars(seeded)
    assert seeded == FpModule(ZZ, 1, Matrix.diagonal(ZZ, [2]))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_cases_name_every_record_class():
    # every record class of the package, found from the base, has a case:
    # a new base between `_Value` and a record cannot hide it
    for info in pkgutil.iter_modules(freeabcat.__path__):
        importlib.import_module(f"freeabcat.{info.name}")
    records = {c for c in _subclasses(_Value)
               if c.__module__.startswith("freeabcat.") and "_fields" in vars(c)}
    assert records == {c for c, *_ in CASES}


_BATTERY = [FpModule.from_invariant_factors(ZZ, f) for f in ([2], [4, 0], [3, 6])]

# a record with a table, and how to fill it
TABLES = [
    (FpModule, lambda m: m.invariant_factors),
    (ChainObject, lambda x: [(evaluate_chain(x, m), chain_member(x, m)) for m in _BATTERY]),
    (FpSquare, lambda s: [evaluate_square(s, m) for m in _BATTERY]),
    (DefinablePair, pair_to_chain),
]


@pytest.mark.parametrize("cls, fill", TABLES, ids=[t[0].__name__ for t in TABLES])
def test_tables_are_not_fields(cls, fill):
    fields = next(f for c, f, *_ in CASES if c is cls)
    a, fresh = cls(**fields), cls(**fields)
    before = repr(a)
    assert a == fresh and hash(a) == hash(fresh)
    fill(a)
    # the table sits in the instance dict beside the fields
    assert len(vars(a)) > len(vars(fresh)) == len(fields)
    assert a == fresh and fresh == a and not a != fresh and hash(a) == hash(fresh)
    assert repr(a) == repr(fresh) == before
    fill(fresh)
    assert a == fresh and hash(a) == hash(fresh)


def test_rings_are_interned():
    # one ring per class and modulus, whoever makes it; still hashed by value
    assert RingSpec() is ZZ is ring_from_json("Z")
    assert RingSpec(12) is Zmod(12) is RingSpec(modulus=12) is ring_from_json({"Zmod": 12})
    assert Zmod(12) is not Zmod(4)
    sub = type("Sub", (RingSpec,), {})
    assert sub(12) is sub(12) and sub(12) != Zmod(12) and hash(sub(12)) == hash(Zmod(12))
    # a copy is the ring itself, and making one leaves every other ring as it was
    for ring in (ZZ, Zmod(4), Zmod(12)):
        assert copy.copy(ring) is ring and copy.deepcopy(ring) is ring
        assert pickle.loads(pickle.dumps(ring)) is ring
    assert (ZZ.modulus, Zmod(4).modulus, Zmod(12).modulus) == (None, 4, 12)
    with pytest.raises(ValueError):
        RingSpec(1)
