"""Named collections of objects over one ring, read from and written to
JSON files.  Commands address workspace entries as `kind:name` references.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .chains import ChainMorphism, ChainObject
from .definable import DefinableFamily, DefinablePair
from .errors import WorkspaceError
from .fpmodules import FpModule
from .linalg import Matrix, RingSpec
from .serialize import KINDS, morphism_to_json, ring_from_json, ring_to_json
from .squares import FpSquare

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclass(frozen=True)
class Workspace:
    ring: RingSpec
    chains: dict[str, ChainObject] = field(default_factory=dict)
    squares: dict[str, FpSquare] = field(default_factory=dict)
    modules: dict[str, FpModule] = field(default_factory=dict)
    pairs: dict[str, DefinablePair] = field(default_factory=dict)
    families: dict[str, DefinableFamily] = field(default_factory=dict)
    morphisms: dict[str, ChainMorphism] = field(default_factory=dict)
    matrices: dict[str, Matrix] = field(default_factory=dict)


def _section_items(data, section: str) -> list[tuple[str, object]]:
    block = data.get(section)
    if block is None:
        return []
    if not isinstance(block, dict):
        raise WorkspaceError("expected an object of named entries", location=section)
    for name in block:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise WorkspaceError(
                f"invalid name {name!r} (letters, digits, _ . - only)",
                location=section,
            )
    return list(block.items())


def parse_workspace(data) -> Workspace:
    if not isinstance(data, dict):
        raise WorkspaceError("workspace must be a JSON object", location="workspace")
    sections = {spec.section for spec in KINDS.values()}
    extra = sorted(set(data) - {"ring", *sections})
    if extra:
        raise WorkspaceError(f"unknown sections: {', '.join(extra)}", location="workspace")
    if "ring" not in data:
        raise WorkspaceError('a workspace needs a "ring"', location="workspace")
    ring = ring_from_json(data["ring"], "ring")

    parsed: dict = {}
    for kind, spec in KINDS.items():
        ends = (parsed["chains"],) if kind == "morphism" else ()
        parsed[spec.section] = {
            name: spec.from_json(ring, item, *ends, f"{spec.section}.{name}")
            for name, item in _section_items(data, spec.section)
        }
    return Workspace(ring=ring, **parsed)


def _chain_name(ws: Workspace, x: ChainObject, where: str) -> str:
    """The name of the chain a morphism end was read as, else of the first equal one."""
    names = sorted(ws.chains)
    for same in (lambda y: y is x, lambda y: y == x):
        for name in names:
            if same(ws.chains[name]):
                return name
    raise WorkspaceError("morphism end is not a named chain", location=where)


def _entry_to_json(ws: Workspace, kind: str, name: str, obj):
    if kind != "morphism":
        return KINDS[kind].to_json(obj)
    return morphism_to_json(
        obj,
        _chain_name(ws, obj.src, f"morphisms.{name}.src"),
        _chain_name(ws, obj.dst, f"morphisms.{name}.dst"),
    )


def workspace_to_json(ws: Workspace) -> dict:
    out: dict = {"ring": ring_to_json(ws.ring)}
    for kind, spec in KINDS.items():
        table = getattr(ws, spec.section)
        if table:
            out[spec.section] = {n: _entry_to_json(ws, kind, n, x) for n, x in table.items()}
    return out


def workspace_to_text(ws: Workspace) -> str:
    return json.dumps(workspace_to_json(ws), indent=2, sort_keys=True) + "\n"


def load_workspace(path: str) -> Workspace:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise WorkspaceError(str(exc), location=path) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkspaceError(
            f"invalid JSON: {exc.msg}",
            location=f"{path}:{exc.lineno}:{exc.colno}",
        ) from None
    except ValueError as exc:  # an integer past the int-string digit limit
        raise WorkspaceError(f"invalid JSON: {exc}", location=path) from None
    except RecursionError:
        raise WorkspaceError("invalid JSON: nested too deeply", location=path) from None
    return parse_workspace(data)


def resolve_ref(ws: Workspace, ref: str):
    """Look up `kind:name`; raises WorkspaceError when it does not resolve."""
    kind, sep, name = ref.partition(":")
    if not sep:
        raise WorkspaceError("references look like kind:name", location=ref)
    if kind not in KINDS:
        raise WorkspaceError(
            f"unknown kind {kind!r} (expected one of {', '.join(sorted(KINDS))})",
            location=ref,
        )
    table = getattr(ws, KINDS[kind].section)
    if name not in table:
        raise WorkspaceError(f"no {kind} named {name!r}", location=ref)
    return table[name]
