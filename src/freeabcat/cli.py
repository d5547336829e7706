"""Command line front end.

Every command reads named objects out of a JSON workspace (see the
workspace module) through `kind:name` references.  Exit codes: 0 success,
1 workspace or reference problems, 2 shape/ring/convention mismatches,
3 internal invariant violations or selftest failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chains import ChainObject, cokernel, hom_group, image_factorization, is_zero_object, kernel
from .definable import DefinablePair, chain_member, chain_to_pair, family_member, normalize_convention
from .errors import FreeabcatError, InternalInvariantError, WorkspaceError
from .linalg import snf
from .serialize import KINDS, chain_to_json, matrix_to_json
from .squares import FpSquare, chain_to_square, evaluate_chain, evaluate_square
from .suites import SELFTEST_COUNTS, run_all
from .workspace import load_workspace, resolve_ref


def build_parser() -> argparse.ArgumentParser:
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", dest="as_json",
                           help="machine-readable output")
    common = argparse.ArgumentParser(add_help=False, parents=[json_flag])
    common.add_argument("-w", "--workspace", metavar="FILE",
                        help="JSON workspace with the named objects")

    parser = argparse.ArgumentParser(
        prog="freeabcat",
        description="exact computations in the free abelian category over "
                    "free modules, with membership tests for the classes its "
                    "objects define",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="invariant factors of a chain or square on a module")
    p.add_argument("target", help="chain:NAME or square:NAME")
    p.add_argument("module", help="module:NAME")

    p = sub.add_parser("member", parents=[common],
                       help="does the module lie in the class the object cuts out")
    p.add_argument("target", help="chain:NAME, pair:NAME or family:NAME")
    p.add_argument("module", help="module:NAME")

    for name, blurb in (("kernel", "kernel object and its inclusion"),
                        ("cokernel", "cokernel object and its projection"),
                        ("image", "epi-mono factorization through the image")):
        p = sub.add_parser(name, parents=[common], help=blurb)
        p.add_argument("morphism", help="morphism:NAME")

    p = sub.add_parser("homgroup", parents=[common],
                       help="hom group of two chains as invariant factors")
    p.add_argument("source", help="chain:NAME")
    p.add_argument("target", help="chain:NAME")

    p = sub.add_parser("iszero", parents=[common],
                       help="is the chain the zero object")
    p.add_argument("target", help="chain:NAME")

    p = sub.add_parser("dual", parents=[common],
                       help="transpose dual of a chain, pair or square")
    p.add_argument("target", help="chain:NAME, pair:NAME or square:NAME")

    p = sub.add_parser("convert", parents=[common],
                       help="re-express a chain, pair or square in another shape")
    p.add_argument("target", help="chain:NAME, pair:NAME or square:NAME")
    p.add_argument("--to", required=True, choices=("chain", "pair", "square"),
                   dest="to_kind")
    p.add_argument("--convention", default="paper-row",
                   help="pair layout: paper|paper-row|row or column")

    p = sub.add_parser("snf", parents=[common],
                       help="Smith normal form with transformation certificate")
    p.add_argument("target", help="matrix:NAME")

    sub.add_parser("selftest", parents=[json_flag],
                   help="run the property suites at smoke-test counts")

    return parser


# -- plumbing ----------------------------------------------------------


def _load(args):
    if not args.workspace:
        raise WorkspaceError("this command needs -w/--workspace FILE")
    return load_workspace(args.workspace)


def _resolve(ws, ref: str, kinds: tuple[str, ...]):
    """(kind, object) for `ref`, which must be of one of `kinds`."""
    kind = ref.partition(":")[0]
    if kind not in kinds:
        raise WorkspaceError(
            f"expected a reference of kind {' or '.join(kinds)}", location=ref
        )
    return kind, resolve_ref(ws, ref)


def _emit(args, payload: dict, text_lines: list[str]) -> int:
    if args.as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    return 0


def _matrix_lines(name: str, m) -> list[str]:
    return [f"{name} ({m.rows}x{m.cols}) = {json.dumps(m.to_rows())}"]


def _chain_lines(x: ChainObject) -> list[str]:
    return [
        f"ranks = {list(x.ranks)}",
        *_matrix_lines("m1", x.m1),
        *_matrix_lines("m2", x.m2),
    ]


def _pair_lines(p: DefinablePair) -> list[str]:
    return [
        f"convention = {p.convention}",
        *_matrix_lines("U", p.u),
        *_matrix_lines("V", p.v),
    ]


def _square_lines(s: FpSquare) -> list[str]:
    lines = [f"ranks = {list(s.ranks)}"]
    for name in ("f", "a", "b", "g"):
        lines += _matrix_lines(name, getattr(s, name))
    return lines


_SHAPE_LINES = {"chain": _chain_lines, "pair": _pair_lines, "square": _square_lines}


def _morphism_payload(u) -> dict:
    return {
        "a1": matrix_to_json(u.a1),
        "a2": matrix_to_json(u.a2),
        "a3": matrix_to_json(u.a3),
    }


def _morphism_lines(u) -> list[str]:
    return [
        *_matrix_lines("a1", u.a1),
        *_matrix_lines("a2", u.a2),
        *_matrix_lines("a3", u.a3),
    ]


def _factors_payload(factors) -> dict:
    return {"invariant_factors": list(factors)}


# -- command handlers --------------------------------------------------


def _cmd_eval(args) -> int:
    ws = _load(args)
    kind, target = _resolve(ws, args.target, ("chain", "square"))
    _, module = _resolve(ws, args.module, ("module",))
    evaluate = evaluate_square if kind == "square" else evaluate_chain
    factors = evaluate(target, module).invariant_factors
    return _emit(args, _factors_payload(factors),
                 [f"invariant factors: {json.dumps(list(factors))}"])


def _cmd_member(args) -> int:
    ws = _load(args)
    kind, target = _resolve(ws, args.target, ("chain", "pair", "family"))
    _, module = _resolve(ws, args.module, ("module",))
    if kind == "family":
        verdict = family_member(target, module)
    else:
        verdict = chain_member(KINDS[kind].to_chain(target), module)
    return _emit(args, {"member": verdict}, ["true" if verdict else "false"])


def _cmd_kernel(args) -> int:
    ws = _load(args)
    _, u = _resolve(ws, args.morphism, ("morphism",))
    result = kernel(u) if args.command == "kernel" else cokernel(u)
    payload = {
        "object": chain_to_json(result.object),
        "morphism": _morphism_payload(result.morphism),
    }
    lines = [f"{args.command} object:"] + _chain_lines(result.object)
    lines += ["structure map:"] + _morphism_lines(result.morphism)
    return _emit(args, payload, lines)


def _cmd_image(args) -> int:
    ws = _load(args)
    _, u = _resolve(ws, args.morphism, ("morphism",))
    fac = image_factorization(u)
    payload = {
        "object": chain_to_json(fac.object),
        "mono": _morphism_payload(fac.mono),
        "epi": _morphism_payload(fac.epi),
    }
    lines = ["image object:"] + _chain_lines(fac.object)
    lines += ["mono:"] + _morphism_lines(fac.mono)
    lines += ["epi:"] + _morphism_lines(fac.epi)
    return _emit(args, payload, lines)


def _cmd_homgroup(args) -> int:
    ws = _load(args)
    _, x = _resolve(ws, args.source, ("chain",))
    _, y = _resolve(ws, args.target, ("chain",))
    factors = hom_group(x, y).invariant_factors
    return _emit(args, _factors_payload(factors),
                 [f"invariant factors: {json.dumps(list(factors))}"])


def _cmd_iszero(args) -> int:
    ws = _load(args)
    _, x = _resolve(ws, args.target, ("chain",))
    verdict = is_zero_object(x)
    return _emit(args, {"is_zero": verdict}, ["true" if verdict else "false"])


def _emit_shaped(args, kind: str, obj) -> int:
    return _emit(args, {kind: KINDS[kind].to_json(obj)}, _SHAPE_LINES[kind](obj))


def _cmd_dual(args) -> int:
    ws = _load(args)
    kind, obj = _resolve(ws, args.target, ("chain", "pair", "square"))
    return _emit_shaped(args, kind, KINDS[kind].dual(obj))


def _cmd_convert(args) -> int:
    ws = _load(args)
    kind, obj = _resolve(ws, args.target, ("chain", "pair", "square"))
    chain = KINDS[kind].to_chain(obj)
    if args.to_kind == "chain":
        out = chain
    elif args.to_kind == "pair":
        out = chain_to_pair(chain, normalize_convention(args.convention))
    else:
        out = chain_to_square(chain)
    return _emit_shaped(args, args.to_kind, out)


def _cmd_snf(args) -> int:
    ws = _load(args)
    _, m = _resolve(ws, args.target, ("matrix",))
    res = snf(m)
    payload = {
        "S": matrix_to_json(res.S),
        "P": matrix_to_json(res.P),
        "Q": matrix_to_json(res.Q),
    }
    lines = _matrix_lines("S", res.S) + _matrix_lines("P", res.P) + _matrix_lines("Q", res.Q)
    return _emit(args, payload, lines)


def _cmd_selftest(args) -> int:
    results = run_all(counts=SELFTEST_COUNTS)
    ok = all(passed for _, passed, _ in results)
    if args.as_json:
        print(json.dumps({
            "ok": ok,
            "results": [
                {"suite": name, "ok": passed, "detail": detail}
                for name, passed, detail in results
            ],
        }, sort_keys=True))
    else:
        for name, passed, detail in results:
            print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return 0 if ok else 3


_HANDLERS = {
    "eval": _cmd_eval,
    "member": _cmd_member,
    "kernel": _cmd_kernel,
    "cokernel": _cmd_kernel,
    "image": _cmd_image,
    "homgroup": _cmd_homgroup,
    "iszero": _cmd_iszero,
    "dual": _cmd_dual,
    "convert": _cmd_convert,
    "snf": _cmd_snf,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except WorkspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except FreeabcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
