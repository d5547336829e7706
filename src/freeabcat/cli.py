"""Command line front end.

Every command reads named objects out of a JSON workspace (see the
workspace module) through `kind:name` references.  Exit codes: 0 success,
1 workspace or reference problems, 2 shape/ring/convention mismatches,
3 internal invariant violations or selftest failures.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from collections.abc import Iterator

from .chains import cokernel, hom_group, image_factorization, is_zero_object, kernel
from .definable import chain_member, chain_to_pair, family_member, normalize_convention
from .errors import FreeabcatError, InternalInvariantError, WorkspaceError
from .linalg import snf
from .serialize import KINDS, matrix_to_json
from .squares import chain_to_square, evaluate_chain, evaluate_square
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


def _resolve(ws, ref: str, kinds: tuple[str, ...]):
    """(kind, object) for `ref`, which must be of one of `kinds`."""
    kind = ref.partition(":")[0]
    if kind not in kinds:
        raise WorkspaceError(
            f"expected a reference of kind {' or '.join(kinds)}", location=ref
        )
    return kind, resolve_ref(ws, ref)


def _matrices(**named) -> tuple[dict, Iterator[str]]:
    """The JSON payload and the `name (rxc) = rows` text lines of some named
    matrices; a line is formatted only when it is read."""
    return ({name: matrix_to_json(m) for name, m in named.items()},
            (f"{name} ({m.rows}x{m.cols}) = {json.dumps(m.to_rows())}"
             for name, m in named.items()))


def _shown(kind: str, x) -> tuple[dict, Iterator[str]]:
    """The JSON payload and the text lines of a chain, pair, square or morphism."""
    if kind == "morphism":
        return _matrices(a1=x.a1, a2=x.a2, a3=x.a3)
    if kind == "pair":
        head, named = f"convention = {x.convention}", {"U": x.u, "V": x.v}
    else:
        names = ("m1", "m2") if kind == "chain" else ("f", "a", "b", "g")
        head, named = f"ranks = {list(x.ranks)}", {n: getattr(x, n) for n in names}
    return KINDS[kind].to_json(x), itertools.chain([head], _matrices(**named)[1])


def _sections(*parts) -> tuple[dict, Iterator[str]]:
    """Payload and text of (title, key, kind, object) parts, each titled in the text."""
    payload, lines = {}, []
    for title, key, kind, x in parts:
        payload[key], body = _shown(kind, x)
        lines += [[title], body]
    return payload, itertools.chain.from_iterable(lines)


def _factors(factors) -> tuple[dict, list[str]]:
    return ({"invariant_factors": list(factors)},
            [f"invariant factors: {json.dumps(list(factors))}"])


def _verdict(key: str, verdict: bool) -> tuple[dict, list[str]]:
    return {key: verdict}, [json.dumps(verdict)]


@contextlib.contextmanager
def _unlimited_int_strings():
    """Computed integers may pass CPython's int-string digit limit, which
    stays in force while the workspace is read."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# -- command handlers: each maps (workspace, args) to (payload, text lines)


def _cmd_eval(ws, args):
    kind, target = _resolve(ws, args.target, ("chain", "square"))
    _, module = _resolve(ws, args.module, ("module",))
    evaluate = evaluate_square if kind == "square" else evaluate_chain
    return _factors(evaluate(target, module).invariant_factors)


def _cmd_member(ws, args):
    kind, target = _resolve(ws, args.target, ("chain", "pair", "family"))
    _, module = _resolve(ws, args.module, ("module",))
    if kind == "family":
        return _verdict("member", family_member(target, module))
    return _verdict("member", chain_member(KINDS[kind].to_chain(target), module))


def _cmd_kernel(ws, args):
    _, u = _resolve(ws, args.morphism, ("morphism",))
    result = kernel(u) if args.command == "kernel" else cokernel(u)
    return _sections((f"{args.command} object:", "object", "chain", result.object),
                     ("structure map:", "morphism", "morphism", result.morphism))


def _cmd_image(ws, args):
    _, u = _resolve(ws, args.morphism, ("morphism",))
    fac = image_factorization(u)
    return _sections(("image object:", "object", "chain", fac.object),
                     ("mono:", "mono", "morphism", fac.mono),
                     ("epi:", "epi", "morphism", fac.epi))


def _cmd_homgroup(ws, args):
    _, x = _resolve(ws, args.source, ("chain",))
    _, y = _resolve(ws, args.target, ("chain",))
    return _factors(hom_group(x, y).invariant_factors)


def _cmd_iszero(ws, args):
    _, x = _resolve(ws, args.target, ("chain",))
    return _verdict("is_zero", is_zero_object(x))


def _cmd_dual(ws, args):
    kind, obj = _resolve(ws, args.target, ("chain", "pair", "square"))
    payload, lines = _shown(kind, KINDS[kind].dual(obj))
    return {kind: payload}, lines


def _cmd_convert(ws, args):
    kind, obj = _resolve(ws, args.target, ("chain", "pair", "square"))
    chain = KINDS[kind].to_chain(obj)
    if args.to_kind == "chain":
        out = chain
    elif args.to_kind == "pair":
        out = chain_to_pair(chain, normalize_convention(args.convention))
    else:
        out = chain_to_square(chain)
    payload, lines = _shown(args.to_kind, out)
    return {args.to_kind: payload}, lines


def _cmd_snf(ws, args):
    _, m = _resolve(ws, args.target, ("matrix",))
    res = snf(m)
    return _matrices(S=res.S, P=res.P, Q=res.Q)


def _selftest(as_json: bool) -> int:
    results = run_all(counts=SELFTEST_COUNTS)
    ok = all(passed for _, passed, _ in results)
    if as_json:
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
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return _selftest(args.as_json)
        if not args.workspace:
            raise WorkspaceError("this command needs -w/--workspace FILE")
        ws = load_workspace(args.workspace)
        with _unlimited_int_strings():
            payload, lines = _HANDLERS[args.command](ws, args)
            if args.as_json:
                print(json.dumps(payload, sort_keys=True))
            else:
                for line in lines:
                    print(line)
        return 0
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
