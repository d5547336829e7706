"""Command line front end.

Every subcommand is declared once, in `COMMANDS`: its help line, the
reference kinds each of its positional slots accepts, and its handler.
The parser, the resolution of `kind:name` references against a JSON
workspace (see the workspace module) and scripts/cli_golden.py all read
the slots from that table.  Exit codes: 0 success, 1 workspace or
reference problems, 2 shape/ring/convention mismatches and usage errors,
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
from .workspace import load_workspace, resolve_ref

# -- plumbing ----------------------------------------------------------


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


# -- command handlers: each maps the parsed arguments and one (kind, object)
#    pair per slot to (payload, text lines)


def _cmd_eval(args, target, module):
    kind, x = target
    evaluate = evaluate_square if kind == "square" else evaluate_chain
    return _factors(evaluate(x, module[1]).invariant_factors)


def _cmd_member(args, target, module):
    kind, x = target
    if kind == "family":
        return _verdict("member", family_member(x, module[1]))
    return _verdict("member", chain_member(KINDS[kind].to_chain(x), module[1]))


def _cmd_kernel(args, u):
    result = (kernel if args.command == "kernel" else cokernel)(u[1])
    return _sections((f"{args.command} object:", "object", "chain", result.object),
                     ("structure map:", "morphism", "morphism", result.morphism))


def _cmd_image(args, u):
    fac = image_factorization(u[1])
    return _sections(("image object:", "object", "chain", fac.object),
                     ("mono:", "mono", "morphism", fac.mono),
                     ("epi:", "epi", "morphism", fac.epi))


def _cmd_homgroup(args, source, target):
    return _factors(hom_group(source[1], target[1]).invariant_factors)


def _cmd_iszero(args, target):
    return _verdict("is_zero", is_zero_object(target[1]))


def _cmd_dual(args, target):
    kind, x = target
    payload, lines = _shown(kind, KINDS[kind].dual(x))
    return {kind: payload}, lines


def _cmd_convert(args, target):
    kind, x = target
    convention = normalize_convention(args.convention)
    chain = KINDS[kind].to_chain(x)
    if args.to_kind == "chain":
        out = chain
    elif args.to_kind == "pair":
        out = chain_to_pair(chain, convention)
    else:
        out = chain_to_square(chain)
    payload, lines = _shown(args.to_kind, out)
    return {args.to_kind: payload}, lines


def _cmd_snf(args, m):
    res = snf(m[1])
    return _matrices(S=res.S, P=res.P, Q=res.Q)


def _cmd_selftest(args):
    from .suites import SELFTEST_COUNTS, run_all  # compiled and imported for selftest alone

    results = run_all(counts=SELFTEST_COUNTS)
    return ({"ok": all(passed for _, passed, _ in results),
             "results": [{"suite": name, "ok": passed, "detail": detail}
                         for name, passed, detail in results]},
            [f"{name}: {'PASS' if passed else 'FAIL'} ({detail})"
             for name, passed, detail in results])


# name -> (help, the reference kinds of each positional slot, handler)
COMMANDS = {
    "eval": ("invariant factors of a chain or square on a module",
             (("chain", "square"), ("module",)), _cmd_eval),
    "member": ("does the module lie in the class the object cuts out",
               (("chain", "pair", "family"), ("module",)), _cmd_member),
    "kernel": ("kernel object and its inclusion", (("morphism",),), _cmd_kernel),
    "cokernel": ("cokernel object and its projection", (("morphism",),), _cmd_kernel),
    "image": ("epi-mono factorization through the image", (("morphism",),), _cmd_image),
    "homgroup": ("hom group of two chains as invariant factors",
                 (("chain",), ("chain",)), _cmd_homgroup),
    "iszero": ("is the chain the zero object", (("chain",),), _cmd_iszero),
    "dual": ("transpose dual of a chain, pair or square",
             (("chain", "pair", "square"),), _cmd_dual),
    "convert": ("re-express a chain, pair or square in another shape",
                (("chain", "pair", "square"),), _cmd_convert),
    "snf": ("Smith normal form with transformation certificate", (("matrix",),), _cmd_snf),
    "selftest": ("run the property suites at smoke-test counts", (), _cmd_selftest),
}


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
    for name, (blurb, slots, _handler) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common if slots else json_flag], help=blurb)
        for kinds in slots:  # one positional each, collected in order into args.refs
            p.add_argument("refs", action="append", metavar="|".join(kinds) + ":NAME")
        if name == "convert":
            p.add_argument("--to", required=True, choices=("chain", "pair", "square"),
                           dest="to_kind")
            p.add_argument("--convention", default="paper-row",
                           help="pair layout: paper|paper-row|row or column")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _blurb, slots, handler = COMMANDS[args.command]
    try:
        refs = []
        if slots:
            if not args.workspace:
                raise WorkspaceError("this command needs -w/--workspace FILE")
            ws = load_workspace(args.workspace)
            for ref, kinds in zip(args.refs, slots):
                kind = ref.partition(":")[0]
                if kind not in kinds:
                    raise WorkspaceError(
                        f"expected a reference of kind {' or '.join(kinds)}", location=ref
                    )
                refs.append((kind, resolve_ref(ws, ref)))
        with _unlimited_int_strings():
            payload, lines = handler(args, *refs)
            if args.as_json:
                print(json.dumps(payload, sort_keys=True))
            else:
                for line in lines:
                    print(line)
        # only selftest's payload has "ok", and it is false when a suite failed
        return 0 if payload.get("ok", True) else 3
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
