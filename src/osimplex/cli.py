"""Command line surface: membership, composition, factorization, evaluation,
cell enumeration, atom listing and basis verification.

Inputs are given as argument strings; an argument of "-" reads standard
input and "@path" reads the named file.  Inputs starting with "{" are parsed
as JSON.  Exit codes: 0 success (and membership holds), 1 negative verdict,
2 parse error, 3 precondition failure (and any unexpected error), 4 resource
bound exceeded (including JSON input nested too deeply to read).

Each command imports the modules it needs when it runs, so one invocation
loads only its own part of the library.
"""

import argparse
import sys

from .errors import (
    ArityError,
    EnumerationLimitError,
    OsimplexError,
    ParseError,
    PreconditionError,
    json_int,
)

_ENUM_DEFAULT_BOUND = 3
_BASIS_DEFAULT_BOUND = 2**13 - 1  # the basis of the complex on {0,...,12}


def _read_source(arg):
    try:
        if arg == "-":
            return sys.stdin.read()
        if arg.startswith("@"):
            with open(arg[1:], "r", encoding="utf-8") as handle:
                return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read input file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not text: {exc}") from exc
    return arg


def _load(arg, n, parse, from_json):
    """The value of an input argument: text starting with "{" is read as
    JSON and given to from_json(data, n), any other text to parse(text, n)."""
    text = _read_source(arg).strip()
    if text.startswith("{"):
        import json
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", exc.pos) from exc
        return from_json(data, n)
    if n is None:
        raise ParseError("textual input needs an explicit codomain (--n)")
    return parse(text, n)


def _load_morphism(arg, n):
    from .zdelta import ZMorphism, parse_zmorphism

    return _load(arg, n, parse_zmorphism, lambda data, n: ZMorphism.from_json(data))


def _load_expression(arg, n):
    from .oriental import expr_from_json, parse_expr

    def from_json(data, n):
        if "expr" in data:
            if "n" in data:
                n = json_int(data["n"], "n")
            data = data["expr"]
        if n is None:
            raise ParseError("expression input needs a codomain (--n or an 'n' field)")
        return expr_from_json(data, n)

    return _load(arg, n, parse_expr, from_json)


def _nonnegative(name, value):
    """An integer argument of enumerate, atoms or verify-basis: n or a bound."""
    if value < 0:
        raise ParseError(f"{name} must be a nonnegative integer, got {value}")
    return value


def _basis_size(args):
    """The n argument of atoms and verify-basis, whose work grows with the
    2^(n+1) - 1 basis elements; --max-basis lifts the default bound."""
    n = _nonnegative("n", args.size)
    bound = _BASIS_DEFAULT_BOUND if args.max_basis is None else args.max_basis
    _nonnegative("--max-basis", bound)
    # 2^(n+1) - 1 <= bound exactly when n + 1 < (bound + 1).bit_length().
    if n + 1 >= (bound + 1).bit_length():
        raise EnumerationLimitError(
            f"the complex on {{0,...,{n}}} has 2^{n + 1} - 1 basis elements, more "
            f"than the bound {bound}; pass a larger --max-basis to proceed"
        )
    return n


def _print_json(payload):
    import json
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit(args, payload, text):
    if args.json:
        _print_json(payload)
    else:
        print(text)


def _cmd_check(args):
    from .zdelta import check_membership

    x = _load_morphism(args.morphism, args.n)
    result = check_membership(x)
    shape = f"O({x.domain},{x.codomain})"
    if result.ok:
        _emit(args, {"member": True, "m": x.domain, "n": x.codomain}, f"member of {shape}")
        return 0
    payload = {"member": False, "m": x.domain, "n": x.codomain, "reason": result.reason}
    lines = [f"not a member of {shape}: {result.reason}"]
    if result.witness_map is not None:
        payload["witness"] = {
            "f": list(result.witness_map.values),
            "term": list(result.witness_term.values),
            "coefficient": result.witness_coefficient,
        }
        lines.append(
            f"witness f={result.witness_map}, offending term "
            f"{result.witness_term} with coefficient {result.witness_coefficient}"
        )
    _emit(args, payload, "\n".join(lines))
    return 1


def _cmd_compose(args):
    outer = _load_morphism(args.outer, args.n)
    inner = _load_morphism(args.inner, outer.domain)
    result = outer.compose(inner)
    _emit(args, result.to_json(), str(result))
    return 0


def _cmd_factor(args):
    from .oriental import eval_expr, factorize

    x = _load_morphism(args.morphism, args.n)
    expr = factorize(x)
    payload = {"n": x.codomain, "expr": expr.to_json()}
    lines = [str(expr)]
    if args.verify:
        if eval_expr(expr) != x:
            raise AssertionError("factorization failed to reproduce its input")
        payload["verified"] = True
        lines.append("verified: evaluation reproduces the input")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_eval(args):
    from .oriental import eval_expr

    expr = _load_expression(args.expression, args.n)
    value = eval_expr(expr)
    _emit(args, value.to_json(), str(value))
    return 0


def _cmd_enumerate(args):
    from .nu import enumerate_cells

    n = _nonnegative("n", args.size)
    if args.max_cells is not None:
        _nonnegative("--max-cells", args.max_cells)
    bound = _ENUM_DEFAULT_BOUND if args.max_cells is None else n
    cells = enumerate_cells(n, bound=bound, max_cells=args.max_cells)
    ordered = sorted(cells, key=lambda c: (c.dimension, str(c)))
    if args.json:
        _print_json({"n": args.size, "count": len(ordered), "cells": [c.to_json() for c in ordered]})
    else:
        for cell in ordered:
            print(cell)
        print(f"{len(ordered)} cells")
    return 0


def _cmd_atoms(args):
    from .chains import basis_elements
    from .nu import _atoms

    elements = basis_elements(_basis_size(args))
    if args.json:
        _print_json({
            "n": args.size,
            "atoms": [
                {"basis": list(b.vertices), "cell": a.to_json()}
                for b, a in zip(elements, _atoms(elements))
            ],
        })
    else:
        for b, a in zip(elements, _atoms(elements)):
            print(f"<{b}> = {a}")
    return 0


def _cmd_verify_basis(args):
    from .chains import check_strongly_loopfree, check_unital

    unital = bool(check_unital(_basis_size(args)))
    loopfree = check_strongly_loopfree(args.size)
    yes_no = {True: "yes", False: "no"}
    _emit(
        args,
        {"n": args.size, "unital": unital, "strongly_loop_free": loopfree},
        f"unital: {yes_no[unital]}; strongly loop-free: {yes_no[loopfree]}",
    )
    return 0 if unital and loopfree else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="osimplex",
        description="Exact computation with oriented simplexes: membership, "
        "fillers, factorization and cell enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        return p

    p = add("check", _cmd_check, "decide membership among oriental morphisms")
    p.add_argument("morphism", help="combination text, JSON, @file or -")
    p.add_argument("--n", type=int, help="codomain of the combination")

    p = add("compose", _cmd_compose, "compose two combinations (outer inner)")
    p.add_argument("outer", help="outer combination")
    p.add_argument("inner", help="inner combination; codomain is the outer domain")
    p.add_argument("--n", type=int, help="codomain of the outer combination")

    p = add("factor", _cmd_factor, "factorize an oriental morphism")
    p.add_argument("morphism")
    p.add_argument("--n", type=int, help="codomain of the combination")
    p.add_argument(
        "--verify",
        action="store_true",
        help="evaluate the tree with the checked filler and pasting kernels "
        "and check that it reproduces the input",
    )

    p = add("eval", _cmd_eval, "evaluate a filler/pasting expression")
    p.add_argument("expression")
    p.add_argument("--n", type=int, help="codomain of the leaves")

    p = add("enumerate", _cmd_enumerate, "enumerate the cells over {0,...,n}")
    p.add_argument("size", type=int, metavar="n")
    p.add_argument(
        "--max-cells",
        type=int,
        help="resource bound on the number of cells; required beyond n=3",
    )

    basis_bound = (
        "resource bound on the number of basis elements, 2^(n+1) - 1; "
        f"default {_BASIS_DEFAULT_BOUND} (n <= 12)"
    )
    p = add("atoms", _cmd_atoms, "list the atoms over {0,...,n}")
    p.add_argument("size", type=int, metavar="n")
    p.add_argument("--max-basis", type=int, help=basis_bound)

    p = add("verify-basis", _cmd_verify_basis, "check unitality and loop-freeness")
    p.add_argument("size", type=int, metavar="n")
    p.add_argument("--max-basis", type=int, help=basis_bound)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except EnumerationLimitError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return 4
    except RecursionError:
        print("resource bound: input nested too deeply", file=sys.stderr)
        return 4
    except (PreconditionError, ArityError, IndexError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except OsimplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program: one line, no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
