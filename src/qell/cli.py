"""Command-line surface.

Exit codes: 0 ok, 1 verification failure, 2 group-spec parse error,
3 order cap exceeded, 4 JSON schema mismatch, 5 precondition failure.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from . import qell_core as qc
from .charmod import ScalarContext
from .errors import (
    GroupTooLargeError,
    NotHomomorphismError,
    NotSubgroupError,
    ParseError,
    PreconditionError,
    QellError,
    ScalarContextError,
    SchemaError,
)
from .groups import FiniteGroup, GroupHom, direct_product
from .groupspec import parse_group_spec
from .gsets import coset_gset, induced_gset, point_set, product_gset, regular_gset

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_SCHEMA = 4
EXIT_PRECONDITION = 5

MAX_PRINTED_RANK = 8


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GroupTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (PreconditionError, NotSubgroupError, NotHomomorphismError,
            ScalarContextError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:      # an --input/--left/--right/--json path
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_PRECONDITION
    except QellError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qell",
        description="Exact quasi-elliptic cohomology of finite G-sets over Z[q^±]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="structure of QEll_G(pt)")
    p_point.add_argument("--group", required=True, help="group spec, e.g. S3 or C2xC3")
    p_point.add_argument("--json", help="write the structure (with tables) to a file")
    p_point.set_defaults(func=cmd_point)

    p_unit = sub.add_parser("unit", help="write the unit element of QEll_G(X)")
    p_unit.add_argument("--group", required=True)
    p_unit.add_argument("--space", default="pt", choices=("pt", "regular"))
    p_unit.add_argument("--json", help="output path (default stdout)")
    p_unit.set_defaults(func=cmd_unit)

    p_op = sub.add_parser("op", help="apply a structural operation to elements")
    p_op.add_argument("operation",
                      choices=("mu", "transfer", "kunneth", "cog", "pullback"))
    p_op.add_argument("--n", type=int, default=1, help="degree for mu")
    p_op.add_argument("--group", help="ambient group spec where required")
    p_op.add_argument("--subgroup", help="subgroup spec where required")
    p_op.add_argument("--input", help="element JSON path")
    p_op.add_argument("--left", help="left element JSON path (kunneth)")
    p_op.add_argument("--right", help="right element JSON path (kunneth)")
    p_op.add_argument("--inverse", action="store_true",
                      help="inverse direction for cog")
    p_op.add_argument("--json", help="output path (default stdout)")
    p_op.set_defaults(func=cmd_op)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suite", default="all", choices=("paper", "props", "all"))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


# ---------------------------------------------------------------------------

def _read_payload(path: str) -> dict:
    """The JSON object in the file at ``path``; text that is not UTF-8 is a SchemaError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"not UTF-8 text ({exc.reason} at byte {exc.start}): {path}") from None
    data = jsonio.loads(text)
    if not isinstance(data, dict):
        raise SchemaError("payload is not a JSON object")
    return data


def _load_element(path: str, sctx_groups: list[FiniteGroup]):
    data = _read_payload(path)
    G = jsonio.group_from_payload(data.get("group", {}))
    sctx = ScalarContext.for_groups(sctx_groups + [G])
    return jsonio.element_from_payload(data, G, sctx), sctx


def _emit(payload: dict, path: str | None):
    """Write the payload's text to the file at ``path`` piece by piece, or print it."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(jsonio.pieces(payload))
            fh.write("\n")
    else:
        print(jsonio.dumps(payload))


def cmd_point(args) -> int:
    G = parse_group_spec(args.group)
    sctx = ScalarContext.for_groups([G])
    st = qc.structure(G, point_set(G), sctx)
    print(f"group {G.spec or G.name}: degree {G.degree}, order {G.order}")
    print(f"scalars: F_p with p = {sctx.p}, root of unity order {sctx.N}")
    print(f"components: {st.n_classes} (degree-0 part; odd part vanishes)")
    for cb in st.classes:
        ctx = cb.ctxs[0]
        basis = ", ".join(f"deg {ctx.table.degree(i)} @ {ctx.angles[i]}"
                          for i in range(ctx.rank))
        print(f"\nclass rep {cb.g!r} (order {cb.order}, "
              f"centralizer order {cb.centralizer.order})")
        print(f"  rank {ctx.rank}; basis [{basis}]")
        if ctx.rank <= MAX_PRINTED_RANK:
            for i in range(ctx.rank):
                cells = (" + ".join(f"({f})e{k}" for k, f in ctx.product_columns(i, j)) or "0"
                         for j in range(ctx.rank))
                print(f"  e{i} * [{'; '.join(cells)}]")
    if args.json:
        _emit(jsonio.structure_payload(st, tables=True), args.json)
    return EXIT_OK


def cmd_unit(args) -> int:
    G = parse_group_spec(args.group)
    sctx = ScalarContext.for_groups([G])
    X = point_set(G) if args.space == "pt" else regular_gset(G)
    st = qc.structure(G, X, sctx)
    _emit(jsonio.element_payload(st.unit()), args.json)
    return EXIT_OK


def cmd_op(args) -> int:
    op = args.operation
    if op == "mu":
        if not args.input:
            raise PreconditionError("mu needs --input")
        if args.n < 1:
            raise PreconditionError("mu needs --n >= 1")
        elt, _ = _load_element(args.input, [])
        _emit(jsonio.element_payload(qc.mu(elt, args.n)), args.json)
        return EXIT_OK

    if op == "kunneth":
        if not (args.left and args.right):
            raise PreconditionError("kunneth needs --left and --right")
        left_data = _read_payload(args.left)
        right_data = _read_payload(args.right)
        G = jsonio.group_from_payload(left_data.get("group", {}))
        H = jsonio.group_from_payload(right_data.get("group", {}))
        P = direct_product(G, H, spec=f"({G.spec})x({H.spec})"
                           if G.spec and H.spec else None)
        sctx = ScalarContext.for_groups([P])
        a = jsonio.element_from_payload(left_data, G, sctx)
        b = jsonio.element_from_payload(right_data, H, sctx)
        if a.structure.gset.n_points != 1 or b.structure.gset.n_points != 1:
            raise PreconditionError("kunneth is exposed for one-point spaces")
        XY = product_gset(a.structure.gset, b.structure.gset, P)
        _emit(jsonio.element_payload(qc.kunneth(a, b, P, XY)), args.json)
        return EXIT_OK

    if not args.group:
        raise PreconditionError(f"{op} needs --group")
    G = parse_group_spec(args.group)

    if op == "transfer":
        if not args.input:
            raise PreconditionError("transfer needs --input")
        elt, _ = _load_element(args.input, [G])
        H = elt.structure.group
        if args.subgroup:
            H_spec = parse_group_spec(args.subgroup)
            if H_spec != H:
                raise PreconditionError(
                    "--subgroup does not match the input element's group")
        if not G.is_subgroup(H):
            raise PreconditionError(f"{H.name} is not a subgroup of {G.name}")
        if elt.structure.gset.n_points == 1:
            out = qc.transfer(G, elt, algorithm="B")
        else:
            raise PreconditionError("transfer is exposed for one-point spaces")
        _emit(jsonio.element_payload(out), args.json)
        return EXIT_OK

    if not args.subgroup:
        raise PreconditionError(f"{op} needs --subgroup")
    H = parse_group_spec(args.subgroup)
    if not G.is_subgroup(H):
        raise PreconditionError(f"subgroup spec does not land inside {G.name}")

    if op == "pullback":
        if not args.input:
            raise PreconditionError("pullback needs --input")
        elt, _ = _load_element(args.input, [G])
        if elt.structure.group != G:
            raise PreconditionError("input element does not live on --group")
        incl = GroupHom.inclusion(H, G)
        # an output set with no JSON descriptor fails here, not after the map
        jsonio.space_payload(H, elt.structure.gset.via_hom(incl))
        out = qc.pullback_hom(incl, elt)
        _emit(jsonio.element_payload(out), args.json)
        return EXIT_OK

    if op == "cog":
        if not args.input:
            raise PreconditionError("cog needs --input")
        elt, _ = _load_element(args.input, [G])
        if args.inverse:
            if elt.structure.group != H:
                raise PreconditionError("input element must live on the subgroup")
            jsonio.space_payload(G, induced_gset(G, H, elt.structure.gset))    # as above
            out = qc.change_of_group_inverse(G, H, elt.structure.gset, elt)
        else:
            if elt.structure.group != G:
                raise PreconditionError("input element must live on --group")
            if elt.structure.gset != coset_gset(G, H):
                raise PreconditionError(
                    "input element must live on the coset space of --subgroup")
            out = qc.change_of_group(G, H, point_set(H), elt)
        _emit(jsonio.element_payload(out), args.json)
        return EXIT_OK

    raise PreconditionError(f"unknown operation {op!r}")


def cmd_verify(args) -> int:
    from . import verify        # only this command runs the suites
    checks = verify.run_suite(args.suite, seed=args.seed)
    failures = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        print(f"{status}  {name}{suffix}")
        if not ok:
            failures += 1
    print(f"\n{len(checks) - failures}/{len(checks)} checks passed "
          f"(suite={args.suite}, seed={args.seed})")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
