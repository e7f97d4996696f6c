"""JSON schema for structures and elements.

Payload layout (schema_version "1"):

    {"schema_version": "1",
     "group": {"spec": str|null, "degree": int, "order": int,
               "generators": [[int]]},
     "space": {"kind": "pt"|"regular"|"cosets", "subgroup": {...}?},
     "classes": [{"rep": [int], "rep_order": int, "centralizer_order": int,
                  "orbits": [{"orbit_rep": int, "stabilizer_order": int,
                              "rank": int,
                              "basis": [{"irr": int, "degree": int, "c": "a/b"}],
                              "coeffs": [[{"exp": "a/b", "coef": int}]]}]}]}

Structures carry no "coeffs"; element payloads omit orbits whose component is
zero.  All rationals are reduced "a/b" strings; key order is fixed so that
serialize(parse(serialize(v))) is byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from . import qlaurent
from .errors import InvalidGeneratorError, SchemaError
from .gsets import FiniteGSet, point_set, regular_gset
from .groups import FiniteGroup, Permutation, make_group
from .qell_core import QEllElt, QEllStructure, structure

SCHEMA_VERSION = "1"


def group_payload(G: FiniteGroup) -> dict:
    return {
        "spec": G.spec,
        "degree": G.degree,
        "order": G.order,
        "generators": [list(g.images) for g in G.generators],
    }


def group_from_payload(data: dict) -> FiniteGroup:
    try:
        degree = int(data["degree"])
        gens = [Permutation(images) for images in data["generators"]]
        spec = data.get("spec")
        order = int(data["order"])
    except (KeyError, TypeError, ValueError, InvalidGeneratorError) as exc:
        raise SchemaError(f"bad group payload: {exc}") from exc
    name = spec if isinstance(spec, str) else ""
    try:
        G = make_group(degree, gens, name=name, spec=spec)
    except InvalidGeneratorError as exc:
        raise SchemaError(f"bad group payload: {exc}") from exc
    if G.order != order:
        raise SchemaError(f"group payload order {order} != computed {G.order}")
    return G


def space_payload(struct: QEllStructure) -> dict:
    X = struct.gset
    G = struct.group
    if X == point_set(G):
        return {"kind": "pt"}
    if X.n_points == G.order and X == regular_gset(G):
        return {"kind": "regular"}
    # a coset space is recovered canonically: the identity coset is point 0,
    # so its stabilizer is the inducing subgroup
    H = G.subgroup_of([g for g in G.elements if X.act(g, 0) == 0])
    if X == cosets_space(G, H):
        # schema v1 lists every element of the subgroup as a generator
        return {"kind": "cosets", "subgroup": dict(
            group_payload(H), generators=[list(g.images) for g in H.elements])}
    raise SchemaError(f"space {X.name} has no JSON descriptor")


def space_from_payload(G: FiniteGroup, data: dict) -> FiniteGSet:
    kind = data.get("kind")
    if kind == "pt":
        return point_set(G)
    if kind == "regular":
        return regular_gset(G)
    if kind == "cosets":
        if not isinstance(data.get("subgroup"), dict):
            raise SchemaError("cosets space has no subgroup object")
        H = group_from_payload(data["subgroup"])
        if not G.is_subgroup(H):
            raise SchemaError("space subgroup does not sit inside the group")
        return cosets_space(G, H)
    raise SchemaError(f"unknown space kind {kind!r}")


def cosets_space(G: FiniteGroup, H: FiniteGroup) -> FiniteGSet:
    """The one-point H-set induced up to G (the coset space with canonical labels)."""
    from .gsets import induced_gset
    return induced_gset(G, H, point_set(H))


def _frac_str(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def _orbit_payload(cb, oi, coeffs=None, table=False) -> dict:
    orb = cb.orbits[oi]
    ctx = cb.ctxs[oi]
    out = {
        "orbit_rep": orb.rep,
        "stabilizer_order": orb.stabilizer.order,
        "rank": ctx.rank,
        "basis": [{"irr": i, "degree": ctx.table.degree(i),
                   "c": _frac_str(ctx.angles[i])}
                  for i in range(ctx.rank)],
    }
    if coeffs is not None:
        out["coeffs"] = [qlaurent.serialize(f) for f in coeffs]
    if table:
        out["table"] = [[[qlaurent.serialize(f) for f in ctx.basis_product(i, j)]
                         for j in range(ctx.rank)]
                        for i in range(ctx.rank)]
    return out


def _document(struct: QEllStructure, orbits) -> dict:
    """The schema-v1 document of a structure; ``orbits(ci, cb)`` lists the
    orbit entries of class ci."""
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group_payload(struct.group),
        "space": space_payload(struct),
        "classes": [{"rep": list(cb.g.images),
                     "rep_order": cb.g.order(),
                     "centralizer_order": cb.centralizer.order,
                     "orbits": orbits(ci, cb)}
                    for ci, cb in enumerate(struct.classes)],
    }


def structure_payload(struct: QEllStructure, tables: bool = False) -> dict:
    return _document(struct, lambda ci, cb: [_orbit_payload(cb, oi, table=tables)
                                             for oi in range(len(cb.orbits))])


def element_payload(elt: QEllElt) -> dict:
    return _document(elt.structure, lambda ci, cb: [
        _orbit_payload(cb, oi, coeffs=v.coeffs)
        for oi, v in enumerate(elt.components[ci]) if not v.is_zero()])


def element_from_payload(data: dict, sctx) -> QEllElt:
    if not isinstance(data, dict):
        raise SchemaError("payload is not a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {data.get('schema_version')!r}")
    group_data = data.get("group", {})
    space_data = data.get("space", {"kind": "pt"})
    if not isinstance(group_data, dict) or not isinstance(space_data, dict):
        raise SchemaError("group and space must be objects")
    G = group_from_payload(group_data)
    X = space_from_payload(G, space_data)
    sctx.check_group(G)
    struct = structure(G, X, sctx)
    components = [[ctx.zero() for ctx in cb.ctxs] for cb in struct.classes]
    classes = data.get("classes")
    if not isinstance(classes, list) or len(classes) != struct.n_classes:
        raise SchemaError("classes array does not match the group")
    for ci, entry in enumerate(classes):
        cb = struct.classes[ci]
        if not isinstance(entry, dict):
            raise SchemaError(f"class entry {ci} is not an object")
        rep = entry.get("rep")
        if not isinstance(rep, list) or tuple(rep) != cb.g.images:
            raise SchemaError(f"class {ci} representative mismatch")
        rep_index = {orb.rep: oi for oi, orb in enumerate(cb.orbits)}
        orbits = entry.get("orbits", ())
        if not isinstance(orbits, list):
            raise SchemaError(f"orbits at class {ci} is not an array")
        for odata in orbits:
            if not isinstance(odata, dict):
                raise SchemaError(f"orbit entry at class {ci} is not an object")
            try:
                oi = rep_index[odata["orbit_rep"]]
            except (KeyError, TypeError):
                raise SchemaError(
                    f"orbit rep {odata.get('orbit_rep')!r} not in class {ci}"
                ) from None
            ctx = cb.ctxs[oi]
            coeffs = odata.get("coeffs")
            if not isinstance(coeffs, list) or len(coeffs) != ctx.rank:
                raise SchemaError(f"coeffs missing or wrong length at class {ci}")
            try:
                components[ci][oi] = ctx.from_coeffs(
                    [qlaurent.deserialize(c) for c in coeffs])
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"bad coefficient payload: {exc}") from exc
    return QEllElt(struct, components)


def dumps(payload: dict) -> str:
    """The text of ``json.dumps(payload, indent=1)``, written directly.

    The standard library encodes indented JSON through nested generators, a
    yield per token per level; a product table has a million tokens.  Payloads
    are trees of str-keyed dicts, lists, strings, ints, bools and None; any
    other value is encoded by ``json.dumps``.
    """
    out: list[str] = []
    _write(payload, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    # newline is "\n" plus the current indent; children get one space more
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + " "
        sep = "," + inner
        if isinstance(value, dict):
            out.append("{" + inner)
            for n, (k, v) in enumerate(value.items()):
                out.append((sep if n else "") + _encode_str(k) + ": ")
                _write(v, inner, out)
            out.append(newline + "}")
        else:
            out.append("[" + inner)
            for n, v in enumerate(value):
                if n:
                    out.append(sep)
                _write(v, inner, out)
            out.append(newline + "]")
    elif type(value) is int:
        out.append(int.__repr__(value))
    else:
        out.append(json.dumps(value))


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
