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

from . import qlaurent
from .errors import InvalidGeneratorError, SchemaError
from .gsets import FiniteGSet, point_set, regular_gset
from .groups import FiniteGroup, Permutation, from_elements, make_group
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
    if X == regular_gset(G):
        return {"kind": "regular"}
    # a coset space is recovered canonically: the identity coset is point 0,
    # so its stabilizer is the inducing subgroup
    H = from_elements(G.degree, [g for g in G.elements if X.act(g, 0) == 0])
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


def _orbit_payload(cb, oi, coeffs=None) -> dict:
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
    return out


def structure_payload(struct: QEllStructure, tables: bool = False) -> dict:
    classes = []
    for cb in struct.classes:
        entry = {
            "rep": list(cb.g.images),
            "rep_order": cb.g.order(),
            "centralizer_order": cb.centralizer.order,
            "orbits": [_orbit_payload(cb, oi) for oi in range(len(cb.orbits))],
        }
        if tables:
            for oi, orbit_entry in enumerate(entry["orbits"]):
                ctx = cb.ctxs[oi]
                tab = []
                for i in range(ctx.rank):
                    row = []
                    for j in range(ctx.rank):
                        prod = ctx.basis_elt(i) * ctx.basis_elt(j)
                        row.append([qlaurent.serialize(f) for f in prod.coeffs])
                    tab.append(row)
                orbit_entry["table"] = tab
        classes.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group_payload(struct.group),
        "space": space_payload(struct),
        "classes": classes,
    }


def element_payload(elt: QEllElt) -> dict:
    struct = elt.structure
    classes = []
    for ci, cb in enumerate(struct.classes):
        orbits = []
        for oi in range(len(cb.orbits)):
            v = elt.components[ci][oi]
            if v.is_zero():
                continue
            orbits.append(_orbit_payload(cb, oi, coeffs=v.coeffs))
        classes.append({
            "rep": list(cb.g.images),
            "rep_order": cb.g.order(),
            "centralizer_order": cb.centralizer.order,
            "orbits": orbits,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group_payload(struct.group),
        "space": space_payload(struct),
        "classes": classes,
    }


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
    return json.dumps(payload, indent=1)


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
