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

A document is read by writing it back.  Each reader builds its object from
the document and then compares the document with the writer's payload of
that object (``_same``): the same type at every node (``true`` is not ``1``
and ``1.5`` is not ``1``), the same keys, the same list lengths and the same
values, the value of a basis ``c`` label aside, since it depends on the
scalar context.  The first difference is one SchemaError naming its path,
so a reader takes exactly what the writer writes.

A structure payload with tables ("table": [[entry]], entry[μ] the coefficient
of μ in basis product i*j) is written, not edited: every context of one
document shares each entry list and each serialized cell.  ``dumps`` joins
the pieces of ``pieces``, which writes shared lists once per indent and
builds every list or dict below the top levels in one join; the CLI writes
the pieces to a file without holding the whole text.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _encode_str

from . import qlaurent
from .errors import (GroupTooLargeError, InvalidGeneratorError, PreconditionError,
                     SchemaError)
from .gsets import FiniteGSet, coset_gset, point_set, regular_gset
from .groups import FiniteGroup, Permutation, make_group, memo
from .groupspec import MAX_PERM_DEGREE
from .qell_core import QEllElt, QEllStructure, structure

SCHEMA_VERSION = "1"


def group_payload(G: FiniteGroup) -> dict:
    return {
        "spec": G.spec,
        "degree": G.degree,
        "order": G.order,
        "generators": [list(g) for g in G.generators],
    }


def group_from_payload(data: dict) -> FiniteGroup:
    """The group of a payload, read by writing it back; a degree past
    ``MAX_PERM_DEGREE`` is refused, as for a ``perm:`` spec, before any
    permutation is built."""
    try:
        degree = data["degree"]
        if degree < 0:
            raise SchemaError(f"bad group payload: negative degree {degree}")
        if degree > MAX_PERM_DEGREE:
            raise GroupTooLargeError(
                f"group too large: payload degree exceeds {MAX_PERM_DEGREE}")
        spec = data.get("spec")
        spec = spec if isinstance(spec, str) else None     # anything else writes back null
        G = make_group(degree, [Permutation(images) for images in data["generators"]],
                       name=spec or "", spec=spec)
    except (KeyError, TypeError, ValueError, InvalidGeneratorError) as exc:
        raise SchemaError(f"bad group payload: {exc}") from exc
    _same(data, group_payload(G), "group")
    return G


def space_payload(G: FiniteGroup, X: FiniteGSet) -> dict:
    """The "space" object of the G-set X: pt, regular or G/H, else a SchemaError."""
    if X.n_points == 1:         # a one-point set has only the trivial action
        return {"kind": "pt"}
    # G/H is recovered canonically: the identity coset is point 0, so its
    # stabilizer is H; the regular set is G/1.  An empty set is no G/H.
    if X.n_points:
        H = G.subgroup_of([g for g in G.elements if X.act(g, 0) == 0])
        if X == coset_gset(G, H):
            if H.order == 1:
                return {"kind": "regular"}
            # schema v1 lists every element of the subgroup as a generator
            return {"kind": "cosets", "subgroup": dict(
                group_payload(H), generators=[list(g) for g in H.elements])}
    raise SchemaError(f"space {X.name} has no JSON descriptor")


def space_from_payload(G: FiniteGroup, data: dict) -> FiniteGSet:
    """The G-set of a "space" object, read by writing it back."""
    if not isinstance(data, dict):
        raise SchemaError("space is not an object")
    kind = data.get("kind")
    if kind == "pt":
        X = point_set(G)
    elif kind == "regular":
        X = regular_gset(G)
    elif kind == "cosets":
        if not isinstance(data.get("subgroup"), dict):
            raise SchemaError("cosets space has no subgroup object")
        H = group_from_payload(data["subgroup"])
        if not G.is_subgroup(H):
            raise SchemaError("space subgroup does not sit inside the group")
        X = coset_gset(G, H)
    else:
        raise SchemaError(f"unknown space kind {kind!r}")
    _same(data, space_payload(G, X), "space")
    return X


def _frac_str(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def _orbit_payload(cb, oi, coeffs=None, shared=None) -> dict:
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
    if shared is not None:
        out["table"] = _product_table(ctx, *shared)
    return out


class _Shared(list):
    """A list that a payload holds in many places (a table entry, a cell).

    ``dumps`` writes its text once per indent and keeps it in ``texts``; the
    payload is written, not edited.
    """

    __slots__ = ("texts",)

    def __init__(self, items):
        super().__init__(items)
        self.texts: dict = {}       # len(newline) -> text


def _product_table(ctx, entries: dict, cells: dict) -> list:
    """Serialized coefficients of every basis product i*j, from its nonzero
    columns.  Entry (j, i) is the list of (i, j); ``entries`` and ``cells``
    hold the document's entries, by (rank, column), and cells, by
    coefficient, so contexts over one table share them.  An entry's zero
    columns share one empty list."""
    n = ctx.rank
    rows = [[None] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, cols in enumerate(ctx.product_row(i), i):
            row[j] = rows[j][i] = memo(entries, (n, cols), _entry, n, cols, cells)
    return rows


def _entry(n: int, cols, cells: dict) -> _Shared:
    entry = _Shared([[]] * n)
    for mu, f in cols:
        entry[mu] = memo(cells, f, _cell, f)
    return entry


def _cell(f) -> _Shared:
    return _Shared(qlaurent.serialize(f))


def _document(struct: QEllStructure, orbits) -> dict:
    """The schema-v1 document of a structure; ``orbits(ci, cb)`` lists the
    orbit entries of class ci."""
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group_payload(struct.group),
        "space": space_payload(struct.group, struct.gset),
        "classes": _classes(struct, orbits),
    }


def _classes(struct: QEllStructure, orbits) -> list:
    return [{"rep": list(cb.g),
             "rep_order": cb.order,
             "centralizer_order": cb.centralizer.order,
             "orbits": orbits(ci, cb)}
            for ci, cb in enumerate(struct.classes)]


def structure_payload(struct: QEllStructure, tables: bool = False) -> dict:
    shared = ({}, {}) if tables else None       # the document's entries and cells
    return _document(struct, lambda ci, cb: [_orbit_payload(cb, oi, shared=shared)
                                             for oi in range(len(cb.orbits))])


def element_payload(elt: QEllElt) -> dict:
    return _document(elt.structure, partial(_nonzero_orbits, elt))


def _nonzero_orbits(elt: QEllElt, ci: int, cb) -> list:
    return [_orbit_payload(cb, oi, coeffs=v.coeffs)
            for oi, v in enumerate(elt.components[ci]) if not v.is_zero()]


def element_from_payload(data: dict, G: FiniteGroup, sctx) -> QEllElt:
    """The element of a document over G, the group its caller read from the
    document's "group" (``group_from_payload``), read by writing it back.
    The group is compared with G's payload, so a G that is not the
    document's is refused; the space is checked by its reader; each listed
    orbit is read by its ``orbit_rep``, and ``classes`` is then compared
    with the element's, so an orbit listed twice or out of order, or with
    every coefficient zero, is refused."""
    if not isinstance(data, dict):
        raise SchemaError("payload is not a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {data.get('schema_version')!r}")
    _same(data.get("group"), group_payload(G), "group")
    X = space_from_payload(G, data.get("space"))
    struct = structure(G, X, sctx)
    components = [[ctx.zero() for ctx in cb.ctxs] for cb in struct.classes]
    try:
        for cb, component, entry in zip(struct.classes, components, data["classes"]):
            index = {orb.rep: oi for oi, orb in enumerate(cb.orbits)}
            for odata in entry["orbits"]:
                oi = index[odata["orbit_rep"]]
                component[oi] = cb.ctxs[oi].from_coeffs(
                    [qlaurent.deserialize(f) for f in odata["coeffs"]])
    except (KeyError, TypeError, ValueError, ZeroDivisionError, PreconditionError) as exc:
        raise SchemaError(f"bad element payload: {exc}") from exc
    elt = QEllElt(struct, components)
    _same(data, {"schema_version": SCHEMA_VERSION, "group": data["group"],
                 "space": data["space"],
                 "classes": _classes(struct, partial(_nonzero_orbits, elt))}, "element")
    return elt


def _same(data, written, what: str, path: tuple = ()):
    """Refuse ``data`` unless it is ``written``, the writer's payload of the
    object read from it: the same type at every node, the same keys, list
    lengths and values, but for the value of a basis ``c`` label."""
    if data is written:
        return
    if type(data) is not type(written) or (
            type(written) is list and len(data) != len(written)) or (
            type(written) not in (dict, list) and data != written):
        shown = ("an object" if type(written) is dict else f"a list of {len(written)}"
                 if type(written) is list else json.dumps(written))
        raise _differs(what, path, f"the writer writes {shown}")
    if type(written) is dict:
        if data.keys() != written.keys():
            key = next(k for k in (*written, *data) if k not in data or k not in written)
            raise _differs(what, path + (key,), "missing" if key in written
                           else "the writer writes no such key")
        for key, value in written.items():
            if key != "c" or path[-2:-1] != ("basis",):
                _same(data[key], value, what, path + (key,))
    elif type(written) is list:
        for i, (d, w) in enumerate(zip(data, written)):
            _same(d, w, what, path + (i,))


def _differs(what: str, path: tuple, detail: str) -> SchemaError:
    where = "".join(f"[{key!r}]" for key in path)
    return SchemaError(f"bad {what} payload at {where}: {detail}")


def dumps(payload: dict) -> str:
    """The text of ``json.dumps(payload, indent=1)``, written directly.

    The standard library encodes indented JSON through nested generators, a
    yield per token per level; a product table has a million tokens, most of
    them empty lists.  Payloads are trees of str-keyed dicts, lists, strings,
    ints, bools and None; any other value is encoded by ``json.dumps``.
    """
    return "".join(pieces(payload))


def pieces(payload: dict):
    """The text of ``dumps(payload)`` in pieces, to be written without being
    held whole: in a structure payload, a piece is at most one table row."""
    return _pieces(payload, "\n")


# A container indented less than this is written child by child; one at this
# indent or deeper (in a structure payload, a table row) in one join.
_JOIN_INDENT = 6


def _pieces(value, newline: str):
    # newline is "\n" plus the current indent; children get one space more.
    if not value or not isinstance(value, (dict, list, tuple)) or type(value) is _Shared:
        yield _text(value, newline)
        return
    inner = newline + " "
    by_child = len(inner) <= _JOIN_INDENT        # the children's indent is below it
    is_dict = isinstance(value, dict)
    sep = ("{" if is_dict else "[") + inner
    for key, v in value.items() if is_dict else enumerate(value):
        yield sep + _encode_str(key) + ": " if is_dict else sep
        sep = "," + inner
        if by_child:
            yield from _pieces(v, inner)
        else:
            yield _text(v, inner)
    yield newline + ("}" if is_dict else "]")


def _text(value, newline: str) -> str:
    """The text of value at indent ``newline``: a list or dict in one join,
    a _Shared list's text found once per indent and then read from it."""
    t = type(value)
    if t is str:
        return _encode_str(value)
    if t is int:
        return int.__repr__(value)
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    is_dict = isinstance(value, dict)
    if not value:
        return "{}" if is_dict else "[]"
    if t is _Shared:
        return memo(value.texts, len(newline), _joined, value, newline)
    return _joined(value, newline)


def _joined(value, newline: str) -> str:
    inner = newline + " "
    if isinstance(value, dict):
        parts, sep = [], "{" + inner
        for key, v in value.items():
            parts.append(sep + _encode_str(key) + ": ")
            parts.append(_text(v, inner))
            sep = "," + inner
        parts.append(newline + "}")
        return "".join(parts)
    depth = len(inner)
    texts = ["[]" if v == [] else v.texts.get(depth) or _text(v, inner)
             if type(v) is _Shared else _text(v, inner) for v in value]
    # one join: the brackets ride on the first and last child
    texts[0] = "[" + inner + texts[0]
    texts[-1] += newline + "]"
    return ("," + inner).join(texts)


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
