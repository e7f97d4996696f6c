"""The command-line surface: parsing, exit codes, JSON round trips, determinism."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qell import jsonio
from qell import qell_core as qc
from qell.charmod import ScalarContext
from qell.cli import main
from qell.errors import ParseError, SchemaError
from qell.groups import cyclic, symmetric
from qell.groupspec import parse_group_spec
from qell.gsets import coset_gset, point_set, regular_gset


# -- group-spec parser ---------------------------------------------------------

def test_parse_builtins():
    assert parse_group_spec("S3").order == 6
    assert parse_group_spec("C1").order == 1
    assert parse_group_spec("D4").order == 8
    assert parse_group_spec("A4").order == 12
    assert parse_group_spec("C2xC3").order == 6
    assert parse_group_spec(" C2 x C3 ").order == 6      # whitespace-insensitive
    assert parse_group_spec("C2xC2xC2").order == 8


def test_parse_perm_specs():
    G = parse_group_spec("perm:3:(0,1);(0,1,2)")
    assert G.order == 6
    H = parse_group_spec("perm:4:(0,1)(2,3)")
    assert H.order == 2
    assert parse_group_spec("perm:5:(0,1,2,3,4)").order == 5


def test_parse_error_positions():
    for text, pos in [("", 0), ("Q3", 0), ("C", 1), ("C2x", 3),
                      ("perm:3:", 7), ("perm:3:(0,3)", 11), ("S3yC2", 2)]:
        with pytest.raises(ParseError) as err:
            parse_group_spec(text)
        assert f"position" in str(err.value)


valid_specs = st.recursive(
    st.one_of(
        st.tuples(st.sampled_from("SACD"), st.integers(1, 5)).map(
            lambda t: f"{t[0]}{t[1]}"),
        st.just("perm:3:(0,1)"),
        st.just("perm:4:(0,1,2,3);(0,1)"),
    ),
    lambda inner: st.tuples(inner, inner).map(lambda t: f"{t[0]}x{t[1]}"),
    max_leaves=3,
)


@given(valid_specs)
@settings(max_examples=60, deadline=None)
def test_parser_totality_on_grammar(spec):
    from qell.errors import GroupTooLargeError
    try:
        G = parse_group_spec(spec)
    except GroupTooLargeError:
        return   # over the order cap is a cap error (exit 3), never a parse error
    assert G.order >= 1


@given(valid_specs, st.sampled_from(["@", "!", "xx", "(", ")", "x"]),
       st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_parser_rejects_mutations(spec, junk, cut):
    mutated = spec[:min(cut, len(spec))] + junk + spec[min(cut, len(spec)):] + "x"
    try:
        parse_group_spec(mutated)
    except ParseError as exc:
        assert exc.position >= 0


# -- exit codes ------------------------------------------------------------------

def test_exit_codes(tmp_path):
    assert main(["point", "--group", "S3"]) == 0
    assert main(["point", "--group", "C1"]) == 0
    assert main(["point", "--group", "Z9"]) == 2
    assert main(["point", "--group", "S8"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1", "group": {}}')
    assert main(["op", "mu", "--n", "2", "--input", str(bad)]) == 4
    u = tmp_path / "u.json"
    assert main(["unit", "--group", "C2", "--json", str(u)]) == 0
    assert main(["op", "transfer", "--group", "C3", "--input", str(u)]) == 5


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("QELL_ORDER_CAP", "5")
    assert main(["point", "--group", "S3"]) == 3


@pytest.mark.parametrize("spec", ["C5000", "D5000", "S5000", "A5000", "A5xA5"])
def test_known_order_past_the_cap_builds_no_element(monkeypatch, capsys, spec):
    """C_n, D_n, S_n, A_n and a product know their order before enumerating:
    past the cap they are refused with no closure of the refused group and no
    pair."""
    from qell import groups
    closed, paired = [], []
    span, pair = groups._span, groups._pair
    monkeypatch.setattr(groups, "_span", lambda d, *a: closed.append(d) or span(d, *a))
    monkeypatch.setattr(groups, "_pair", lambda *a: paired.append(a) or pair(*a))
    monkeypatch.setenv("QELL_ORDER_CAP", "100")
    assert main(["point", "--group", spec]) == 3
    assert capsys.readouterr().err == "error: group too large: order exceeds cap 100\n"
    assert paired == [] and all(d <= 5 for d in closed)


@pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5"])
def test_cap_env_must_be_positive_integer(monkeypatch, capsys, tmp_path, value):
    u = tmp_path / "u.json"
    assert main(["unit", "--group", "C2", "--json", str(u)]) == 0
    monkeypatch.setenv("QELL_ORDER_CAP", value)
    expected = f"error: QELL_ORDER_CAP must be a positive integer, got {value!r}\n"
    for argv in (["point", "--group", "S3"],
                 ["op", "mu", "--n", "2", "--input", str(u)]):
        capsys.readouterr()
        assert main(argv) == 5
        assert capsys.readouterr().err == expected


def test_file_errors_name_the_path(capsys, tmp_path):
    u = tmp_path / "u.json"
    assert main(["unit", "--group", "C2", "--json", str(u)]) == 0
    missing = tmp_path / "missing.json"
    unwritable = tmp_path / "no-such-dir" / "out.json"
    for argv, path in [
        (["op", "mu", "--input", str(missing)], missing),
        (["op", "mu", "--input", str(tmp_path)], tmp_path),        # a directory
        (["op", "transfer", "--group", "C4", "--input", str(missing)], missing),
        (["op", "kunneth", "--left", str(missing), "--right", str(u)], missing),
        (["op", "kunneth", "--left", str(u), "--right", str(missing)], missing),
        (["unit", "--group", "C2", "--json", str(unwritable)], unwritable),
        (["op", "mu", "--input", str(u), "--json", str(unwritable)], unwritable),
        (["point", "--group", "C2", "--json", str(unwritable)], unwritable),
    ]:
        capsys.readouterr()
        assert main(argv) == 5, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err, argv
        assert err.count("\n") == 1, argv


def test_non_utf8_input_is_a_schema_error(capsys, tmp_path):
    u = tmp_path / "u.json"
    assert main(["unit", "--group", "C2", "--json", str(u)]) == 0
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for argv in (["op", "mu", "--input", str(binary)],
                 ["op", "kunneth", "--left", str(binary), "--right", str(u)]):
        capsys.readouterr()
        assert main(argv) == 4, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(binary) in err, argv
        assert err.count("\n") == 1, argv


TERM = ("classes", 0, "orbits", 0, "coeffs", 0, 0)     # the unit's one term


@pytest.mark.parametrize("path, value", [
    (("classes", 0), 5),
    (("classes", 0, "rep"), 5),
    (("space",), {"kind": "cosets"}),
    (("group", "generators"), [[0, 0]]),
    (("group", "degree"), 4),
    (TERM + ("coef",), 1.5),
    (TERM + ("coef",), True),
    (TERM + ("exp",), 0.5),
    (TERM + ("exp",), "1/0"),
    (TERM + ("exp",), "x"),
], ids=["class-not-object", "rep-not-list", "cosets-without-subgroup",
        "not-a-permutation", "degree-mismatch", "coef-float", "coef-bool", "exp-float",
        "exp-zero-denominator", "exp-garbage"])
def test_malformed_element_is_a_schema_error(capsys, tmp_path, path, value):
    u = tmp_path / "u.json"
    assert main(["unit", "--group", "S3", "--json", str(u)]) == 0
    payload = json.loads(u.read_text())
    *parents, last = path
    node = payload
    for key in parents:
        node = node[key]
    node[last] = value
    u.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["op", "mu", "--input", str(u)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_exit_zero(capsys):
    assert main(["verify", "--suite", "paper"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_determinism(capsys):
    assert main(["verify", "--suite", "props", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "props", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second


# The whole report of one seed: check names, details and order are CLI output.
VERIFY_ALL_SEED_3 = """\
PASS  cyclic order-1 torsion presentation x^1 = q^m per component
PASS  cyclic order-2 torsion presentation x^2 = q^m per component
PASS  cyclic order-3 torsion presentation x^3 = q^m per component
PASS  cyclic order-4 torsion presentation x^4 = q^m per component
PASS  cyclic order-5 torsion presentation x^5 = q^m per component
PASS  cyclic order-6 torsion presentation x^6 = q^m per component
PASS  cyclic order-7 torsion presentation x^7 = q^m per component
PASS  cyclic order-8 torsion presentation x^8 = q^m per component
PASS  cyclic-product presentation x_j^N_j = q^k_j (C2 x C3)
PASS  cyclic-product presentation x_j^N_j = q^k_j (C2 x C4)
PASS  cyclic-product presentation x_j^N_j = q^k_j (C3 x C3)
PASS  sign/standard ring relations at the identity sector  [XY=Y, X^2=1, Y^2=1+X+Y]
PASS  transposition sector: rank 2 and x^2 = q
PASS  3-cycle sector: rank 3 and x^3 = q
PASS  Künneth on points is a basis bijection (C2, C3)
PASS  Künneth on points is a basis bijection (C2, C2)
PASS  Künneth on points is a basis bijection (S3, C2)
PASS  change-of-group round trip (S3 | C2)
PASS  change-of-group round trip (S3 | C3)
PASS  change-of-group round trip (C4 | C2)
PASS  free action on the regular set collapses to Z[q^±] (C2)  [total rank 1]
PASS  free action on the regular set collapses to Z[q^±] (S3)  [total rank 1]
PASS  unit transfer from the 3-element subgroup of S3
PASS  unit transfer from a 2-element subgroup of S3
PASS  componentwise ring axioms on random elements
PASS  transfer: covering composite equals the coset-sum formula (S3)  [50 random elements per subgroup]
PASS  transfer: covering composite equals the coset-sum formula (D4)  [50 random elements per subgroup]
PASS  change-of-group round trips, 50 random elements (S3 | C2)
PASS  change-of-group round trips, 50 random elements (S3 | C3)
PASS  change-of-group round trips, 50 random elements (C4 | C2)
PASS  μ^1 = id on random elements (S3)
PASS  μ^n is multiplicative, n in 2..3 (S3)
PASS  μ^n commutes with exterior powers λ^k, k ≤ 2 (S3)
PASS  μ^1 = id on random elements (C4)
PASS  μ^n is multiplicative, n in 2..3 (C4)
PASS  μ^n commutes with exterior powers λ^k, k ≤ 2 (C4)
PASS  pullback contravariance along composed inclusions
PASS  Frobenius reciprocity across all subgroups of S3
PASS  report: composite root transports match μ^{nm} (informational)  [observed agreement]

39/39 checks passed (suite=all, seed=3)
"""


def test_verify_all_seed_3_stdout(capsys):
    assert main(["verify", "--suite", "all", "--seed", "3"]) == 0
    assert capsys.readouterr().out == VERIFY_ALL_SEED_3


# -- JSON round trips ---------------------------------------------------------------

def _round_trip(elt, sctx):
    payload = jsonio.element_payload(elt)
    text = jsonio.dumps(payload)
    parsed = jsonio.element_from_payload(jsonio.loads(text), sctx)
    assert parsed == elt
    assert jsonio.dumps(jsonio.element_payload(parsed)) == text
    return payload


def test_element_round_trip_pt():
    import random
    G = symmetric(3)
    sctx = ScalarContext.for_groups([G])
    st = qc.structure(G, point_set(G), sctx)
    rng = random.Random(0)
    for _ in range(5):
        _round_trip(qc.random_element(st, rng), sctx)


def test_element_round_trip_regular_and_cosets():
    import random
    G = symmetric(3)
    sctx = ScalarContext.for_groups([G])
    rng = random.Random(1)
    _round_trip(qc.random_element(
        qc.structure(G, regular_gset(G), sctx), rng), sctx)
    from qell.groups import Permutation
    H = G.subgroup([Permutation([1, 2, 0])])
    Z = coset_gset(G, H)
    _round_trip(qc.random_element(qc.structure(G, Z, sctx), rng), sctx)


# One cosets-space element, S3 over C3, in schema v1: the subgroup block lists
# every element of C3, in sorted order, as its "generators".
COSETS_UNIT_S3_C3 = json.dumps(json.loads(
    '{"schema_version": "1", "group": {"spec": "S3", "degree": 3, "order": 6, '
    '"generators": [[1, 0, 2], [1, 2, 0]]}, "space": {"kind": "cosets", '
    '"subgroup": {"spec": null, "degree": 3, "order": 3, '
    '"generators": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}}, "classes": ['
    '{"rep": [0, 1, 2], "rep_order": 1, "centralizer_order": 6, "orbits": ['
    '{"orbit_rep": 0, "stabilizer_order": 3, "rank": 3, "basis": ['
    '{"irr": 0, "degree": 1, "c": "0/1"}, {"irr": 1, "degree": 1, "c": "0/1"}, '
    '{"irr": 2, "degree": 1, "c": "0/1"}], '
    '"coeffs": [[{"exp": "0/1", "coef": 1}], [], []]}]}, '
    '{"rep": [0, 2, 1], "rep_order": 2, "centralizer_order": 2, "orbits": []}, '
    '{"rep": [1, 2, 0], "rep_order": 3, "centralizer_order": 3, "orbits": ['
    '{"orbit_rep": 0, "stabilizer_order": 3, "rank": 3, "basis": ['
    '{"irr": 0, "degree": 1, "c": "0/1"}, {"irr": 1, "degree": 1, "c": "1/3"}, '
    '{"irr": 2, "degree": 1, "c": "2/3"}], '
    '"coeffs": [[{"exp": "0/1", "coef": 1}], [], []]}, '
    '{"orbit_rep": 1, "stabilizer_order": 3, "rank": 3, "basis": ['
    '{"irr": 0, "degree": 1, "c": "0/1"}, {"irr": 1, "degree": 1, "c": "1/3"}, '
    '{"irr": 2, "degree": 1, "c": "2/3"}], '
    '"coeffs": [[{"exp": "0/1", "coef": 1}], [], []]}]}]}'), indent=1)


def test_cosets_element_golden_bytes():
    from qell.groups import Permutation
    G = symmetric(3)
    sctx = ScalarContext.for_groups([G])
    H = G.subgroup([Permutation([1, 2, 0])])
    unit = qc.structure(G, coset_gset(G, H), sctx).unit()
    assert jsonio.dumps(jsonio.element_payload(unit)) == COSETS_UNIT_S3_C3


def test_structure_payload_schema():
    G = cyclic(2)
    sctx = ScalarContext.for_groups([G])
    st = qc.structure(G, point_set(G), sctx)
    payload = jsonio.structure_payload(st, tables=True)
    assert payload["schema_version"] == "1"
    assert payload["group"]["order"] == 2
    assert payload["space"] == {"kind": "pt"}
    assert len(payload["classes"]) == 2
    orb = payload["classes"][1]["orbits"][0]
    assert orb["rank"] == 2
    assert orb["basis"][1]["c"] == "1/2"
    assert "table" in orb



def test_table_entries_have_their_orbits_rank():
    """Entries are shared across the contexts of a document, never across ranks."""
    for spec in ("S4", "D12"):
        G = parse_group_spec(spec)
        st_ = qc.structure(G, point_set(G), ScalarContext.for_groups([G]))
        ranks = set()
        for cls in jsonio.structure_payload(st_, tables=True)["classes"]:
            for orb in cls["orbits"]:
                ranks.add(orb["rank"])
                assert len(orb["table"]) == orb["rank"]
                for row in orb["table"]:
                    assert [len(entry) for entry in row] == [orb["rank"]] * orb["rank"]
        assert len(ranks) > 1, spec


def test_c4xc4_payload_holds_a_column_per_table_pair_and_shift():
    """C4xC4 has 16 contexts over one table of rank 16: 136 unordered pairs,
    each at rotation shift 0 or 1."""
    G = parse_group_spec("C4xC4")
    st_ = qc.structure(G, point_set(G), ScalarContext.for_groups([G]))
    jsonio.structure_payload(st_, tables=True)
    columns = {id(ctx.product_columns(i, j)): 1
               for cb in st_.classes for ctx in cb.ctxs
               for i in range(ctx.rank) for j in range(ctx.rank)}
    assert len(st_.classes) == 16 and 0 < len(columns) <= 2 * 136


def test_dumps_is_json_indent_one():
    sctx = ScalarContext.for_groups([symmetric(4)])
    for spec in ("S4", "C2xC4", "D6"):
        G = parse_group_spec(spec)
        st_ = qc.structure(G, point_set(G), ScalarContext.for_groups([G]))
        payload = jsonio.structure_payload(st_, tables=True)
        assert jsonio.dumps(payload) == json.dumps(payload, indent=1)
    S4 = symmetric(4)
    elt = qc.structure(S4, regular_gset(S4), sctx).unit()
    payload = jsonio.element_payload(elt)
    assert jsonio.dumps(payload) == json.dumps(payload, indent=1)


_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_json_trees)
def test_dumps_is_json_indent_one_on_any_tree(tree):
    assert jsonio.dumps(tree) == json.dumps(tree, indent=1)


def test_dumps_writes_a_shared_list_at_each_depth():
    cell = [{"exp": "0/1", "coef": 2}]
    entry = [cell, [], cell]
    long = list(range(400))                # a long list, shared at two depths
    tree = {"a": [entry, entry], "b": [[entry], cell], "c": cell,
            "d": [long, [long], long]}
    assert jsonio.dumps(tree) == json.dumps(tree, indent=1)

def test_schema_rejects_bad_payloads():
    G = cyclic(2)
    sctx = ScalarContext.for_groups([G])
    with pytest.raises(SchemaError):
        jsonio.element_from_payload({"schema_version": "0"}, sctx)
    with pytest.raises(SchemaError):
        jsonio.element_from_payload(
            {"schema_version": "1", "group": {"degree": 2}}, sctx)


# -- end-to-end through the console entry point -------------------------------------

def test_cli_pipeline(tmp_path):
    u = tmp_path / "u.json"
    assert main(["unit", "--group", "C3", "--json", str(u)]) == 0
    t = tmp_path / "t.json"
    assert main(["op", "transfer", "--group", "S3", "--subgroup", "C3",
                 "--input", str(u), "--json", str(t)]) == 0
    data = json.loads(t.read_text())
    assert data["group"]["spec"] == "S3"
    z = tmp_path / "z.json"
    assert main(["op", "cog", "--group", "S3", "--subgroup", "C3",
                 "--input", str(u), "--inverse", "--json", str(z)]) == 0
    back = tmp_path / "back.json"
    assert main(["op", "cog", "--group", "S3", "--subgroup", "C3",
                 "--input", str(z), "--json", str(back)]) == 0
    assert json.loads(back.read_text()) == json.loads(u.read_text())
    m = tmp_path / "m.json"
    assert main(["op", "mu", "--n", "2", "--input", str(u), "--json", str(m)]) == 0
    k = tmp_path / "k.json"
    u2 = tmp_path / "u2.json"
    assert main(["unit", "--group", "C2", "--json", str(u2)]) == 0
    assert main(["op", "kunneth", "--left", str(u2), "--right", str(u),
                 "--json", str(k)]) == 0
    kdata = json.loads(k.read_text())
    assert kdata["group"]["degree"] == 5


def test_mu_degree_one_is_byte_identical(tmp_path):
    u = tmp_path / "u.json"
    out = tmp_path / "out.json"
    assert main(["unit", "--group", "S3", "--json", str(u)]) == 0
    assert main(["op", "mu", "--n", "1", "--input", str(u),
                 "--json", str(out)]) == 0
    assert out.read_text() == u.read_text()


def test_verify_failure_exit_code(monkeypatch):
    from qell import verify as verify_mod

    monkeypatch.setattr(verify_mod, "run_suite",
                        lambda which, seed=0: [("forced failure", False, "x")])
    assert main(["verify", "--suite", "paper"]) == 1


def test_product_of_cyclics_components():
    G = parse_group_spec("C2xC3")
    sctx = ScalarContext.for_groups([G])
    st = qc.structure(G, point_set(G), sctx)
    assert st.n_classes == 6
    for cb in st.classes:
        assert cb.centralizer.order == 6
        assert cb.ctxs[0].rank == 6


# sha256 of the files `qell point --json` and `qell unit --json` write, pinned
# from the schema-v1 output before subgroups were interned (C4xC4, the largest
# product table, and S6 before the tables were written from nonzero entries;
# D4xD4 and S3xS3xS3, many-class products whose class matrices have repeated
# eigenvalues, before the eigenspace split was rewritten).
GOLDEN_SHA256 = {
    ("point", "--group", "S4"):
        "fa2d48cfb31f8677f78a39256bc7ee8b72a91cbdaffdc908643544f874cd9385",
    ("point", "--group", "D6"):
        "8e71dd84be7a81645454ba7dcf9f776f134b5e14fac397a391b6f194b0284902",
    ("point", "--group", "C2xC4"):
        "4129458e331860421db5d06fe1aa7a92b11a15ff849806b1fb857e54f5167b8d",
    ("point", "--group", "A5"):
        "d2c0d3b4506e648f71821d5c3cf4bec8284c5b6ac23bf0ec3890338e941a7596",
    ("point", "--group", "C4xC4"):
        "69730eb621f05e5106d706cb83fbd96c9cef799104ecdc854004780071cedebd",
    ("point", "--group", "S6"):
        "3e26306bfe412d2faf80997f36858d2da29fdea3ebbca8bd926d2d255e26cf3c",
    ("point", "--group", "D12"):
        "a933c3a3616c6012f9eb3b95b8c5a8fcd564ea12235962ccbefc924788e15833",
    ("point", "--group", "C2xS4"):
        "80b1db48db05714798b95644a91878d0418a155561deccdd214a73d4153a1368",
    ("point", "--group", "S5"):
        "832031f178ed4606fccba783e48ed85f24a1730a4cdfc7f234b12ab3bf401f70",
    ("point", "--group", "A6"):
        "7fa883d842faa923d99712b8fe61a6bb784595b95c0f3b9edb89f6f8c76354ff",
    ("point", "--group", "D4xD4"):
        "ee3c674904cd7e3b57febc9fe9a9449d8d97555b7cc0a8f2f7c55fcb54dd9f5a",
    ("point", "--group", "S3xS3xS3"):
        "f74df2ba15e8dc6ea23dde36715cb63f19c121752f02979fa8d6cfa1e998de54",
    ("unit", "--group", "S4", "--space", "regular"):
        "b67c5931cde31e7d29ac2a3e3ff362cd0888df21782bbe4fd17b6ebb247a11a4",
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=" ".join)
def test_structure_json_golden_bytes(tmp_path, capsys, argv):
    path = tmp_path / "out.json"
    assert main([*argv, "--json", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[argv]


def test_point_json_file_is_dumps_plus_newline(tmp_path, capsys):
    """`point --json` writes the text in pieces, never whole; the bytes are the same."""
    path = tmp_path / "out.json"
    assert main(["point", "--group", "D4", "--json", str(path)]) == 0
    G = parse_group_spec("D4")
    st_ = qc.structure(G, point_set(G), ScalarContext.for_groups([G]))
    text = jsonio.dumps(jsonio.structure_payload(st_, tables=True))
    assert path.read_bytes() == (text + "\n").encode()
    assert "".join(jsonio.pieces(jsonio.structure_payload(st_, tables=True))) == text


def test_point_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["point", "--group", "D4", "--json", str(a)]) == 0
    assert main(["point", "--group", "D4", "--json", str(b)]) == 0
    assert a.read_text() == b.read_text()
