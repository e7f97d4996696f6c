"""Character tables, inner products, induction, Adams operations, angles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qell.charmod import (
    CharacterTable,
    ClassFunction,
    ScalarContext,
    _abelian_rows,
    _central_pieces,
    _class_matrix_rows,
    adams_cf,
    central_angle,
    decompose,
    induce_cf,
    inner_product,
    restrict_cf,
)
from qell.errors import InternalCheckError, PreconditionError, ScalarContextError
from qell.groupspec import parse_group_spec
from qell.groups import GroupHom, Permutation, cyclic, dihedral, direct_product, symmetric
from qell.gsets import point_set
from qell.qell_core import structure
from strategies import small_perm_specs


def test_scalar_context_properties(S3, s3_ctx):
    assert s3_ctx.p % s3_ctx.N == 1
    assert s3_ctx.p > 2 * S3.order ** 2
    # distinct powers of zeta are distinct
    powers = {pow(s3_ctx.zeta, k, s3_ctx.p) for k in range(s3_ctx.N)}
    assert len(powers) == s3_ctx.N


def test_context_rejects_foreign_group(s3_ctx):
    with pytest.raises(ScalarContextError, match="rebuild scalar context"):
        s3_ctx.check_group(cyclic(4))   # 4 does not divide N = 6


def test_context_rejects_prime_too_small():
    ctx = ScalarContext.for_groups([cyclic(6)])
    with pytest.raises(ScalarContextError, match="rebuild scalar context"):
        ctx.check_group(dihedral(6))    # exponent fits but 2*12^2 exceeds p


def test_s3_table_degrees(S3, s3_ctx):
    t = s3_ctx.table(S3)
    assert t.degrees == (1, 1, 2)


def test_c4_table_all_linear(C4):
    ctx = ScalarContext.for_groups([C4])
    t = ctx.table(C4)
    assert t.degrees == (1, 1, 1, 1)


def test_d4_table_degrees(D4):
    ctx = ScalarContext.for_groups([D4])
    t = ctx.table(D4)
    # oracle: 5 classes and sum of squares = 8 force degrees {1,1,1,1,2}
    assert D4.conjugacy().n_classes == 5
    assert sorted(t.degrees) == [1, 1, 1, 1, 2]
    assert sum(d * d for d in t.degrees) == 8


def test_table_orthonormality_various():
    for G in (symmetric(4), dihedral(5), direct_product(cyclic(2), cyclic(4))):
        ctx = ScalarContext.for_groups([G])
        t = ctx.table(G)
        for i, r in enumerate(t.rows):
            for j, s in enumerate(t.rows):
                assert inner_product(r, s) == (1 if i == j else 0)
        assert sum(d * d for d in t.degrees) == G.order


def test_abelian_fast_path_agrees_with_class_matrices():
    for G in (cyclic(6), cyclic(8), direct_product(cyclic(2), cyclic(2)),
              direct_product(cyclic(3), cyclic(3))):
        ctx = ScalarContext.for_groups([G])
        fast = {r.values for r in _abelian_rows(G, ctx)}
        slow = {r.values for r in _class_matrix_rows(G, ctx)}
        assert fast == slow


# -- the centre-first start of the class-matrix split ------------------------------

def _whole_space(G, ctx):
    """The start without the centre: the whole class space, split by every
    class matrix but the identity's."""
    k = G.conjugacy().n_classes
    return [([[int(i == j) for j in range(k)] for i in range(k)], list(range(k)))], range(1, k)


def _assert_centre_first_agrees(G):
    ctx = ScalarContext.for_groups([G])
    sizes = G.conjugacy().class_sizes
    pieces, _ = _central_pieces(G, ctx)
    assert len(pieces) == sizes.count(1) > 1      # one piece per linear character of Z
    fast = sorted(r.values for r in _class_matrix_rows(G, ctx))
    with pytest.MonkeyPatch.context() as mp:
        from qell import charmod
        mp.setattr(charmod, "_central_pieces", _whole_space)
        slow = sorted(r.values for r in _class_matrix_rows(G, ctx))
    assert fast == slow


@pytest.mark.parametrize("spec", ["C2xS4", "D4xD4", "D12", "S3xC3"])
def test_centre_first_start_agrees_with_the_whole_space(spec):
    _assert_centre_first_agrees(parse_group_spec(spec))


@settings(max_examples=80, deadline=None)
@given(small_perm_specs(max_degree=7))
def test_centre_first_start_agrees_on_random_centralizers(spec):
    """C_G(g) has g in its centre: the groups qell builds tables of.  Every
    centralizer with a nontrivial centre that is not abelian is checked."""
    conj = parse_group_spec(spec).conjugacy()
    for i in range(conj.n_classes):
        C = conj.centralizer(i)
        sizes = C.conjugacy().class_sizes
        if 1 < sizes.count(1) < len(sizes):
            _assert_centre_first_agrees(C)


def test_abelian_class_matrix_path_reads_no_table(monkeypatch):
    """On an abelian group the class-matrix path is the abelian path's
    cross-check, so it must not read that path or any table."""
    from qell import charmod

    def refuse(*args):
        raise AssertionError("the class-matrix path read a table")
    monkeypatch.setattr(charmod, "_abelian_rows", refuse)
    monkeypatch.setattr(ScalarContext, "table", refuse)
    for G in (cyclic(6), direct_product(cyclic(2), cyclic(4))):
        rows = _class_matrix_rows(G, ScalarContext.for_groups([G]))
        assert len(rows) == G.order


def test_regular_character_decomposition(S3, s3_ctx):
    t = s3_ctx.table(S3)
    conj = S3.conjugacy()
    reg_values = [S3.order if rep == S3.identity else 0
                  for rep in conj.class_reps]
    reg = ClassFunction(S3, s3_ctx, reg_values)
    mults = decompose(reg, t)
    assert tuple(mults) == t.degrees


def test_inner_product_examples(S3, s3_ctx):
    t = s3_ctx.table(S3)
    C3 = cyclic(3)
    ctx3 = ScalarContext.for_groups([C3])
    t3 = ctx3.table(C3)
    reg = ClassFunction(C3, ctx3, [3, 0, 0])
    triv = t3.rows[0]
    assert inner_product(reg, triv) == 1
    Y = t.rows[2]
    assert inner_product(Y * Y, Y) == 1


def test_tensor_decompose_examples(S3, s3_ctx):
    t = s3_ctx.table(S3)
    X, Y = t.rows[1], t.rows[2]
    assert X * Y == Y
    assert decompose(Y * Y, t) == [1, 1, 1]
    assert t.rows[0] * Y == Y


def test_decompose_rejects_non_character(S3, s3_ctx):
    t = s3_ctx.table(S3)
    f = ClassFunction(S3, s3_ctx, [1, 0, 2])
    with pytest.raises(PreconditionError, match="not a character combination"):
        decompose(f, t)


def brute_induced_values(G, H, chi):
    """Direct evaluation of the induced-character sum, per class of G."""
    p = chi.ctx.p
    conj_h = H.conjugacy()
    out = []
    for g in G.conjugacy().class_reps:
        s = 0
        for x in G.elements:
            y = x.inverse() * g * x
            if y in H:
                s += chi.values[conj_h.class_index(y)]
        out.append(s * pow(H.order, -1, p) % p)
    return tuple(out)


def test_induce_from_c3(S3, s3_ctx, c3_in_s3):
    t3 = s3_ctx.table(c3_in_s3)
    triv = t3.rows[0]
    ind = induce_cf(S3, c3_in_s3, triv)
    assert ind.values == brute_induced_values(S3, c3_in_s3, triv)
    t = s3_ctx.table(S3)
    assert decompose(ind, t) == [1, 1, 0]      # 1 + sign


def test_induce_from_c2(S3, s3_ctx, c2_in_s3):
    t2 = s3_ctx.table(c2_in_s3)
    ind = induce_cf(S3, c2_in_s3, t2.rows[0])
    t = s3_ctx.table(S3)
    assert decompose(ind, t) == [1, 0, 1]      # 1 + standard
    assert ind.values[0] == 3                  # degree = index


def test_restrict_identity(S3, s3_ctx):
    t = s3_ctx.table(S3)
    ident = GroupHom.identity_on(S3)
    for r in t.rows:
        assert restrict_cf(ident, r) == r


def test_frobenius_reciprocity(S3, s3_ctx, c2_in_s3, c3_in_s3):
    t = s3_ctx.table(S3)
    for H in (c2_in_s3, c3_in_s3):
        tH = s3_ctx.table(H)
        incl = GroupHom.inclusion(H, S3)
        for chi in tH.rows:
            ind = induce_cf(S3, H, chi)
            for psi in t.rows:
                assert inner_product(ind, psi) == \
                    inner_product(chi, restrict_cf(incl, psi))


def test_adams_examples(S3, s3_ctx):
    t = s3_ctx.table(S3)
    Y = t.rows[2]
    assert adams_cf(Y, 1) == Y
    psi2 = adams_cf(Y, 2)
    e_idx = S3.conjugacy().class_index(S3.identity)
    flip_idx = S3.conjugacy().class_index(Permutation([1, 0, 2]))
    assert psi2.values[e_idx] == 2
    assert psi2.values[flip_idx] == 2          # (12)^2 = e
    for chi in t.rows:
        psi6 = adams_cf(chi, 6)
        assert all(v == chi.values[e_idx] for v in psi6.values)


def test_adams_composition(D4):
    ctx = ScalarContext.for_groups([D4])
    t = ctx.table(D4)
    for chi in t.rows:
        assert adams_cf(adams_cf(chi, 2), 3) == adams_cf(chi, 6)
        assert adams_cf(chi, 1) == chi


def test_adams_over_a_table_squares_each_class_rep_once(monkeypatch):
    """ψ² of every row of one table reads one power map of the group: each
    class rep is squared once, not once per row."""
    G = symmetric(4)
    rows = ScalarContext.for_groups([G]).table(G).rows
    squared = []
    power = Permutation.__pow__

    def counted(g, m):
        if m == 2:
            squared.append(g)
        return power(g, m)

    monkeypatch.setattr(Permutation, "__pow__", counted)
    for chi in rows:
        adams_cf(chi, 2)
    assert sorted(squared) == sorted(G.conjugacy().class_reps)


def test_central_angle_examples():
    C2 = cyclic(2)
    ctx = ScalarContext.for_groups([C2])
    t = ctx.table(C2)
    inv = C2.generators[0]
    angles = sorted(central_angle(r, inv, ctx) for r in t.rows)
    assert angles == [Fraction(0), Fraction(1, 2)]
    assert central_angle(t.rows[0], inv, ctx) == 0

    C3 = cyclic(3)
    ctx3 = ScalarContext.for_groups([C3])
    t3 = ctx3.table(C3)
    g = C3.generators[0]
    assert sorted(central_angle(r, g, ctx3) for r in t3.rows) == \
        [Fraction(0), Fraction(1, 3), Fraction(2, 3)]


def test_central_angle_additivity(C4):
    ctx = ScalarContext.for_groups([C4])
    t = ctx.table(C4)
    g = C4.generators[0]
    for a in t.rows:
        for b in t.rows:
            prod = a * b
            mults = decompose(prod, t)
            target = central_angle(a, g, ctx) + central_angle(b, g, ctx)
            target -= int(target)
            for i, m in enumerate(mults):
                if m:
                    assert central_angle(t.rows[i], g, ctx) == target



def _angle_by_search(chi, g, ctx):
    """The angle of g on χ by a linear search of the powers of ζ_{ord(g)}."""
    G = chi.group
    val = chi(g) * pow(chi(G.identity), -1, ctx.p) % ctx.p
    n = g.order()
    zeta_n = ctx.root_of_unity(n)
    return next(Fraction(k, n) for k in range(n) if pow(zeta_n, k, ctx.p) == val)


def _assert_angles_match_search(G):
    sctx = ScalarContext.for_groups([G])
    for cb in structure(G, point_set(G), sctx).classes:
        for ctx in cb.ctxs:
            expected = tuple(_angle_by_search(r, ctx.g, sctx) for r in ctx.table.rows)
            assert ctx.angles == expected
            assert tuple(central_angle(r, ctx.g, sctx) for r in ctx.table.rows) == expected


@pytest.mark.parametrize("spec", ["S4", "D6", "C2xC4", "A5"])
def test_angles_match_a_linear_search(spec):
    _assert_angles_match_search(parse_group_spec(spec))


@settings(max_examples=25, deadline=None)
@given(small_perm_specs(max_degree=6))
def test_angles_match_a_linear_search_on_random_groups(spec):
    _assert_angles_match_search(parse_group_spec(spec))


def test_central_angle_check_fires_on_a_corrupted_context():
    C2 = cyclic(2)
    ctx = ScalarContext.for_groups([C2])
    sign = next(r for r in ctx.table(C2).rows if r(C2.generators[0]) != 1)
    ctx.zeta = 1                # every ζ_n is now 1, so χ(g)/χ(1) = -1 is no power
    with pytest.raises(InternalCheckError, match="no central angle found"):
        central_angle(sign, C2.generators[0], ctx)


def test_central_angle_check_fires_on_a_context_corrupted_after_use():
    C2 = cyclic(2)
    ctx = ScalarContext.for_groups([C2])
    g = C2.generators[0]
    sign = next(r for r in ctx.table(C2).rows if r(g) != 1)
    assert central_angle(sign, g, ctx) == Fraction(1, 2)
    ctx.zeta = 1                # corrupted after ζ_2's powers were first read
    with pytest.raises(InternalCheckError, match="no central angle found"):
        central_angle(sign, g, ctx)


# -- injected faults ------------------------------------------------------------
#
# character_table checks the rows it is handed; corrupting the rows one of the
# two row builders returns must trip each of its conditions, and so must an
# eigenvalue search that loses a root.  Class 0 is the identity's, so
# values[0] is a row's degree.

def _scaled_standard(rows):
    """The degree-2 row of S3 doubled: degree squares sum to 1 + 1 + 16."""
    return [ClassFunction(r.group, r.ctx, [2 * v for v in r.values])
            if r.values[0] == 2 else r for r in rows]


def _split_standard(rows):
    """The degree-2 row of S3 replaced by four sign rows: squares still sum
    to 6, but there are six rows for three classes."""
    sign = next(r for r in rows if r.values[0] == 1 and len(set(r.values)) > 1)
    return [r for r in rows if r.values[0] != 2] + [sign] * 4


def _duplicated_trivial(rows):
    """A nontrivial linear row replaced by the trivial one: degrees and count
    stay right, orthonormality breaks."""
    trivial = next(r for r in rows if len(set(r.values)) == 1)
    k = next(i for i, r in enumerate(rows) if r.values[0] == 1 and r is not trivial)
    return rows[:k] + [trivial] + rows[k + 1:]


def _dropped_root(roots):
    """The eigenvalue search loses its last root, so an eigenspace is lost."""
    return roots[:-1]


def _wrong_central_root(table):
    """On the centre's table, the one abelian table a nonabelian group's
    build reads, the last θ has its value at its first z with θ(z) ≠ 1 moved
    to the wrong root of unity θ(z)·ζ_n, n = ord(z).  For a centre of order
    2 this θ becomes the trivial one: over C2xS4 every Z-orbit of classes is
    free, so the pieces double up and the rows repeat; over D4 the doubled
    piece is larger than the lost one, so the split yields too many rows."""
    Z, ctx = table.group, table.ctx
    if not Z.is_abelian():
        return table
    theta = list(table.rows[-1].values)
    c = next(c for c, t in enumerate(theta) if t != 1)
    theta[c] = theta[c] * ctx.root_of_unity(Z.conjugacy().rep_orders[c]) % ctx.p
    return CharacterTable(Z, ctx, table.rows[:-1] + (ClassFunction(Z, ctx, theta),))


def _doubled_sign(table):
    """The sign row of S3 doubled after the table's checks: the rows' lookup
    still holds the true sign, so no product with the doubled row is a row."""
    k = next(i for i, r in enumerate(table.rows)
             if r.values[0] == 1 and len(set(r.values)) > 1)
    doubled = ClassFunction(table.group, table.ctx, [2 * v for v in table.rows[k].values])
    table.rows = table.rows[:k] + (doubled,) + table.rows[k + 1:]
    return table


@pytest.mark.parametrize("target, group, corrupt, message", [
    ("charmod._class_matrix_rows", symmetric(3), _scaled_standard,
     "degree squares do not sum to the group order"),
    ("charmod._class_matrix_rows", symmetric(3), _split_standard,
     "wrong number of irreducible characters"),
    ("charmod._class_matrix_rows", symmetric(3), _duplicated_trivial,
     "table rows are not orthonormal"),
    ("charmod._abelian_rows", direct_product(cyclic(2), cyclic(4)), _duplicated_trivial,
     "table rows are not orthonormal"),
    ("modp.distinct_roots", symmetric(3), _dropped_root,
     "class matrices failed to split the algebra"),
    ("charmod.character_table", symmetric(3), _doubled_sign,
     "product with a linear row is not a row of the table"),
    ("charmod.character_table", direct_product(cyclic(2), symmetric(4)),
     _wrong_central_root, "table rows are not orthonormal"),
    ("charmod.character_table", dihedral(4), _wrong_central_root,
     "class matrices failed to split the algebra"),
], ids=["degree-squares", "count", "orthonormality", "orthonormality-abelian", "split",
        "linear-product", "central-root-orthonormality", "central-root-split"])
def test_character_table_checks_fire(monkeypatch, target, group, corrupt, message):
    from qell import charmod, modp
    module, name = target.split(".")
    owner = {"charmod": charmod, "modp": modp}[module]
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: corrupt(original(*args)))
    with pytest.raises(InternalCheckError, match=message):
        table = charmod.character_table(group, ScalarContext.for_groups([group]))
        for i in range(table.n_irr):
            for j in range(table.n_irr):
                table.product_multiplicities(i, j)


def test_irreducible_index_finds_rows_and_rejects_the_rest(S3, s3_ctx):
    t = s3_ctx.table(S3)
    assert [t.irreducible_index(r) for r in t.rows] == list(range(t.n_irr))
    with pytest.raises(InternalCheckError, match="class function is not a row of the table"):
        t.irreducible_index(t.rows[0] + t.rows[1])


# -- products with a linear row ----------------------------------------------------

def test_products_with_a_linear_row_make_no_decompositions(monkeypatch):
    from qell import charmod
    G = parse_group_spec("S4")
    t = ScalarContext.for_groups([G]).table(G)
    calls = []
    monkeypatch.setattr(charmod, "decompose",
                        lambda *args, **kw: calls.append(1) or decompose(*args, **kw))
    for i in range(t.n_irr):
        for j in range(t.n_irr):
            t.product_multiplicities(i, j)
    nonlinear = sum(d > 1 for d in t.degrees)
    assert len(calls) == nonlinear * (nonlinear + 1) // 2


# -- decompose against the per-row inner products ----------------------------------

def _reference_decompose(f, table, virtual=False):
    """The reference for decompose: one inner_product per row."""
    p = f.ctx.p
    bound = f.ctx.max_order
    mults = []
    for r in table.rows:
        m = f.ctx.lift_symmetric(inner_product(f, r))
        if abs(m) > bound or (m < 0 and not virtual):
            raise PreconditionError(
                f"not a character combination: multiplicity lift {m}"
            )
        mults.append(m)
    rebuilt = [0] * len(f.values)
    for m, r in zip(mults, table.rows):
        for j, v in enumerate(r.values):
            rebuilt[j] = (rebuilt[j] + m * v) % p
    if tuple(rebuilt) != f.values:
        raise PreconditionError("not a character combination")
    return mults


_ORACLE_SPECS = ("S4", "D6", "C2xC4", "A5")


@pytest.fixture(scope="module")
def oracle_tables():
    groups = [parse_group_spec(spec) for spec in _ORACLE_SPECS]
    ctx = ScalarContext.for_groups(groups)
    return ctx, {spec: ctx.table(G) for spec, G in zip(_ORACLE_SPECS, groups)}


def _outcome(fn, *args, **kw):
    try:
        return "ok", fn(*args, **kw)
    except PreconditionError as exc:    # compared by type and message
        return type(exc), str(exc)


def _agrees_with_reference(f, table, virtual):
    got = _outcome(decompose, f, table, virtual=virtual)
    assert got == _outcome(_reference_decompose, f, table, virtual=virtual)
    return got


def _combination(table, mults):
    p = table.ctx.p
    values = [sum(m * v for m, v in zip(mults, col)) % p
              for col in zip(*(r.values for r in table.rows))]
    return ClassFunction(table.group, table.ctx, values)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_ORACLE_SPECS), st.data(), st.booleans())
def test_decompose_matches_reference_on_combinations(oracle_tables, spec, data, virtual):
    ctx, tables = oracle_tables
    t = tables[spec]
    mults = data.draw(st.lists(st.integers(-4, 6), min_size=t.n_irr, max_size=t.n_irr))
    if data.draw(st.booleans()):     # one multiplicity beyond the session bound
        k = data.draw(st.integers(0, t.n_irr - 1))
        mults[k] = data.draw(st.sampled_from((-1, 1))) * \
            (ctx.max_order + data.draw(st.integers(1, 100)))
    got = _agrees_with_reference(_combination(t, mults), t, virtual)
    in_bound = all(abs(m) <= ctx.max_order for m in mults)
    if in_bound and (virtual or min(mults) >= 0):
        assert got == ("ok", mults)
    else:
        assert got[0] is PreconditionError


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_ORACLE_SPECS), st.data(), st.booleans())
def test_decompose_matches_reference_on_non_combinations(oracle_tables, spec, data,
                                                         virtual):
    ctx, tables = oracle_tables
    t = tables[spec]
    k = t.n_irr
    # mostly not combinations; zero is one, and so is 3·(indicator of the
    # 3-cycles) in S4, virtually
    if data.draw(st.booleans()):     # arbitrary values mod p
        values = data.draw(st.lists(st.integers(0, ctx.p - 1), min_size=k, max_size=k))
    else:                            # a small combination with one value moved
        mults = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        values = list(_combination(t, mults).values)
        values[data.draw(st.integers(0, k - 1))] += data.draw(st.integers(1, 5))
    _agrees_with_reference(ClassFunction(t.group, ctx, values), t, virtual)


@settings(max_examples=60, deadline=None)
@given(st.permutations(_ORACLE_SPECS), st.data())
def test_decompose_matches_reference_on_foreign_groups(oracle_tables, specs, data):
    _, tables = oracle_tables
    spec, other = specs[:2]
    rows = tables[other].rows
    f = rows[data.draw(st.integers(0, len(rows) - 1))]
    got = _agrees_with_reference(f, tables[spec], data.draw(st.booleans()))
    assert got == (PreconditionError, "class functions live on different groups")
