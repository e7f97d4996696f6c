"""Cross-module stress tests on larger groups and non-trivial G-sets."""

import importlib
import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from qell import qell_core as qc
from qell import rotrep as rr
from qell import verify
from qell.charmod import ScalarContext
from qell.groups import GroupHom, Permutation, alternating, make_group, symmetric
from qell.gsets import FiniteGSet


def test_a5_character_table():
    """Two 3-dimensional irreducibles differing only on 5-cycles."""
    A5 = alternating(5)
    ctx = ScalarContext.for_groups([A5])
    t = ctx.table(A5)
    assert sorted(t.degrees) == [1, 3, 3, 4, 5]
    assert sum(d * d for d in t.degrees) == 60


def test_quaternion_table_from_raw_generators():
    Q8 = make_group(8, [Permutation([2, 3, 1, 0, 6, 7, 5, 4]),
                        Permutation([4, 5, 7, 6, 1, 0, 2, 3])], name="Q8")
    assert Q8.order == 8
    assert Q8.conjugacy().class_sizes == (1, 1, 2, 2, 2)
    ctx = ScalarContext.for_groups([Q8])
    t = ctx.table(Q8)
    assert sorted(t.degrees) == [1, 1, 1, 1, 2]
    two = t.rows[t.degrees.index(2)]
    lifted = sorted(ctx.lift_symmetric(v) for v in two.values)
    assert lifted == [-2, 0, 0, 0, 2]


@pytest.fixture(scope="module")
def s4_natural():
    S4 = symmetric(4)
    sctx = ScalarContext.for_groups([S4])
    X = FiniteGSet(S4, 4, {g: g for g in S4.elements}, name="nat4")
    return S4, X, sctx


def test_transfer_projection_formula(s4_natural):
    """I(a · res(b)) = I(a) · b for the covering-composite transfer."""
    S4, X, sctx = s4_natural
    H = S4.subgroup([Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])])
    stH = qc.structure(H, X.restrict_group(H), sctx)
    stG = qc.structure(S4, X, sctx)
    incl = GroupHom.inclusion(H, S4)
    rng = random.Random(0)
    for _ in range(5):
        a = qc.random_element(stH, rng)
        b = qc.random_element(stG, rng)
        lhs = qc.transfer(S4, a * qc.pullback_hom(incl, b), X, algorithm="A")
        rhs = qc.transfer(S4, a, X, algorithm="A") * b
        assert lhs == rhs


def test_mu_on_nontrivial_gset(s4_natural):
    S4, X, sctx = s4_natural
    st = qc.structure(S4, X, sctx)
    rng = random.Random(1)
    for n in (2, 3):
        for _ in range(3):
            a = qc.random_element(st, rng)
            b = qc.random_element(st, rng)
            assert qc.mu(a * b, n) == qc.mu(a, n) * qc.mu(b, n)
        assert qc.mu(st.unit(), n) == st.unit()


def test_abelian_product_presentation(assert_pass):
    """Every component of C2 x C3 is Z[q^±][x1,x2]/(x1^2 - q^k1, x2^3 - q^k2)."""
    assert_pass(verify.abelian_product_presentations(((2, 3),)))


def test_pullback_along_surjection():
    """Restriction along the parity map lands sign classes correctly."""
    from qell.groups import cyclic, make_hom
    from qell.gsets import point_set

    S3 = symmetric(3)
    C2 = cyclic(2)
    sctx = ScalarContext.for_groups([S3, C2])
    images = []
    for g in S3.generators:
        odd = sum(len(c) - 1 for c in g.cycles()) % 2
        images.append(C2.generators[0] if odd else C2.identity)
    sign = make_hom(S3, C2, images)
    stH = qc.structure(C2, point_set(C2), sctx)
    pulled_unit = qc.pullback_hom(sign, stH.unit())
    stG = pulled_unit.structure
    assert stG.group == S3
    assert pulled_unit == stG.unit()
    rng = random.Random(2)
    for _ in range(6):
        a = qc.random_element(stH, rng)
        b = qc.random_element(stH, rng)
        assert qc.pullback_hom(sign, a * b) == \
            qc.pullback_hom(sign, a) * qc.pullback_hom(sign, b)
    # the sign line at the identity sector pulls back to the sign of S3
    comp = [list(row) for row in stH.zero().components]
    comp[0][0] = stH.classes[0].ctxs[0].basis_elt(1)
    sgn_elt = qc.QEllElt(stH, comp)
    out = qc.pullback_hom(sign, sgn_elt)
    e_ctx = stG.classes[0].ctxs[0]
    assert out.components[0][0] == e_ctx.basis_elt(1)


def test_exterior_power_vanishes_beyond_dimension():
    S3 = symmetric(3)
    sctx = ScalarContext.for_groups([S3])
    ctx = rr.ctx_build(S3, S3.identity, sctx)
    Y = ctx.basis_elt(2)
    assert rr.exterior_power(Y, 3).is_zero()
    assert rr.exterior_power(Y, 4).is_zero()
    perm = ctx.basis_elt(0) + ctx.basis_elt(2)
    assert rr.exterior_power(perm, 4).is_zero()


def test_benchmark_traced_names_are_defined():
    """Every target of perfbench/tracing.py resolves where ``Tracer.install``
    looks it up: in its class's or module's ``__dict__``.  The file is run,
    not imported, so no bytecode is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    targets = runpy.run_path(str(path))["TARGETS"]
    for name, modname, clsname, attr, _kind in targets:
        owner = importlib.import_module(modname)
        if clsname:
            owner = vars(owner)[clsname]
        assert callable(vars(owner).get(attr)), name
    guarded = {("qell.groups", "FiniteGroup", "centralizer"),
               ("qell.groups", None, "transporter"),
               ("qell.gsets", None, "inertia_skeleton"),
               ("qell.gsets", None, "orbits_with_stabilizers"),
               ("qell.qell_core", None, "value_at_element"),
               ("qell.qlaurent", None, "serialize"),
               ("qell.qlaurent", None, "deserialize")}
    guarded |= {("qell.qlaurent", "QLaurent", attr) for attr in (
        "__init__", "__mul__", "__add__", "__sub__", "__neg__", "__pow__",
        "rescale", "shift", "divide_int_exact")}
    assert guarded <= {target[1:4] for target in targets}


def test_benchmark_selftest_passes():
    """perfbench/selftest.py passes: a change to the library that breaks the
    benchmark (a renamed traced function, a wrong map it no longer flags)
    fails the suite.  With PYTHONDONTWRITEBYTECODE no bytecode is written
    under perfbench/."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")],
                          cwd=root, capture_output=True, text=True, timeout=600,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr[-4000:]
