"""One ScalarContext shared by several threads gives single-threaded results.

The memo caches (character tables, central angles, centralizers, rotation
contexts, structures, product and decomposition columns, the subgroup
registry on each root group, induced G-sets on each group, class transports
on each group's conjugacy data, the one registry ``_maps`` on each rotation
context (checked map entries, the columns each entry builds, conjugated
contexts, folded entries and Künneth tables), restriction entries and
pullback plans on each hom, and the one plan registry on each structure: its
routes and the plan of every other structural map out of it) fill lazily
and without locks, all through ``groups.memo``.  Each entry is complete
before it is stored and a stored entry is never replaced, so two threads can
at worst build the same entry twice.  This test runs the same workload on
fresh groups and a fresh context, once in one thread and once in four
threads sharing everything; each step runs twice, so the threads also race
on warm entries.  The threads start each step together, with a tiny
interpreter switch interval, so that they interleave inside the same cache
fills.
"""

import random
import sys
import threading

from qell import jsonio
from qell import qell_core as qc
from qell.charmod import ScalarContext
from qell.groups import GroupHom, all_subgroups, cyclic, dihedral, direct_product, symmetric
from qell.gsets import coset_gset, point_set, product_gset, regular_gset

N_THREADS = 4


def fresh_world():
    G = symmetric(4)
    subs = [H for H in all_subgroups(G) if H.order in (2, 3, 4, 6, 8)][:8]
    D = dihedral(4)
    P = direct_product(symmetric(3), cyclic(2))
    return G, subs, D, P, ScalarContext.for_groups([G, D, P])


def steps(G, subs, D, P, sctx) -> list:
    """The workload as a list of calls, each returning serialised elements."""
    def dump(*elts):
        return [jsonio.dumps(jsonio.element_payload(e)) for e in elts]

    def on_subgroup(H, incl):
        a = qc.random_element(qc.structure(H, point_set(H), sctx),
                              random.Random(H.order))
        t = qc.transfer(G, a, algorithm="B")
        ta = qc.transfer(G, a, point_set(G), algorithm="A")
        z = qc.change_of_group_inverse(G, H, point_set(H), a)
        back = qc.change_of_group(G, H, point_set(H), z)
        r = qc.random_element(qc.structure(H, regular_gset(H), sctx),
                              random.Random(H.order + 1))
        zr = qc.change_of_group_inverse(G, H, regular_gset(H), r)
        back_r = qc.change_of_group(G, H, regular_gset(H), zr)
        GH = coset_gset(G, H)     # G/H -> pt
        pm = qc.pullback_map([0] * GH.n_points, t, GH)
        # G x_H H has no JSON descriptor: its element is compared by repr
        return dump(t, t * t, qc.mu(t, 2), qc.mu(t, 3), qc.adams(t, 3), ta, z, back,
                    qc.pullback_hom(incl, t), back_r, pm) + [repr(zr)]

    def on_regular():
        b = qc.random_element(qc.structure(D, regular_gset(D), sctx), random.Random(1))
        return dump(b * b, qc.exterior_power(b, 2))

    def on_product():
        A, B = P.factors
        a = qc.random_element(qc.structure(A, point_set(A), sctx), random.Random(2))
        b = qc.random_element(qc.structure(B, point_set(B), sctx), random.Random(3))
        return dump(qc.kunneth(a, b, P, product_gset(point_set(A), point_set(B), P)))

    # one hom per subgroup, shared by the threads with its restriction entries
    homs = [GroupHom.inclusion(H, G) for H in subs]
    return [lambda H=H, incl=incl: on_subgroup(H, incl) for H, incl in zip(subs, homs)] + \
        [on_regular, on_product]


def test_shared_context_matches_single_thread():
    expected = [step() for step in steps(*fresh_world()) for _ in range(2)]
    shared = steps(*fresh_world())
    results = [[] for _ in range(N_THREADS)]
    errors = []
    in_step = threading.Barrier(N_THREADS, timeout=60)

    def run(i):
        try:
            for step in shared:
                for _ in range(2):      # cold, then warm: a race on filled entries too
                    in_step.wait()      # lock step: all threads miss the same entries
                    results[i].append(step())
        except Exception as exc:      # surfaced below, not lost in the thread
            errors.append(exc)
            in_step.abort()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert all(r == expected for r in results)
