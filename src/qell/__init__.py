"""Exact quasi-elliptic cohomology for finite groups on finite sets.

The ring QEll_G(X) is computed over Z[q^±] (with rational q-exponents where
root transports demand them), one component per torsion conjugacy class,
each component a product over centralizer orbits of fixed points of the
representation ring of a rotation-extended stabilizer.
"""

from .charmod import (
    CharacterTable,
    ClassFunction,
    ScalarContext,
    adams_cf,
    central_angle,
    character_table,
    decompose,
    induce_cf,
    inner_product,
    restrict_cf,
)
from .errors import (
    GroupTooLargeError,
    InternalCheckError,
    InvalidGeneratorError,
    NotHomomorphismError,
    NotSubgroupError,
    ParseError,
    PreconditionError,
    QellError,
    ScalarContextError,
    SchemaError,
)
from .groups import (
    ConjugacyData,
    FiniteGroup,
    GroupHom,
    Permutation,
    all_subgroups,
    alternating,
    builtin,
    conjugate_subgroup,
    cyclic,
    dihedral,
    direct_product,
    make_group,
    make_hom,
    symmetric,
    transporter,
)
from .gsets import (
    FiniteGSet,
    coset_gset,
    fixed_points,
    induced_gset,
    inertia_skeleton,
    orbits_with_stabilizers,
    point_set,
    product_gset,
    quotient_set,
    regular_gset,
)
from .qlaurent import ONE, QLaurent, ZERO, monomial, q_power
from .rotrep import (
    LambdaCtx,
    LambdaElt,
    adams,
    conjugate,
    ctx_build,
    ctx_for,
    exterior_power,
    induce_to,
    mu_transport,
    pairing,
    restrict_along,
)

__version__ = "0.1.0"
