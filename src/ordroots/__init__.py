"""Exact computations with orders (rings on Z^n given by integer
structure constants): primitive idempotents, the torsion subgroup of the
unit group with generators and defining relations, and discrete
logarithms in torsion unit groups and in unipotent groups of finite
rings.  All arithmetic is exact; results are deterministic.
"""

from .abgroup import (
    EffPresentation,
    GroupOps,
    NotInGroup,
    kernel_mod_subgroup,
    membership_dlog,
    subgroup_presentation,
    subgroup_relations,
)
from .finitering import (
    FiniteRing,
    RingIdeal,
    filtration_generators,
    unipotent_dlog,
    unipotent_presentation,
)
from .kernels import ACTIVE_IMPL
from .linalg import (
    IntMatrix,
    Lattice,
    QLattice,
    RatMatrix,
    det_int,
    hnf,
    image_int,
    intersect_lattices,
    invariant_factors,
    kernel_int,
    lattice_index,
    snf,
    solve_int,
    solve_rat,
    sum_lattices,
)
from .numfield import NumberField, roots_in_field
from .ordercore import (
    Order,
    OrderContext,
    build_context,
    build_saturation,
    graph_mod_p,
    idempotent_divisor_oracle,
    mu_b_presentation,
    mu_c_p_presentation,
    order_from_poly,
    order_graph,
    primitive_idempotents,
)
from .polyfactor import cyclotomic, euler_phi, factor_q, resultant, squarefree_part
from .qalgebra import (
    AlgebraError,
    QAlgebra,
    decompose,
    minimal_polynomial,
    mu_presentation,
)
from .rou import (
    conductor,
    mu_a_generators,
    mu_a_p_generators,
    mu_a_presentation,
    mu_e_subgroup_dlog,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVE_IMPL",
    "AlgebraError",
    "EffPresentation",
    "FiniteRing",
    "GroupOps",
    "IntMatrix",
    "Lattice",
    "NotInGroup",
    "NumberField",
    "Order",
    "OrderContext",
    "QAlgebra",
    "QLattice",
    "RatMatrix",
    "RingIdeal",
    "build_context",
    "build_saturation",
    "conductor",
    "cyclotomic",
    "decompose",
    "det_int",
    "euler_phi",
    "factor_q",
    "filtration_generators",
    "graph_mod_p",
    "hnf",
    "idempotent_divisor_oracle",
    "image_int",
    "intersect_lattices",
    "invariant_factors",
    "kernel_int",
    "kernel_mod_subgroup",
    "lattice_index",
    "membership_dlog",
    "minimal_polynomial",
    "mu_a_generators",
    "mu_a_p_generators",
    "mu_a_presentation",
    "mu_b_presentation",
    "mu_c_p_presentation",
    "mu_e_subgroup_dlog",
    "mu_presentation",
    "order_from_poly",
    "order_graph",
    "primitive_idempotents",
    "resultant",
    "roots_in_field",
    "snf",
    "solve_int",
    "solve_rat",
    "squarefree_part",
    "subgroup_presentation",
    "subgroup_relations",
    "sum_lattices",
    "unipotent_dlog",
    "unipotent_presentation",
]
