"""Exact classification of first-order deformations of cyclic quotient
surface singularities.

The package converts among five equivalent descriptions of a singularity
(group action, abc invariants, toric cone, continued fraction, rational
interval), computes the graded dimensions of T1 and of its V-, W-, VW-
and qG-subspaces in closed form, and re-derives every closed-form answer
with brute-force lattice-point oracles.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .lattice import MPoint, NPoint, det2, ext_gcd, mod_inverse, pairing, primitive
from .representations import (
    ABCForm,
    CFForm,
    ConeForm,
    DegenerateSingularityError,
    IntervalUD,
    InvalidSingularityError,
    NQForm,
    SingularityForm,
    abc_to_nq,
    canonical_class,
    cf_to_nq,
    cone_to_interval,
    interval_to_abc,
    interval_to_cone,
    nq_to_abc,
    nq_to_cone,
    q_inverse,
    to_nq,
)
from .cone_geometry import (
    ClassData,
    HilbertData,
    LatticeTag,
    ZoneSpec,
    ab_floor_data,
    class_data,
    continued_fraction,
    eta,
    hilbert_basis,
    hilbert_basis_oracle,
    is_grounded,
    zone_points,
)
from .deformations import (
    CayleyFamily,
    ClassificationFlags,
    DeformationDirection,
    DegreeId,
    DegreeReport,
    T1Report,
    Totals,
    cayley_family,
    classify,
    iso_oracle,
    phi_functional,
    qg_dims,
    qg_oracle,
    stable_iso_oracle,
    t1_graded,
    totals,
    v_dims,
    v_dims_oracle,
    vw_dims,
    vw_dims_oracle,
    vw_oracle,
    w_dims_oracle,
)
