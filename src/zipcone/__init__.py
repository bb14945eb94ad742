"""Exact Weyl-group combinatorics and rational cone certificates for the
rank-n symplectic similitude group.

Windows, roots and characters live in `weylroot`; Bruhat order, lower
neighbors and coset representatives in `bruhat`; weight maps and the
descent path in `hasse`; cones and Farkas machinery in `cones`; the
envelope certificate in `certify`; oracle sweeps in `sweeps`; the CLI in
`cli`.  All arithmetic is exact (integers and Fractions).
"""

from .kernels import BACKEND
from .weylroot import (
    Character,
    RatCharacter,
    Root,
    RootKind,
    WeylElem,
    act,
    canonical_elements,
    compose,
    inverse,
    is_I_dominant,
    length,
    levi_positive_roots,
    non_levi_positive_roots,
    pairing,
    positive_roots,
    reflection,
    simple_roots,
    weyl_elements,
)
from .bruhat import (
    AdmissiblePair,
    NeighborSet,
    PairClass,
    admissible_pairs,
    bruhat_leq,
    enum_IW,
    gamma,
    is_min_rep,
    is_separating,
    lower_neighbors,
    lower_neighbors_oracle,
    preceq,
    rank_matrix,
    stratum_dim,
)
from .hasse import (
    HasseMap,
    PathReport,
    PathStep,
    StepReport,
    anchor_element,
    chi_is_valid,
    descent_path,
    ha_closed_form,
    hasse_map,
    pha_multiplicities,
    solve_chi,
    verify_path_lemmas,
)
from .cones import (
    Cone,
    FarkasCertificate,
    PhaMembership,
    cone_GS,
    farkas_implies,
    lmin_member,
    lmin_member_enumerated,
    lmin_prefix_cone,
    n3_exact_cone,
    pha_w_member,
    pha_wmax_cone,
)
from .certify import Certificate, EnvelopeCheck, envelope_certificate

__version__ = "0.1.0"
