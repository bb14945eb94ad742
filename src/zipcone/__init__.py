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
    levi_positive_roots,
    non_levi_positive_roots,
    pairing,
    positive_roots,
    reflection,
)
from .bruhat import (
    NeighborSet,
    PairClass,
    bruhat_leq,
    enum_IW,
    is_min_rep,
    is_separating,
    lower_neighbors,
    lower_neighbors_oracle,
    preceq,
    stratum_dim,
)
from .hasse import (
    PathReport,
    PathStep,
    StepReport,
    anchor_element,
    check_path_steps,
    descent_path,
    ha_closed_form,
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
from .certify import Certificate, envelope_certificate

__version__ = "0.1.0"
