"""Exact modular-group and lattice invariants of Fourier-Mukai
transformations on Picard-rank-one K3 surfaces of degree 2d: the
Atkin-Lehner coset algebra, the rank-3 Mukai lattice and its isometries,
the lift/descend correspondence between them, the derived-partner census,
and the induced actions on the upper half plane."""

from .arith import (
    Factorization,
    exact_divisor_values,
    factorize,
    is_exact_divisor,
    mod_inverse,
    star,
)
from .corr import (
    CorrespondenceReport,
    descend,
    represent,
    verify_correspondence,
)
from .errors import (
    ActionNotDiagonal,
    EndpointMismatch,
    IntegralityViolation,
    InternalClosureViolation,
    InvalidDeterminant,
    InvalidLevel,
    K3FMError,
    LevelMismatch,
    NotAnIsometry,
    NotInImage,
    NotIntegral,
    NotInUpperHalfPlane,
    NumericalPole,
    ZeroRank,
)
from .fmcalc import (
    InducedTransform,
    MukaiVector,
    PartnerCensus,
    PartnerLabel,
    compose,
    induced_transform,
    invert,
    partner_census,
    partner_label,
    source_twist,
)
from .halfplane import (
    HalfPlanePoint,
    central_charge,
    charge_product_defect,
    embed,
    equivariance_defect,
    induced_action,
    mobius,
    real_matrix,
)
from .lattice import (
    DiscriminantUnit,
    IsometryN,
    discriminant_unit,
    is_isometry,
    is_orientation_preserving,
)
from .modgroup import (
    ALElement,
    al_identity,
    al_inverse,
    al_mul,
    base_element,
    fricke_coset_count,
    is_fricke,
    random_al,
    random_gamma0,
    translation,
)

__version__ = "0.1.0"
