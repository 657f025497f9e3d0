"""Metrics, invariants and empirical covering/packing numbers on
homogeneous spaces of the unitary and special orthogonal groups."""

from .matcore import (
    OPERATOR,
    FROBENIUS,
    BranchAmbiguityError,
    InvalidArgumentError,
    NormSpec,
    eigenphases,
    expm_skew,
    logm_unitary,
    opnorm,
    principal_angles,
    schatten_norm,
)
from .groups import (
    GroupElement,
    GroupSpec,
    HomSpace,
    SkewElement,
    SubgroupSpec,
    haar_sample,
    haar_samples,
    project_H,
    project_X,
    tangent_sample,
    tangent_samples,
)
from .metrics import (
    CosetPoint,
    Curve,
    curve_length,
    extrinsic_dist,
    grassmann_dist,
    intrinsic_dist,
    quotient_dist_upper,
)
from .invariants import (
    diameter_estimate,
    diameter_known,
    kappa_known,
    kappa_lower,
    theta_known,
    theta_units,
    theta_witness_upper,
)
from .entropy import (
    BoundReport,
    NetResult,
    certify_cover,
    greedy_curve,
    greedy_net,
    greedy_packing,
    theorem8_bounds,
)
from .verify import (
    CheckReport,
    check_eq6,
    check_geodesic_minimality,
    check_lemma4,
    check_lemma5,
    check_lemma10,
    lemma4_product_bound,
    load_witness,
)

__version__ = "0.1.0"
