"""Online contention resolution for matroids under correlated priors,
in the preselected-order model: subsampling-based schemes, an LP-optimal
mixture builder, a secretary-algorithm reduction, exact desk-scale oracles,
and an experiment harness.
"""

from .bitset import DimensionMismatch, SubsetMask
from .harness import (
    BalancednessReport,
    Instance,
    estimate_balancedness,
    gen_hidden_element,
    gen_kuniform_allactive,
    gen_parallel_hats,
    measure_competitiveness,
    parse_instance,
    two_element_instance,
)
from .lp import (
    BuildReport,
    GridRangeError,
    LpColumn,
    LpSolution,
    WeightGrid,
    build_lp_scheme,
    build_secretary_reduction,
    round_to_grid,
    solve_restricted,
)
from .matroid import (
    ExplicitMatroid,
    GraphicMatroid,
    Matroid,
    RestrictionMatroid,
    UniformMatroid,
    matroid_from_spec,
    verify_axioms,
)
from .oracle import (
    AlphaCertificate,
    EnumerationTooLarge,
    exact_balancedness,
    max_uncontentious_alpha,
)
from .preselect import (
    NoQualifyingElement,
    PreselectConfig,
    count_span_stats_independent,
    count_span_stats_prefix,
    preselect_independent,
    preselect_prefix,
    sample_size,
)
from .priors import (
    AllActivePrior,
    ExplicitPrior,
    Prior,
    PriorError,
    ProductPrior,
    SamplerPrior,
    hidden_element_prior,
    prior_from_spec,
)
from .sampling import Permutation
from .schemes import (
    IndependentSubsampling,
    OrderedGreedy,
    PermutationMixture,
    PrefixSubsampling,
    Scheme,
    WeightMixture,
    order_by_weight,
    scheme_from_spec,
)

__version__ = "0.1.0"
