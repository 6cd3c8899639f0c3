"""seedtrace: grow trees from a seed by random attachment, then find the seed.

Public surface: tree structures and file IO (tree), the growth process
(generate), hanging-size scores and confidence sets (centrality), exact shape
likelihoods with a brute-force oracle (likelihood, oracle), skeleton and star
seed recovery plus set-size formulas (skeleton), statistical helpers (stats),
and the reproducible experiment harness (harness).
"""

from .centrality import dfs_cover_set, phi_log_all, phi_set, psi_all, psi_set
from .growth import GrowthRecord, anonymize, generate, seed_component_sizes
from .harness import (
    CheckResult,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    SearchResult,
    TrialOutcome,
    distribution_check,
    minimal_k_search,
    run_experiment,
)
from .likelihood import (
    PlacementBudgetError,
    enumerate_placements,
    log_likelihood_all,
    log_likelihood_rooted,
    log_likelihood_seed,
    mle_root,
    mle_seed,
)
from .oracle import brute_force_shape_probability
from .skeleton import (
    BoundResult,
    SkeletonObservation,
    bound_calculators,
    skeleton_leaf_set,
    star_recover,
)
from .stats import (
    BetaIntParams,
    beta_cdf,
    beta_cdf_int,
    chi_square_sf,
    ks_statistic,
    uniform_spacings,
    wilson_interval,
)
from .tree import (
    ConfidenceSet,
    SeedPlacement,
    Tree,
    TreeError,
    build_tree,
    parse_tree,
    path_tree,
    read_tree,
    spider_tree,
    star_tree,
    subtree_sizes,
    write_tree,
)

__version__ = "0.1.0"
