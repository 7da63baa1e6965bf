"""posetlab: forbidden-subposet problems in the Boolean lattice.

Detect weak / induced / rank-preserving / colored copies of finite posets
inside set families over [n], generate the standard extremal
constructions, compute exact LYM-style counting quantities, and run exact
maximum-free-family searches at small n with verifiable certificates.
"""

from .chains import (
    chain_weight_average,
    count_2chains,
    count_2chains_between,
    kleitman_lower_bound,
    lubell_mass,
    pair_count,
    tail_count,
    tail_ratio_diagnostic,
)
from .embed import (
    Embedding,
    InclusionBigraph,
    build_inclusion_bigraph,
    check_embedding,
    creates_copy_through,
    find_colored_copy,
    find_copy,
    find_copy_bruteforce,
    greedy_tree_embed,
    is_copy_image,
    min_degree_subgraph,
    validate_coloring,
)
from .errors import (
    AlreadyMember,
    CycleError,
    DuplicateLabel,
    ElementOutOfRange,
    EmbedFailed,
    InvalidColoring,
    InvalidParam,
    NotFree,
    NotGraded,
    OddN,
    ParseError,
    PosetlabError,
    TooLargeForEnumeration,
)
from .family import (
    SetFamily,
    elements_of,
    f23_construction,
    f23_formula_size,
    full_layer,
    layer_profile,
    lubell_tail_family,
    mask_of,
    middle_layers,
    parse_family,
    serialize_family,
    sigma,
)
from .poset import (
    Poset,
    all_height2_tree_posets,
    antichain,
    chain,
    classify_tree,
    complete_multilevel,
    dual,
    gen_named,
    height,
    is_isomorphic,
    poset_from_covers,
    poset_from_json,
    poset_to_json,
    rank_coloring,
    t_r3_poset,
    y_poset,
    y_prime_poset,
)
from .search import (
    SaturationResult,
    SearchConfig,
    SearchOutcome,
    exhaustive_max_free,
    la_exact,
    max_free_layers,
    saturation_check,
    verify_free,
)

__version__ = "0.1.0"
