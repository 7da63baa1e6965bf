"""posetlab: forbidden-subposet problems in the Boolean lattice.

Detect weak / induced / rank-preserving / colored copies of finite posets
inside set families over [n], generate the standard extremal
constructions, compute exact LYM-style counting quantities, and run exact
maximum-free-family searches at small n with verifiable certificates.

The submodules load on first use: each sits in sys.modules from the start
as a lazy module (importlib.util.LazyLoader) whose code runs on its first
attribute lookup, and the public names below resolve through the module
__getattr__.  A CLI command therefore runs only the modules it uses.
"""

import importlib.util
import sys

from . import errors  # noqa: F401  (loaded eagerly: small, and every command needs it)

__version__ = "0.1.0"

# The public names, by the submodule each one lives in.
_HOMES = {
    "chains": (
        "chain_weight_average", "count_2chains", "count_2chains_between",
        "kleitman_lower_bound", "lubell_mass", "pair_count", "tail_count",
        "tail_ratio_diagnostic",
    ),
    "embed": (
        "Embedding", "InclusionBigraph", "SaturationResult", "build_inclusion_bigraph",
        "check_embedding", "creates_copy_through", "find_colored_copy", "find_copy",
        "find_copy_bruteforce", "greedy_tree_embed", "is_copy_image",
        "min_degree_subgraph", "saturation_check", "validate_coloring", "verify_free",
    ),
    "errors": (
        "AlreadyMember", "CycleError", "DuplicateLabel", "ElementOutOfRange", "EmbedFailed",
        "InvalidColoring", "InvalidParam", "NotFree", "NotGraded", "OddN", "ParseError",
        "PosetlabError", "TooLargeForEnumeration",
    ),
    "family": (
        "SetFamily", "elements_of", "f23_construction", "f23_formula_size", "full_layer",
        "layer_profile", "lubell_tail_family", "mask_of", "middle_layers", "parse_family",
        "serialize_family", "sigma",
    ),
    "poset": (
        "Poset", "all_height2_tree_posets", "antichain", "chain", "classify_tree",
        "complete_multilevel", "dual", "gen_named", "height", "is_isomorphic",
        "poset_from_covers", "poset_from_json", "poset_to_json", "rank_coloring",
        "t_r3_poset", "y_poset", "y_prime_poset",
    ),
    "search": (
        "SearchConfig", "SearchOutcome", "exhaustive_max_free", "la_exact",
        "max_free_layers",
    ),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def _lazy(name):
    """Register the submodule in sys.modules without running its code."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


chains = _lazy("chains")
embed = _lazy("embed")
family = _lazy("family")
poset = _lazy("poset")
search = _lazy("search")
verify = _lazy("verify")


def __getattr__(name):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[f"{__name__}.{home}"], name)


def __dir__():
    return sorted({*globals(), *__all__})
