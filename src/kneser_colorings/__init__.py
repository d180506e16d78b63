"""Complete colorings of Kneser graphs: constructions, certificates, bounds, oracles."""

from .achromatic import achromatic_coloring, grundy_relabel
from .bounds import (alpha_upper_kn2, b_chromatic_lower, bounds_table,
                     improved_psi_bound, odd_graph_psi_lower, psi_upper_general,
                     psi_upper_kn2)
from .colorings import Coloring, check_condition_C, coloring_from_json, verify_coloring
from .designs import (Design, Resolution, c4_free_one_factorization, construct_design_21_5_1,
                      construct_kts, construct_one_factorization, construct_sts,
                      find_parallel_class, verify_design)
from .geometry import (PointSet, build_dv, convex_position_points, dv_achromatic_coloring,
                       dvnk_lower_coloring, random_general_position, thrackle_max_edges,
                       triangle_pair_check)
from .kneser import KneserGraph, build_kneser, lovasz_chromatic
from .oracle import (exact_achromatic, exact_chromatic, exact_grundy,
                     exact_pseudoachromatic)
from .pseudoachromatic import (kneser_matching_coloring, matching_coloring,
                               psi_lower_coloring, psi_tight_coloring)

__version__ = "0.1.0"

__all__ = [
    "achromatic_coloring", "grundy_relabel",
    "alpha_upper_kn2", "b_chromatic_lower", "bounds_table", "improved_psi_bound",
    "odd_graph_psi_lower", "psi_upper_general", "psi_upper_kn2",
    "Coloring", "check_condition_C", "coloring_from_json", "verify_coloring",
    "Design", "Resolution", "c4_free_one_factorization", "construct_design_21_5_1",
    "construct_kts", "construct_one_factorization", "construct_sts",
    "find_parallel_class", "verify_design",
    "PointSet", "build_dv", "convex_position_points", "dv_achromatic_coloring",
    "dvnk_lower_coloring", "random_general_position", "thrackle_max_edges",
    "triangle_pair_check",
    "KneserGraph", "build_kneser", "lovasz_chromatic",
    "exact_achromatic", "exact_chromatic", "exact_grundy", "exact_pseudoachromatic",
    "kneser_matching_coloring", "matching_coloring", "psi_lower_coloring",
    "psi_tight_coloring",
]
