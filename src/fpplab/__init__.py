"""Verification lab for weak-concentration bounds on hitting times of
increasing set-valued Markov processes."""

from .graphs import (
    Multigraph,
    WeightedGraph,
    bridge_graph,
    complete_graph,
    grid_graph,
    min_cut_weight,
    parse_edge_list,
    path_graph,
    random_gnp_graph,
    twin_classes,
)
from .chain import (
    ChainSpec,
    continuization_check,
    lemma1_bound,
    lemma2_grid,
    solve_hitting,
)
from .fpp import (
    coupled_resample,
    fpp_chain_spec,
    prop4_check,
    sample_coupling_batch,
    sample_dijkstra_batch,
    sample_fpp_batch,
    sample_lumped_fpp_batch,
    sample_traversal,
    submultiplicativity_probe,
)
from .multigraph import (
    MultigraphTrajectory,
    a_k_eval,
    max_spanning_tree_packing,
    max_triangle_packing,
    prop2_check,
    stopping_times,
)
from .growth import (
    CoverageConfig,
    GrowthConfig,
    coverage_chain_spec,
    coverage_simulate,
    growth_hitting_time,
    prop1_check,
    prop3_check,
)
from .stats import (
    F_K_eval,
    SampleStats,
    l0_norm_estimate,
    psi_minus_eval,
    theorem1_lower_check,
    theorem1_trend_experiment,
)

__version__ = "0.1.0"
