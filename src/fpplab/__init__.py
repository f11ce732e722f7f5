"""Verification lab for weak-concentration bounds on hitting times of
increasing set-valued Markov processes."""

from .graphs import bridge_graph, complete_graph, min_cut_weight
from .chain import lemma1_bound, solve_hitting
from .fpp import fpp_chain_spec, sample_fpp_batch
from .multigraph import prop2_check

__version__ = "0.1.0"
