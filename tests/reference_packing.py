"""Reference spanning-tree packing numbers: the partition formulas.

By the tree-packing theorem (Nash-Williams, Tutte), a multigraph packs
min over vertex partitions P of floor(crossing-edge count / (|P| - 1))
edge-disjoint spanning trees.  By Nash-Williams' forest theorem, at most
min over P of (crossing-edge count + k (n - |P|)) of its edge copies fit
into k edge-disjoint forests, the rank of the k-fold union of the graphic
matroid.  Enumerating every partition is exponential, so this is for
small vertex counts only; it shares no code with the matroid-union
augmentation in ``fpplab.multigraph`` and serves as its oracle in
``test_multigraph.py``.  The two-part partitions give the min cut:
``min_cut_by_masks`` is the one-mask-at-a-time loop, the oracle of
``fpplab.graphs.min_cut_weight`` in ``test_graphs.py``.
"""

from __future__ import annotations

from fpplab.graphs import Multigraph


def spanning_tree_packing_by_partition(m: Multigraph) -> int:
    n = m.base.n
    if n <= 1:
        return 0
    return min(_crossing(m, labels) // max(labels)
               for labels in _set_partitions(n) if max(labels) > 0)


def forest_union_rank_by_partition(m: Multigraph, k: int) -> int:
    n = m.base.n
    return min(_crossing(m, labels) + k * (n - 1 - max(labels))
               for labels in _set_partitions(n))


def min_cut_by_masks(g) -> tuple[float, int]:
    """(gamma, witness): the least cut weight over the masks with vertex 0
    inside, the full mask skipped, each cut summed edge by edge in edge
    order; the witness is the first mask that reaches gamma."""
    n = g.n
    edges = list(zip(g.edge_array().tolist(), g.weight_array().tolist()))
    best, witness = float("inf"), 1
    for half in range((1 << (n - 1)) - 1):
        mask = (half << 1) | 1
        cut = 0.0
        for (u, v), w in edges:
            if ((mask >> u) & 1) != ((mask >> v) & 1):
                cut += w
        if cut < best:
            best, witness = cut, mask
    return best, witness


def _crossing(m: Multigraph, labels: list[int]) -> int:
    """Edge copies whose ends lie in different parts."""
    return sum(count for (u, v), count in zip(m.base.edge_array().tolist(), m.multiplicity)
               if labels[u] != labels[v])


def _set_partitions(n: int):
    """All set partitions of range(n) as restricted-growth label lists."""
    labels = [0] * n

    def rec(i: int, maxl: int):
        if i == n:
            yield list(labels)
            return
        for lab in range(maxl + 2):
            labels[i] = lab
            yield from rec(i + 1, max(maxl, lab))

    yield from rec(1, 0)
