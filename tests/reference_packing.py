"""Reference spanning-tree packing number: the partition formula.

By the tree-packing theorem (Nash-Williams, Tutte), a multigraph packs
min over vertex partitions P of floor(crossing-edge count / (|P| - 1))
edge-disjoint spanning trees.  Enumerating every partition is exponential,
so this is for small vertex counts only; it shares no code with the
matroid-union augmentation in ``fpplab.multigraph`` and serves as its
oracle in ``test_multigraph.py``.
"""

from __future__ import annotations

from fpplab.graphs import Multigraph


def spanning_tree_packing_by_partition(m: Multigraph) -> int:
    n = m.base.n
    if n <= 1:
        return 0
    best = None
    for labels in _set_partitions(n):
        parts = max(labels) + 1
        if parts < 2:
            continue
        crossing = 0
        for e, count in enumerate(m.multiplicity):
            u, v = m.base.edges[e]
            if labels[u] != labels[v]:
                crossing += count
        value = crossing // (parts - 1)
        best = value if best is None else min(best, value)
    return best


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
