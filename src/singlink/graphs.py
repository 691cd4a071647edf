"""Small undirected multigraph helpers: isomorphism testing and Dynkin trees."""

from __future__ import annotations

from collections import Counter


def _edge_multiset(n: int, edges) -> Counter:
    ms = Counter()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        ms[(u, v) if u <= v else (v, u)] += 1
    return ms


def graphs_isomorphic(n1: int, edges1, n2: int, edges2) -> bool:
    """Exact isomorphism of undirected multigraphs via pruned backtracking.

    Intended for the small quivers appearing here (rank <= ~20).
    """
    if n1 != n2:
        return False
    e1 = _edge_multiset(n1, edges1)
    e2 = _edge_multiset(n2, edges2)
    if sum(e1.values()) != sum(e2.values()):
        return False

    adj1 = [Counter() for _ in range(n1)]
    adj2 = [Counter() for _ in range(n2)]
    for (u, v), c in e1.items():
        adj1[u][v] += c
        adj1[v][u] += c
    for (u, v), c in e2.items():
        adj2[u][v] += c
        adj2[v][u] += c

    def signature(adj, i):
        return tuple(sorted(adj[i].values()))

    sig1 = sorted(signature(adj1, i) for i in range(n1))
    sig2 = sorted(signature(adj2, i) for i in range(n2))
    if sig1 != sig2:
        return False

    mapping: dict[int, int] = {}
    used = [False] * n2
    order = sorted(range(n1), key=lambda i: (-sum(adj1[i].values()), signature(adj1, i)))

    def extend(pos: int) -> bool:
        if pos == n1:
            return True
        u = order[pos]
        for v in range(n2):
            # A Counter reads 0 for a missing key, so absent edges match too.
            if (
                used[v]
                or signature(adj1, u) != signature(adj2, v)
                or not all(adj1[u][w] == adj2[v][x] for w, x in mapping.items())
            ):
                continue
            mapping[u] = v
            used[v] = True
            if extend(pos + 1):
                return True
            del mapping[u]
            used[v] = False
        return False

    return extend(0)


def dynkin_tree_edges(family: str, rank: int) -> list[tuple[int, int]]:
    """Edge list (0-based) of the ADE Dynkin tree in Bourbaki labeling."""
    family = family.upper()
    if family == "A":
        if rank < 1:
            raise ValueError("A_n needs n >= 1")
        return [(i, i + 1) for i in range(rank - 1)]
    if family == "D":
        if rank < 3:
            raise ValueError("D_n needs n >= 3")
        # Path 0..rank-2 with the extra leaf rank-1 attached at rank-3.
        edges = [(i, i + 1) for i in range(rank - 2)]
        edges.append((rank - 3, rank - 1))
        return edges
    if family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E_n exists for n in {6, 7, 8}")
        # Path of rank-1 nodes with the branch node third from one end.
        edges = [(i, i + 1) for i in range(rank - 2)]
        edges.append((2, rank - 1))
        return edges
    raise ValueError(f"not an ADE family: {family!r}")
