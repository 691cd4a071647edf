"""Cluster seeds with exact Laurent cluster variables, their mutation and
their enumeration.

Seeds carry exact Laurent cluster variables in the initial variables
u1..un; mutation divides the exchange binomial by the outgoing variable,
which is exact whenever the Laurent phenomenon holds (asserted).  A seed
of a finite-type algebra is determined by its cluster (Fomin-Zelevinsky,
Cluster algebras II; Gekhtman-Shapiro-Vainshtein), so
:func:`enumerate_seeds` keys a seed by its unordered set of cluster
variables and returns the Laurent seeds (the ``seeds`` command and the
seed-count check).  The integer matrices, their mutation, classification
and the c-vector seed count live in :mod:`quivers`, which this module
builds on; mutation is an involution, so both seed searches skip the edge
back to a seed's BFS parent.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import deque

from .exactmath import DivisionError, Polynomial, RingDescriptor, divide_exact
from .fqmath import BudgetExceededError
from .quivers import ClusterError, ExchangeMatrix, check_seed_budget, mutate
from .records import Record

# Unused here: bench/tracer.py times these two through this module's bindings.
from .quivers import canonical_form, is_finite_type


def initial_cluster_ring(n: int) -> RingDescriptor:
    names = tuple(f"u{i}" for i in range(1, n + 1))
    return RingDescriptor(names, laurent=frozenset(names))


class Seed(Record):
    __slots__ = ("matrix", "cluster")


def initial_seed(matrix: ExchangeMatrix) -> Seed:
    ring = initial_cluster_ring(matrix.n)
    return Seed(matrix, tuple(ring.var(v) for v in ring.variables))


def _product(factors: list[Polynomial], one: Polynomial) -> Polynomial:
    """Product of the factors, starting from the first (``one`` if none)."""
    return functools.reduce(operator.mul, factors) if factors else one


def _exchange(seed: Seed, kk: int) -> Polynomial:
    """The exchange relation at direction kk (0-based):

    x'_k = (prod_{b_ik > 0} x_i^{b_ik} + prod_{b_ik < 0} x_i^{-b_ik}) / x_k.

    The Laurent phenomenon makes the division exact for every seed reached
    by mutation; a remainder raises :class:`ClusterError`.
    """
    pos, neg = [], []
    for x, row in zip(seed.cluster, seed.matrix.entries):
        b = row[kk]
        if b > 0:
            pos.append(x ** b)
        elif b < 0:
            neg.append(x ** -b)
    one = seed.cluster[0].ring.one()
    numerator = _product(pos, one) + _product(neg, one)
    try:
        return divide_exact(numerator, seed.cluster[kk])
    except DivisionError as exc:
        raise ClusterError(
            f"Laurent phenomenon violated at direction {kk + 1}: {exc}"
        ) from None


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation at direction k (1-based): exchange relation plus matrix mutation."""
    n = seed.matrix.n
    if not 1 <= k <= n:
        raise ClusterError(f"mutation index {k} out of range 1..{n}")
    kk = k - 1
    new_var = _exchange(seed, kk)
    cluster = seed.cluster[:kk] + (new_var,) + seed.cluster[kk + 1 :]
    return Seed(mutate(seed.matrix, k), cluster)


def enumerate_seeds(matrix: ExchangeMatrix, cap: int = 100_000) -> tuple[Seed, ...]:
    """All seeds reachable from the initial seed, deduplicated by cluster.

    Breadth-first closure under the n mutation directions, after the
    pre-check :func:`quivers.check_seed_budget`.  This is the Laurent
    search: the ``seeds`` command and the seed-count check use it, and
    :func:`quivers.count_seeds` counts the same seeds by c-vectors alone.

    Cluster variables are hash-consed into a pool that lives as long as
    the search, so a pooled variable's ``id`` stands for the variable.  A
    cluster is keyed by the frozenset of its ids, and an exchange result
    is memoized on ``(id of x_k, frozenset of (id of x_i, b_ik) with
    b_ik != 0)``, a local configuration that the larger frontiers (E7,
    E8) revisit constantly.  The matrix of a neighbour is mutated only
    when its cluster is new.  Each seed is queued with the direction that
    reached it, and that direction is skipped when the seed is popped:
    mutation is an involution, so the exchange would only return the
    parent.
    """
    check_seed_budget(matrix, cap)
    start = initial_seed(matrix)
    pool: dict = {var: var for var in start.cluster}
    exchange_memo: dict = {}
    seen: dict[frozenset, Seed] = {frozenset(map(id, start.cluster)): start}
    queue: deque[tuple[Seed, int]] = deque([(start, -1)])
    while queue:
        seed, parent = queue.popleft()
        ids = tuple(map(id, seed.cluster))
        for kk, column in enumerate(zip(*seed.matrix.entries)):
            if kk == parent:
                continue  # mutation at kk is an involution
            memo_key = (ids[kk], frozenset(itertools.compress(zip(ids, column), column)))
            new_var = exchange_memo.get(memo_key)
            if new_var is None:
                new_var = _exchange(seed, kk)
                new_var = exchange_memo[memo_key] = pool.setdefault(new_var, new_var)
            key = frozenset(ids[:kk] + (id(new_var),) + ids[kk + 1 :])
            if key not in seen:
                if len(seen) >= cap:
                    raise BudgetExceededError(f"more than {cap} seeds reached", cap)
                cluster = seed.cluster[:kk] + (new_var,) + seed.cluster[kk + 1 :]
                seen[key] = neighbor = Seed(mutate(seed.matrix, kk + 1), cluster)
                queue.append((neighbor, kk))
    return tuple(seen.values())
