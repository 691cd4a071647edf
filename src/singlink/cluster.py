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
builds on.  Both seed searches evaluate each edge of the exchange graph
once, from whichever end is popped first: an edge that lands on a queued
seed is recorded there and skipped when that seed is popped.
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
    return RingDescriptor(tuple(f"u{i}" for i in range(1, n + 1)))


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
    when its cluster is new.

    Each exchange-graph edge is evaluated once.  An edge from s at k that
    lands on a queued seed t records on t the pooled id of the variable it
    brought in, and t skips the direction of each recorded variable when
    it is popped: exchanging that variable returns the cluster of s, and
    in finite type the cluster determines the seed, so the edge could only
    find s again.  A seed's first record is the edge that found it, and
    its records are dropped when it is popped.  An edge never lands on a
    popped seed, whose own evaluation of that edge found or recorded s.
    """
    check_seed_budget(matrix, cap)
    start = initial_seed(matrix)
    pool: dict = {var: var for var in start.cluster}
    exchange_memo: dict = {}
    key = frozenset(map(id, start.cluster))
    seen: dict[frozenset, Seed] = {key: start}
    skips: dict[frozenset, set[int]] = {key: set()}  # queued seeds only
    queue: deque[frozenset] = deque([key])
    while queue:
        key = queue.popleft()
        seed, skip = seen[key], skips.pop(key)
        ids = tuple(map(id, seed.cluster))
        for kk, column in enumerate(zip(*seed.matrix.entries)):
            if ids[kk] in skip:
                continue  # this edge was evaluated from its other end
            memo_key = (ids[kk], frozenset(itertools.compress(zip(ids, column), column)))
            new_var = exchange_memo.get(memo_key)
            if new_var is None:
                new_var = _exchange(seed, kk)
                new_var = exchange_memo[memo_key] = pool.setdefault(new_var, new_var)
            new_key = frozenset(ids[:kk] + (id(new_var),) + ids[kk + 1 :])
            if new_key in seen:
                skips[new_key].add(id(new_var))
                continue
            if len(seen) >= cap:
                raise BudgetExceededError(f"more than {cap} seeds reached", cap)
            cluster = seed.cluster[:kk] + (new_var,) + seed.cluster[kk + 1 :]
            seen[new_key] = Seed(mutate(seed.matrix, kk + 1), cluster)
            skips[new_key] = {id(new_var)}
            queue.append(new_key)
    return tuple(seen.values())
