"""Disjoint matching factorizations of the complete graph.

Opera's topology generation (paper section 3.3) starts by factoring the
complete graph on ``n`` racks — represented as the ``n x n`` all-ones matrix,
i.e. including self-loops — into ``n`` disjoint, symmetric matchings. Each
matching is a permutation ``p`` of the racks that is an involution
(``p[p[i]] == i``): rack ``i`` is circuit-connected to rack ``p[i]``, and the
connection is bidirectional. The union of all ``n`` matchings covers every
ordered rack pair (including ``(i, i)``) exactly once.

For even ``n`` the classic round-robin (circle method) tournament schedule
yields ``n - 1`` perfect matchings that partition the edges of ``K_n``; the
identity permutation (every rack "paired" with itself) accounts for the
diagonal of the all-ones matrix and brings the count to ``n``.

The factorization is randomized by conjugating every matching with a common
random relabeling of the racks, which preserves both the involution property
and the exact-cover property.

:func:`random_factorization` (Opera's and RotorNet's topology draw) spends
nearly all its time in the random-walk repair of
:func:`_random_perfect_matching`. That walk has an exact compiled twin,
``random_perfect_matching`` in ``repro/net/kernel/_ckernel.c``: for the same
``remaining`` and a generator in the same state it returns the same matching
and leaves the generator in the same state, so topologies do not depend on
which walk ran. ``random_factorization`` runs the compiled walk when the
extension is built, matches its source (``repro.net.kernel.compiled_walk``)
and the generator is exactly :class:`random.Random`; a subclass, a missing
or stale extension, or a platform without a compiler runs the Python walk,
which stays the oracle. ``REPRO_KERNEL`` selects engine classes, not the
walk.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Matching",
    "round_robin_factorization",
    "random_factorization",
    "identity_matching",
    "is_involution",
    "matching_edges",
    "relabel_matching",
    "verify_factorization",
    "FactorizationError",
]

#: A matching over ``n`` racks, stored as a permutation tuple: rack ``i`` is
#: connected to rack ``Matching[i]``. Always an involution.
Matching = tuple[int, ...]


class FactorizationError(ValueError):
    """Raised when a set of matchings is not a valid factorization."""


def identity_matching(n: int) -> Matching:
    """The self-loop matching (the diagonal of the all-ones matrix)."""
    return tuple(range(n))


def is_involution(perm: Sequence[int]) -> bool:
    """True if ``perm`` is a permutation equal to its own inverse."""
    n = len(perm)
    seen = [False] * n
    for i, j in enumerate(perm):
        if not 0 <= j < n or seen[j]:
            return False
        seen[j] = True
    return all(perm[perm[i]] == i for i in range(n))


def matching_edges(matching: Sequence[int], include_loops: bool = False) -> Iterator[tuple[int, int]]:
    """Yield each unordered pair ``(i, j)`` with ``i <= j`` once.

    Self-loops (``i == matching[i]``) are skipped unless ``include_loops``.
    """
    for i, j in enumerate(matching):
        if i < j or (include_loops and i == j):
            yield (i, j)


def round_robin_factorization(n: int) -> list[Matching]:
    """Factor ``K_n`` + self-loops into ``n`` disjoint symmetric matchings.

    Uses the circle method: vertex ``n - 1`` stays fixed while vertices
    ``0 .. n-2`` rotate. Round ``r`` pairs vertex ``n - 1`` with ``r`` and
    pairs ``(r + i) mod (n - 1)`` with ``(r - i) mod (n - 1)`` for
    ``i = 1 .. n/2 - 1``. The identity matching is appended as the ``n``-th
    factor.

    Parameters
    ----------
    n:
        Number of racks; must be a positive even integer (every Opera
        deployment in the paper uses an even rack count).

    Returns
    -------
    list of ``n`` involutions whose edges exactly cover ``K_n`` plus loops.
    """
    if n <= 0 or n % 2:
        raise ValueError(f"rack count must be positive and even, got {n}")
    if n == 2:
        return [(1, 0), (0, 1)]
    m = n - 1
    factors: list[Matching] = []
    for r in range(m):
        perm = [0] * n
        perm[n - 1] = r
        perm[r] = n - 1
        for i in range(1, n // 2):
            a = (r + i) % m
            b = (r - i) % m
            perm[a] = b
            perm[b] = a
        factors.append(tuple(perm))
    factors.append(identity_matching(n))
    return factors


def relabel_matching(matching: Sequence[int], sigma: Sequence[int]) -> Matching:
    """Conjugate ``matching`` by the permutation ``sigma``.

    The result connects ``sigma[i]`` to ``sigma[matching[i]]``; conjugation
    preserves the involution property.
    """
    n = len(matching)
    out = [0] * n
    for i in range(n):
        out[sigma[i]] = sigma[matching[i]]
    return tuple(out)


def _random_perfect_matching(
    remaining: list[set[int]], rng: random.Random, walk_limit: int = 2000
) -> list[int] | None:
    """A random perfect matching of the graph given by ``remaining``.

    Randomized greedy with random-walk repair: vertices are matched in order
    of remaining degree; when a vertex has no free neighbour it steals a
    matched one, and the displaced vertex continues the walk until it finds a
    free neighbour (or the step budget runs out). Returns ``None`` on
    failure — the caller retries or backtracks.
    """
    n = len(remaining)
    partner = [-1] * n
    order = sorted(range(n), key=lambda v: (len(remaining[v]), rng.random()))
    for v in order:
        if partner[v] >= 0:
            continue
        free = [w for w in remaining[v] if partner[w] < 0]
        if free:
            w = rng.choice(free)
            partner[v] = w
            partner[w] = v
            continue
        cur = v
        for _ in range(walk_limit):
            neighbours = remaining[cur]
            if not neighbours:
                return None
            w = rng.choice(tuple(neighbours))
            displaced = partner[w]
            partner[cur] = w
            partner[w] = cur
            if displaced < 0 or displaced == cur:
                break
            partner[displaced] = -1
            free = [y for y in remaining[displaced] if partner[y] < 0]
            if free:
                y = rng.choice(free)
                partner[displaced] = y
                partner[y] = displaced
                break
            cur = displaced
        else:
            return None
    if all(partner[v] >= 0 and partner[v] != v for v in range(n)) and all(
        partner[partner[v]] == v for v in range(n)
    ):
        return partner
    return None


def _matching_walk(rng: random.Random):
    """The perfect-matching walk :func:`random_factorization` runs with ``rng``.

    The compiled walk replays the generator's own ``random`` and
    ``getrandbits`` exactly as :class:`random.Random` consumes them, so it
    is used only for that exact class.
    """
    if type(rng) is random.Random:
        from ..net.kernel import compiled_walk

        walk = compiled_walk()
        if walk is not None:
            return walk
    return _random_perfect_matching


def random_factorization(
    n: int,
    rng: random.Random | None = None,
    color_attempts: int = 30,
    backtrack: int = 6,
    max_backtrack_events: int = 500,
) -> list[Matching]:
    """A randomized factorization of ``K_n`` + loops into ``n`` matchings.

    This is the paper's "randomly factor a complete graph into N disjoint
    (and symmetric) matchings": perfect matchings are drawn one at a time
    from the remaining edges of ``K_n`` by randomized greedy sampling with
    random-walk repair; if the endgame wedges (e.g. the leftover 2-regular
    graph has an odd cycle), the last few factors are resampled. The
    identity matching covers the diagonal of the all-ones matrix. The result
    behaves like a union of independent random matchings — in particular the
    per-slice unions Opera builds from it are good expanders, which the
    structured round-robin factorization is not (any two of its factors form
    a single Hamiltonian cycle). Deterministic given ``rng``.

    Raises :class:`FactorizationError` if generation fails repeatedly (which
    for even ``n >= 4`` practically never happens with the default budget).
    """
    if n <= 0 or n % 2:
        raise ValueError(f"rack count must be positive and even, got {n}")
    rng = rng or random.Random()
    if n == 2:
        return [(1, 0), (0, 1)]
    walk = _matching_walk(rng)

    remaining: list[set[int]] = [set(range(n)) - {v} for v in range(n)]
    factors: list[list[int]] = []
    backtrack_events = 0
    while len(factors) < n - 1:
        matching = None
        for _ in range(color_attempts):
            matching = walk(remaining, rng)
            if matching is not None:
                break
        if matching is not None:
            factors.append(matching)
            for v in range(n):
                remaining[v].discard(matching[v])
            continue
        backtrack_events += 1
        if backtrack_events > max_backtrack_events:
            raise FactorizationError(
                f"failed to factor K_{n} within the retry budget"
            )
        for _ in range(min(backtrack, len(factors))):
            undone = factors.pop()
            for v in range(n):
                remaining[v].add(undone[v])

    result: list[Matching] = [tuple(p) for p in factors]
    result.append(identity_matching(n))
    rng.shuffle(result)
    return result


def verify_factorization(factors: Iterable[Sequence[int]], n: int) -> None:
    """Validate that ``factors`` is a disjoint factorization of K_n + loops.

    Raises :class:`FactorizationError` if any matching is not an involution,
    the count differs from ``n``, or some ordered pair is covered zero or
    multiple times.
    """
    factors = list(factors)
    if len(factors) != n:
        raise FactorizationError(f"expected {n} matchings, got {len(factors)}")
    seen: set[tuple[int, int]] = set()
    for idx, perm in enumerate(factors):
        if len(perm) != n:
            raise FactorizationError(f"matching {idx} has size {len(perm)} != {n}")
        if not is_involution(perm):
            raise FactorizationError(f"matching {idx} is not an involution")
        for i in range(n):
            pair = (i, perm[i])
            if pair in seen:
                raise FactorizationError(f"pair {pair} covered more than once")
            seen.add(pair)
    if len(seen) != n * n:
        raise FactorizationError(
            f"covered {len(seen)} ordered pairs, expected {n * n}"
        )
