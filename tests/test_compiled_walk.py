"""Differential tests for the compiled factorization walk.

``repro.core.matchings._random_perfect_matching`` is the oracle. Its
compiled twin (``random_perfect_matching`` in ``_ckernel.c``) must return
the same matching, or ``None``, for the same ``remaining``, and leave a
generator seeded alike in the same state (``getstate()`` equal). Then
``random_factorization``, and so every Opera and RotorNet schedule, is the
same whichever walk runs. Only the compiled half skips, and only where
the extension does not load.
"""

import random

import pytest

from repro.core import matchings
from repro.core.matchings import (
    _random_perfect_matching,
    random_factorization,
    relabel_matching,
    round_robin_factorization,
)
from repro.core.schedule import OperaSchedule
from repro.experiments import fig07_datamining as fig07
from repro.experiments.fctsim import resolve_scale
from repro.net.kernel import compiled_walk
from repro.topologies.rotornet import RotorNetSchedule

WALK = compiled_walk()

requires_walk = pytest.mark.skipif(
    WALK is None, reason="compiled kernel (_ckernel) not built in this environment"
)

#: ``(n, seeds)``: rack counts the differential covers, and how many seeds.
CASES = [(n, 50) for n in (4, 6, 8, 10, 12, 16, 20, 24, 32)] + [(108, 3)]

def remaining_states(n, seed):
    """``(remaining, walk_limit)`` inputs for one ``(n, seed)``.

    Drawn from their own generator, independent of the walk under test:
    ``K_n`` part-way through a factorization (regular, usually matchable),
    a sparse random graph (irregular degrees, often unmatchable), a short
    walk budget on the same graph, and two inputs that must fail: two odd
    cycles (no perfect matching exists) and an isolated vertex.
    """
    gen = random.Random(seed * 1000 + n)
    sigma = list(range(n))
    gen.shuffle(sigma)
    factors = [relabel_matching(p, sigma) for p in round_robin_factorization(n)[:-1]]
    gen.shuffle(factors)
    partial = [set(range(n)) - {v} for v in range(n)]
    for p in factors[: gen.randrange(n - 1)]:
        for v in range(n):
            partial[v].discard(p[v])
    yield partial, 2000

    sparse = [set() for _ in range(n)]
    p_edge = gen.choice((0.2, 0.35, 0.6))
    for a in range(n):
        for b in range(a + 1, n):
            if gen.random() < p_edge:
                sparse[a].add(b)
                sparse[b].add(a)
    yield sparse, 2000
    yield sparse, gen.randrange(0, 4)

    if n >= 6:
        odd = [set() for _ in range(n)]
        cycles = (list(range(3)), list(range(3, n)))  # lengths 3 and n - 3
        for cyc in cycles:
            for i, a in enumerate(cyc):
                b = cyc[(i + 1) % len(cyc)]
                odd[a].add(b)
                odd[b].add(a)
        yield odd, 50

    isolated = [set(s) for s in partial]
    lone = gen.randrange(n)
    for v in isolated[lone]:
        isolated[v].discard(lone)
    isolated[lone].clear()
    yield isolated, 2000


def both_walks(remaining, seed, walk_limit, coarse=False):
    """Run both walks on copies of ``remaining`` with generators seeded alike.

    ``coarse`` swaps each generator's ``random`` for one that returns only
    0.0 or 0.5 (drawn from its own ``getrandbits``), so sort keys tie and
    the walks must agree on the stable order of tied vertices.
    """
    out = []
    for walk in (_random_perfect_matching, WALK):
        rng = random.Random(seed)
        if coarse:
            rng.random = lambda rng=rng: rng.getrandbits(1) / 2
        given = [set(s) for s in remaining]
        result = walk(given, rng, walk_limit)
        assert given == remaining  # neither walk edits its input
        out.append((result, rng.getstate()))
    return out


@requires_walk
class TestWalkDifferential:
    @pytest.mark.parametrize("coarse", [False, True], ids=["keys", "tied-keys"])
    @pytest.mark.parametrize("n,seeds", CASES)
    def test_same_matching_and_generator_state(self, n, seeds, coarse):
        outcomes = set()
        for seed in range(seeds):
            for remaining, limit in remaining_states(n, seed):
                (py, py_state), (c, c_state) = both_walks(
                    remaining, seed, limit, coarse
                )
                assert c == py, (n, seed, limit)
                assert c_state == py_state, (n, seed, limit)
                outcomes.add(py is None)
        assert outcomes == {True, False}  # both successes and failures

    def test_default_walk_limit_matches(self):
        remaining, _ = next(remaining_states(12, 0))
        a, b = random.Random(5), random.Random(5)
        assert WALK(remaining, a) == _random_perfect_matching(remaining, b)
        assert a.getstate() == b.getstate()

    def test_empty_graph(self):
        a, b = random.Random(1), random.Random(1)
        assert WALK([], a) == _random_perfect_matching([], b) == []
        assert a.getstate() == b.getstate()


@requires_walk
class TestWalkInputChecks:
    @pytest.mark.parametrize(
        "remaining, error",
        [
            (({1}, {0}), TypeError),  # a tuple, not a list
            ([[1], [0]], TypeError),  # lists, not sets
            ([{1}, {0, "x"}], TypeError),
            ([{1}, {0, 1.0}], TypeError),
            ([{1}, {0, 2}], ValueError),  # out of range
            ([{1}, {0, -1}], ValueError),
            ([{1}, {0, 1 << 70}], (ValueError, OverflowError)),
        ],
    )
    def test_malformed_remaining_raises(self, remaining, error):
        with pytest.raises(error):
            WALK(remaining, random.Random(0))

    def test_generator_out_of_contract_raises(self):
        rng = random.Random(0)
        rng.random = lambda: 1.5
        with pytest.raises(ValueError, match="random"):
            WALK([{1}, {0}], rng)
        rng = random.Random(0)
        rng.getrandbits = lambda k: 1 << k
        with pytest.raises(ValueError, match="getrandbits"):
            WALK([{1}, {0}], rng)


class TestDispatch:
    def test_subclass_takes_the_python_walk(self):
        class Sub(random.Random):
            pass

        assert matchings._matching_walk(Sub(0)) is _random_perfect_matching

    @requires_walk
    def test_exact_random_takes_the_compiled_walk(self):
        assert matchings._matching_walk(random.Random(0)) is WALK

    def test_forced_python_walk_without_the_extension(self, monkeypatch):
        import repro.net.kernel as kernel_mod

        monkeypatch.setattr(kernel_mod, "compiled_walk", lambda: None)
        assert matchings._matching_walk(random.Random(0)) is _random_perfect_matching


def fig07_topology_cells():
    """``(network, k, n_racks, cell seed)`` of every fig07 cell that draws a
    factorization, on the ci and default grids at scenario seed 0."""
    out = []
    for scale in ("ci", "default"):
        k, n_racks, _ = resolve_scale(scale)
        for cell in fig07.shards(seed=0, scale=scale):
            network = cell.params["network"]
            if network in ("opera", "rotornet", "rotornet-hybrid"):
                out.append((network, k, n_racks, cell.params["seed"]))
    return out


def forced(monkeypatch, walk, build):
    monkeypatch.setattr(matchings, "_matching_walk", lambda rng: walk)
    return build()


@requires_walk
class TestTopologiesIdentical:
    @pytest.mark.parametrize("n,seed", [(n, s) for n in (6, 16, 24) for s in range(4)])
    def test_random_factorization(self, monkeypatch, n, seed):
        def draw():
            rng = random.Random(seed)
            return random_factorization(n, rng), rng.getstate()

        py = forced(monkeypatch, _random_perfect_matching, draw)
        assert forced(monkeypatch, WALK, draw) == py

    def test_fig07_schedules(self, monkeypatch):
        cells = fig07_topology_cells()
        assert len(cells) == 18  # 3 factorized networks x 3 loads x 2 scales

        def schedules():
            out = []
            for network, k, n_racks, seed in cells:
                cls = OperaSchedule if network == "opera" else RotorNetSchedule
                schedule = cls(n_racks, k // 2, seed=seed)
                out.append((schedule.matchings, schedule._switch_matchings))
            return out

        py = forced(monkeypatch, _random_perfect_matching, schedules)
        assert forced(monkeypatch, WALK, schedules) == py
