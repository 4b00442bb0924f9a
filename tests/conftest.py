import itertools
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import acdkit
from acdkit import (BuchiCondition, CoBuchiCondition, MullerCondition,
                    ParityCondition, RabinCondition, StreettCondition,
                    TransitionSystem, build_acd)
from acdkit.core import _over
from families import (  # noqa: F401  (re-exported)
    alternating_path_game, cycle_game, even_muller, lifted_cycle_game,
    nested_pairs, parity_chain, path_game)

FIXTURES = Path(__file__).parent / "fixtures"

# The wall-clock limit of every test here: the largest bound a test
# asserts (criteria 07 and 09), far above the slowest test (about 4 s).
TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """A test ran past TIME_LIMIT_S.  Not a TimeoutError: that is an
    OSError, which the CLI's readers and writers turn into exit 2."""


def _expire(signum, frame):
    raise TimeLimitExceeded("the test ran past its %d s limit" % TIME_LIMIT_S)


@pytest.fixture(autouse=True)
def time_limit():
    """Each test runs under TIME_LIMIT_S of wall time, on a platform with
    an interval timer.  An interrupted `subprocess.run` kills its child."""
    if not hasattr(signal, "setitimer"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# a child interpreter has the package and these tests on its path
CHILD_PATH = os.pathsep.join(
    [os.path.dirname(os.path.dirname(acdkit.__file__)),
     os.path.dirname(os.path.abspath(__file__))])


def child(*argv, hash_seed=None, text=True):
    """`python *argv` run to its end in a fresh interpreter, its output
    captured; the completed process.  The child gets the environment as
    it is at the call, a test's own settings included, with CHILD_PATH
    as its PYTHONPATH and `hash_seed`, if given, as its PYTHONHASHSEED."""
    env = dict(os.environ, PYTHONPATH=CHILD_PATH)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=text, env=env)


def under_hash_seeds(code, seeds=("0", "1")):
    """The stdout of `code` run by a child under each PYTHONHASHSEED of
    `seeds`, in order."""
    out = []
    for seed in seeds:
        proc = child("-c", code, hash_seed=seed)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    return out


def count_readings(monkeypatch):
    """A list that gains one entry per call of `core._reading`, wrapped in
    every acdkit module that binds it."""
    calls = []
    real = acdkit.core._reading

    def counted(ts, cond):
        calls.append(cond)
        return real(ts, cond)

    for name, module in list(sys.modules.items()):
        if name.startswith("acdkit") and \
                getattr(module, "_reading", None) is real:
            monkeypatch.setattr(module, "_reading", counted)
    return calls

SIXSTATE_EDGES = [
    ("a", "q0", "q1"), ("b", "q0", "q3"), ("c", "q1", "q2"),
    ("d", "q2", "q1"), ("e", "q2", "q2"), ("f", "q1", "q4"),
    ("g", "q3", "q3"), ("h", "q3", "q4"), ("i", "q4", "q3"),
    ("j", "q4", "q5"), ("k", "q5", "q4"), ("l", "q5", "q5"),
]

SIXSTATE_FAMILY = [
    {"c", "d", "e"}, {"e"}, {"g", "h", "i"},
    {"l"}, {"h", "i", "j", "k"}, {"j", "k"},
]


@pytest.fixture
def sixstate():
    ts = TransitionSystem(
        ["q0", "q1", "q2", "q3", "q4", "q5"], SIXSTATE_EDGES, ["q0"])
    return ts, MullerCondition(SIXSTATE_FAMILY)


@pytest.fixture
def automaton_a():
    ts = TransitionSystem(
        ["A", "B"],
        [("a", "A", "A"), ("b1", "A", "B"), ("b2", "B", "A"), ("c", "B", "B")],
        ["A"],
        letters={"a": "0", "b1": "1", "b2": "1", "c": "0"},
        colours={"b1": "b", "b2": "b"})
    return ts, MullerCondition([{"a"}, {"b"}])


def random_system(rng, max_vertices=6, max_edges=10, with_owners=False,
                  min_edges=0):
    n = rng.randint(1, max_vertices)
    vs = ["v%d" % i for i in range(n)]
    edges = []
    for i, v in enumerate(vs):
        edges.append(("e%d" % i, v, rng.choice(vs)))
    extra = rng.randint(max(0, min_edges - n), max(0, max_edges - n))
    for i in range(extra):
        edges.append(("x%d" % i, rng.choice(vs), rng.choice(vs)))
    owners = {v: rng.choice(["Eve", "Adam"]) for v in vs} if with_owners else None
    return TransitionSystem(vs, edges, [vs[0]], owners=owners)


def random_family(rng, colours, density=0.4):
    colours = sorted(colours)
    family = []
    for r in range(1, len(colours) + 1):
        for sub in itertools.combinations(colours, r):
            if rng.random() < density:
                family.append(set(sub))
    return family


def random_muller_system(rng, max_vertices=6, max_edges=10,
                         with_owners=False):
    ts = random_system(rng, max_vertices, max_edges, with_owners)
    family = random_family(rng, [e.id for e in ts.edges], density=0.3)
    return ts, MullerCondition(family)


def random_sparse_muller_system(rng, max_vertices=6, max_edges=10,
                                max_sets=6, with_owners=False):
    """Like random_muller_system, but the family is a handful of random
    edge subsets instead of a density sample over the whole powerset."""
    ts = random_system(rng, max_vertices, max_edges, with_owners)
    eids = [e.id for e in ts.edges]
    family = []
    for _ in range(rng.randint(1, max_sets)):
        size = rng.randint(1, len(eids))
        family.append(set(rng.sample(eids, size)))
    return ts, MullerCondition(family)


CONDITION_KINDS = ("muller", "parity", "buchi", "cobuchi", "rabin",
                   "streett")


def random_condition(rng, kind, colours):
    """A random condition of the given kind over the given colours.  A
    Muller family samples the whole powerset of up to five colours, and
    holds a handful of random sets over more."""
    colours = sorted(colours)

    def subset():
        return {c for c in colours if rng.random() < 0.4}
    if kind == "muller":
        if len(colours) <= 5:
            return MullerCondition(random_family(rng, colours))
        return MullerCondition(
            rng.sample(colours, rng.randint(1, len(colours)))
            for _ in range(rng.randint(1, 6)))
    if kind == "parity":
        return ParityCondition({c: rng.randint(0, 4) for c in colours})
    if kind == "buchi":
        return BuchiCondition(subset())
    if kind == "cobuchi":
        return CoBuchiCondition(subset())
    pairs = [(subset(), subset()) for _ in range(rng.randint(1, 3))]
    return (RabinCondition if kind == "rabin" else StreettCondition)(pairs)


def recoloured(rng, ts, palette):
    """`ts` with each edge coloured from the palette at random, its owners
    kept."""
    return TransitionSystem(
        ts.vertices, ts.edges, ts.initial, owners=ts.owners,
        colours={e.id: rng.choice(palette) for e in ts.edges})


def sampled_cases(rng, count, palette, readings=("ids", "colours"),
                  kinds=CONDITION_KINDS, **sizes):
    """`count` random (system, condition) cases, the one source of the
    sampled tests: case i has the kind `kinds[i % len(kinds)]` and, apart
    from it, the reading `readings[i // len(kinds) % len(readings)]` (one
    listed twice is drawn twice as often), on `random_system(rng,
    **sizes)`.  "ids" reads the edge ids, "colours" a recolouring from
    `palette` (a sequence, or a function of the rng and the system giving
    one), and "edges" that recolouring's edge ids, over edges."""
    for i in range(count):
        ts = random_system(rng, **sizes)
        reading = readings[i // len(kinds) % len(readings)]
        if reading != "ids":
            ts = recoloured(rng, ts, palette(rng, ts) if callable(palette)
                            else palette)
        keys = [e.id for e in ts.edges] if reading == "edges" \
            else ts.colour_set()
        cond = random_condition(rng, kinds[i % len(kinds)], keys)
        yield ts, _over(cond, "edges") if reading == "edges" else cond


def cell(ts, cond):
    """A case's (kind, reading) cell, read off the case itself."""
    if cond.over == "edges":
        return cond.kind, "edges"
    return cond.kind, "colours" if ts._colours else "ids"


def grid(readings=("ids", "colours"), kinds=CONDITION_KINDS):
    """The cells that `sampled_cases` meets with these readings."""
    return set(itertools.product(kinds, readings))


def random_acds(rng, count):
    """Decompositions of `count` random systems of 5 vertices and 9 edges
    at most from the case grid, a third of each kind recoloured from four
    colours.  Read to its end, it asserts that every cell was met."""
    drawn = set()
    for ts, cond in sampled_cases(rng, count, "abcd",
                                  ("colours", "ids", "ids"),
                                  max_vertices=5, max_edges=9):
        drawn.add(cell(ts, cond))
        yield ts, build_acd(ts, cond)
    assert drawn == grid()
