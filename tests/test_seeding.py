"""seeding's draws against random.Random's, on the interpreter that runs the tests.

Each draw must return what random.Random returns from the same state and leave the
same state behind.  A few draws are also pinned as literals, so the draws stay
checked if a future random.py changes its own."""
import random

import pytest

from mannerforge import seeding

SEEDS = range(40)


def streams(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_below_and_randint_agree_with_random(seed):
    ours, theirs = streams(seed)
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 36, 100, 1000, 2**40 + 3):
        assert seeding.below(ours.getrandbits, n) == theirs.randrange(n)
    for a, b in ((1, 1), (1, 2), (2, 3), (1, 4), (-5, 5), (0, 99)):
        assert seeding.randint(ours.getrandbits, a, b) == theirs.randint(a, b)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_pick_agrees_with_choice(seed):
    ours, theirs = streams(seed)
    for seq in ("bdfgklmnprstvz", "aeiou", ("walk", "push", "pull"), range(0, 4), range(3, 40, 3), [7]):
        for _ in range(5):
            assert seeding.pick(ours.getrandbits, seq) == theirs.choice(seq)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffle_agrees_with_random(seed):
    ours, theirs = streams(seed)
    for n in (0, 1, 2, 5, 16, 37, 200):
        a, b = list(range(n)), list(range(n))
        seeding.shuffle(ours.getrandbits, a)
        theirs.shuffle(b)
        assert a == b
    assert ours.getstate() == theirs.getstate()


# (population size, k): with k <= 5, populations of at most 21 take the pool branch and
# larger ones the set branch; k = 6 moves the bound to 85, and k = 22 to 277.
SAMPLE_SIZES = [(n, k) for n in (0, 1, 2, 4, 16, 21, 22, 36, 100) for k in range(min(n, 5) + 1)]
SAMPLE_SIZES += [(84, 6), (85, 6), (86, 6), (90, 20), (277, 22), (278, 22), (400, 60), (60, 60)]


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_agrees_with_random_on_both_branches(seed):
    ours, theirs = streams(seed)
    for n, k in SAMPLE_SIZES:
        population = [f"cell{i}" for i in range(n)]
        assert seeding.sample(ours.getrandbits, population, k) == theirs.sample(population, k)
        assert seeding.sample(ours.getrandbits, range(n), k) == theirs.sample(range(n), k)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_weighted_pick_agrees_with_choices(seed):
    ours, theirs = streams(seed)
    population = [2, 4, 6, 8]
    for weights in ([2, 6, 20, 70], [1, 1, 1, 1], [0.4, 0.3, 0.0, 0.3], [0, 0, 0, 5]):
        for _ in range(5):
            assert (seeding.weighted_pick(ours.random, population, weights)
                    == theirs.choices(population, weights=weights)[0])
    assert ours.getstate() == theirs.getstate()


def test_literal_draws():
    def bits():
        return random.Random(2024).getrandbits

    assert seeding.below(bits(), 1000) == 481
    assert seeding.pick(bits(), "bdfgklmnprstvz") == "n"
    assert seeding.randint(bits(), 2, 3) == 3
    assert seeding.randint(bits(), -5, 5) == 2
    shuffled = list(range(10))
    seeding.shuffle(bits(), shuffled)
    assert shuffled == [6, 0, 9, 8, 3, 5, 1, 4, 2, 7]
    assert seeding.sample(bits(), range(36), 2) == [30, 11]  # the set branch
    assert seeding.sample(bits(), range(16), 3) == [15, 2, 11]  # the pool branch
    assert seeding.weighted_pick(random.Random(2024).random, [2, 4, 6, 8], [2, 6, 20, 70]) == 8


@pytest.mark.parametrize("n", [0, -1, -8])
def test_below_refuses_an_empty_range(n):
    # CPython 3.10's _randbelow returns 0 for n == 0, and 3.11's never returns.
    with pytest.raises(ValueError, match="below needs n > 0"):
        seeding.below(random.Random(1).getrandbits, n)


def test_refusals_match_random():
    bits = random.Random(1).getrandbits
    with pytest.raises(IndexError):
        seeding.pick(bits, ())
    with pytest.raises(ValueError):
        seeding.randint(bits, 3, 2)
    with pytest.raises(ValueError):
        seeding.sample(bits, range(3), 4)
    with pytest.raises(ValueError):
        seeding.sample(bits, range(3), -1)
    with pytest.raises(ValueError):
        seeding.weighted_pick(random.Random(1).random, [1, 2], [0, 0])
