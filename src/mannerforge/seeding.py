"""Deterministic RNG derivation, and the draws the forge makes from a stream.

Independent streams are derived by hashing a seed together with a path of
labels (example index, sampling slot, split name), so generation order and
worker layout never influence the values a consumer sees.

Every digest rests on the draws below.  Each takes a stream's bound
`getrandbits` (or `random`, for the float draw) and copies the algorithm of
CPython 3.11's `random.py` method of the same purpose bit for bit, so it
returns what that method would.  Of `random`, the digests then rest only on
MT19937 itself: its seeding from an int, `getrandbits` and `random()`, all C
code.  `pick` and `sample`, which the situation sampler calls for every
example, write out `_randbelow`'s loop, so that each of their draws is one
Python call.
"""
from __future__ import annotations

import hashlib
import random
from bisect import bisect
from itertools import accumulate
from math import ceil, isfinite, log


def derive_seed(*parts) -> int:
    key = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def derive_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def below(getrandbits, n: int) -> int:
    """A uniform int in [0, n): `Random._randbelow_with_getrandbits`.  n must be
    positive: CPython 3.10 returns 0 for n == 0, and 3.11 loops forever."""
    if n <= 0:
        raise ValueError(f"below needs n > 0, not {n}")
    k = n.bit_length()  # not (n - 1): n may be 1
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def pick(getrandbits, seq):
    """A uniform element of a non-empty sequence: `Random.choice`."""
    n = len(seq)
    if not n:
        raise IndexError("cannot pick from an empty sequence")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return seq[r]


def randint(getrandbits, a: int, b: int) -> int:
    """A uniform int in [a, b], both ends included: `Random.randint`."""
    return a + below(getrandbits, b - a + 1)


def shuffle(getrandbits, x: list) -> None:
    """Shuffle list x in place: `Random.shuffle`, Fisher-Yates from the end."""
    for i in reversed(range(1, len(x))):
        j = below(getrandbits, i + 1)
        x[i], x[j] = x[j], x[i]


def sample(getrandbits, population, k: int) -> list:
    """The items at k distinct positions of a sequence, in draw order:
    `Random.sample` without `counts`.  A population no larger than `setsize` is
    drawn from a shrinking pool, a larger one by redrawing positions taken."""
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError(f"sample of {k} from a population of {n}")
    setsize = 21  # a small set's size minus an empty list's
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))  # a big set's table
    if n <= setsize:
        pool = list(population)  # pool[:i] holds the items not drawn yet
        result = []
        for i in range(n, n - k, -1):
            bits = i.bit_length()
            j = getrandbits(bits)
            while j >= i:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[i - 1]
        return result
    bits = n.bit_length()
    taken = set()
    result = []
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in taken:
            j = getrandbits(bits)
        taken.add(j)
        result.append(population[j])
    return result


def weighted_pick(random, population, weights):
    """One element, drawn with the given relative weights: `Random.choices`
    with `weights` and k=1, over the stream's bound `random`."""
    cum_weights = list(accumulate(weights))
    if len(cum_weights) != len(population):
        raise ValueError("the number of weights does not match the population")
    total = cum_weights[-1] + 0.0  # a float, as choices makes it
    if total <= 0.0 or not isfinite(total):
        raise ValueError(f"weights must total a positive finite number, not {total}")
    return population[bisect(cum_weights, random() * total, 0, len(population) - 1)]
