import random

import pytest

from mannerforge.dsl import ground
from mannerforge.symbols import (
    ALL_SYMBOLS,
    STEP,
    displacement,
    net_rotation,
    parse_symbols,
    turns_between,
)


@pytest.mark.parametrize(
    "start,goal,expected",
    [
        ("east", "east", ()),
        ("east", "north", ("turn_left",)),
        ("east", "south", ("turn_right",)),
        ("north", "south", ("turn_left", "turn_left")),
        ("west", "east", ("turn_left", "turn_left")),
    ],
)
def test_turns_between(start, goal, expected):
    assert turns_between(start, goal) == expected


def test_turns_between_actually_rotates_there():
    for start in ("north", "east", "south", "west"):
        for goal in ("north", "east", "south", "west"):
            h = start
            for t in turns_between(start, goal):
                h = STEP[h, t][0]
            assert h == goal


def test_net_rotation():
    assert net_rotation(("turn_left", "turn_right")) == 0
    assert net_rotation(("turn_left",) * 4) == 0
    assert net_rotation(("turn_left",)) == 1
    assert net_rotation(("turn_right",)) == 3
    assert net_rotation(("walk", "stay")) == 0


def test_parse_symbols_validates():
    assert parse_symbols("North walk push") == ("North", "walk", "push")
    with pytest.raises(ValueError):
        parse_symbols("North fly")


def test_displacement_matches_hand_trace():
    # North North West from anywhere: two rows up, one col left.
    assert displacement(("North", "North", "West"), "east") == (-2, -1)
    # walk follows the tracked heading, pull opposes it.
    assert displacement(("walk", "walk"), "south") == (2, 0)
    assert displacement(("pull",), "east") == (0, -1)
    assert displacement(("turn_left", "walk"), "east") == (-1, 0)


def test_displacement_is_additive():
    rng = random.Random(4)
    symbols = sorted(ALL_SYMBOLS)
    for _ in range(200):
        a = [rng.choice(symbols) for _ in range(rng.randint(0, 8))]
        b = [rng.choice(symbols) for _ in range(rng.randint(0, 8))]
        joint = displacement(a + b, "north")
        da = displacement(a, "north")
        db = displacement(b, ground(a, "north")[1])
        assert joint == (da[0] + db[0], da[1] + db[1])
