import pytest

from mannerforge.errors import INT_PAIR, NUMBER, STRINGS, ConfigError, require


@pytest.mark.parametrize("value, kind, message", [
    (True, int, "x must be an integer, not True"),
    (1.0, int, "x must be an integer, not 1.0"),
    (1, str, "x must be a string, not 1"),
    ([], dict, "x must be an object, not []"),
    ((), list, "x must be a list, not ()"),
    (True, (1, 2, 3, 4), "x must be one of (1, 2, 3, 4), not True"),
    ("1", NUMBER, "x must be a number, not '1'"),
    (True, NUMBER, "x must be a number, not True"),
    (float("nan"), NUMBER, "x must be a finite number, not nan"),
    (10**400, NUMBER, "x must be a number a float can hold, not an integer this large"),
    (["a", 1], STRINGS, "x must be a list of strings, not ['a', 1]"),
    ("ab", STRINGS, "x must be a list of strings, not 'ab'"),
    ([2, 8, 10], INT_PAIR, "x must be two integers, not [2, 8, 10]"),
    ((2.0, 8), INT_PAIR, "x must be two integers, not (2.0, 8)"),
    ([True, 8], INT_PAIR, "x must be two integers, not [True, 8]"),
])
def test_require_refuses_other_kinds(value, kind, message):
    with pytest.raises(ConfigError) as err:
        require("x", value, kind)
    assert str(err.value) == message


@pytest.mark.parametrize("value, kind, expected", [
    (3, (1, 2, 3, 4), 3),
    ({}, dict, {}),
    (["a", "b"], STRINGS, ("a", "b")),
    (("a", "b"), STRINGS, ("a", "b")),
    ([], STRINGS, ()),
    ([2, 8], INT_PAIR, (2, 8)),
    ((2, 8), INT_PAIR, (2, 8)),
    (0.5, NUMBER, 0.5),
    (-3, NUMBER, -3),
])
def test_require_hands_back_its_value_and_sequences_as_tuples(value, kind, expected):
    held = require("x", value, kind)
    assert held == expected and type(held) is type(expected)
