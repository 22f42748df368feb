"""Action symbol vocabulary and heading arithmetic.

Two disjoint vocabularies share the action alphabet: world-frame movement
symbols are capitalized (North, South, East, West) and agent-frame primitives
are lowercase (walk, push, pull, stay, turn_left, turn_right).  Everything in
this module is pure token math; grid state lives in :mod:`mannerforge.world`.
"""
from __future__ import annotations

from .errors import ConfigError

EGO_SYMBOLS = frozenset({"walk", "push", "pull", "stay", "turn_left", "turn_right"})
ALLO_SYMBOLS = frozenset({"North", "South", "East", "West"})
ALL_SYMBOLS = EGO_SYMBOLS | ALLO_SYMBOLS

# Clockwise compass order; turn_right steps forward in this tuple.
HEADINGS = ("north", "east", "south", "west")

HEADING_DELTAS = {
    "north": (-1, 0),
    "south": (1, 0),
    "east": (0, 1),
    "west": (0, -1),
}

ALLO_TO_HEADING = {"North": "north", "South": "south", "East": "east", "West": "west"}

_HEADING_INDEX = {h: i for i, h in enumerate(HEADINGS)}


def _step(heading: str, symbol: str) -> tuple[str, int, int]:
    if symbol in ALLO_TO_HEADING:
        heading, sign = ALLO_TO_HEADING[symbol], 1
    else:
        quarter = {"turn_left": -1, "turn_right": 1}.get(symbol, 0)
        heading = HEADINGS[(_HEADING_INDEX[heading] + quarter) % 4]
        sign = {"walk": 1, "push": 1, "pull": -1}.get(symbol, 0)
    dr, dc = HEADING_DELTAS[heading]
    return heading, sign * dr, sign * dc


# The compass table: STEP[heading, symbol] = (heading_after, drow, dcol).  An
# allocentric symbol faces its direction and moves that way; walk and push
# move along the heading, pull against it; turns rotate in place; stay idles.
# Every heading walker in the package reads this one table.
STEP = {(h, s): _step(h, s) for h in HEADINGS for s in sorted(ALL_SYMBOLS)}


def is_allo(symbol: str) -> bool:
    return symbol in ALLO_SYMBOLS


def require_symbol(symbol: str) -> str:
    if symbol not in ALL_SYMBOLS:
        raise ConfigError(f"unknown action symbol: {symbol!r}")
    return symbol


def require_heading(heading: str) -> str:
    if heading not in _HEADING_INDEX:
        raise ConfigError(f"unknown heading: {heading!r}")
    return heading


def parse_symbols(text: str) -> tuple[str, ...]:
    """Split a whitespace-separated symbol string, validating each token."""
    return tuple(require_symbol(tok) for tok in text.split())


def turns_between(start: str, goal: str) -> tuple[str, ...]:
    """Minimal turn sequence rotating `start` onto `goal`.

    A 180 degree rotation is always expressed as two turn_left actions so the
    output is canonical.
    """
    delta = (_HEADING_INDEX[goal] - _HEADING_INDEX[start]) % 4
    if delta == 0:
        return ()
    if delta == 1:
        return ("turn_right",)
    if delta == 3:
        return ("turn_left",)
    return ("turn_left", "turn_left")


def net_rotation(symbols) -> int:
    """Net quarter-turns (mod 4, counterclockwise positive) of the turn symbols."""
    r = 0
    for s in symbols:
        if s == "turn_left":
            r += 1
        elif s == "turn_right":
            r -= 1
    return r % 4


def displacement(symbols, start: str) -> tuple[int, int]:
    """Net (row, col) displacement of a mixed sequence followed from `start`,
    as grounded execution would move the agent."""
    h = start
    drow = 0
    dcol = 0
    for s in symbols:
        h, dr, dc = STEP[h, s]
        drow += dr
        dcol += dc
    return drow, dcol
