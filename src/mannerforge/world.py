"""Gridworld model: world state, command semantics, and the action executor.

The grid is a square of cells addressed by (row, col) with row 0 at the north
edge, so walking North decreases the row and walking East increases the
column.  Objects sit on distinct cells; one of them is the designated target
of the current command.  The executor simulates egocentric action sequences
against these rules and is the ground-truth validity oracle for everything
the dataset forge emits.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import (
    AlloSymbolPresent,
    AmbiguousReferent,
    Blocked,
    ConfigError,
    ExhaustedRetries,
    IllegalInteraction,
    NoReferent,
    OutOfBounds,
    require,
)
from .seeding import pick, sample
from .symbols import EGO_SYMBOLS, HEADINGS, STEP, require_heading

SHAPES = ("circle", "square", "cylinder")
COLORS = ("red", "blue", "green", "yellow")
SIZES = (1, 2, 3, 4)
SIZE_ADJECTIVES = ("small", "big")
# Each verb and the tokens its commands begin with, before the noun phrase: what
# Command.tokens writes and command_fields reads.  Lists, to compare with a list's slice.
_LEADS = {"walk": ["walk", "to", "a"], "push": ["push", "a"], "pull": ["pull", "a"]}
VERBS = tuple(_LEADS)

# Objects of these sizes need two push (or pull) actions per cell moved.
HEAVY_SIZES = frozenset({3, 4})


@dataclass(frozen=True, slots=True)
class Position:
    row: int
    col: int


@dataclass(frozen=True, slots=True)
class GridObject:
    shape: str
    color: str
    size: int
    position: Position


# One shared value per cell and per object, as world_from_dict, execute and
# sample_situation build them: a hit costs a fifth of a construction.  typed=True keys
# True, 1 and 1.0 apart, so no call is handed a value of another type than its own.
@lru_cache(maxsize=1 << 12, typed=True)
def _cell(row: int, col: int) -> Position:
    return Position(row, col)


@lru_cache(maxsize=1 << 14, typed=True)
def _object(shape: str, color: str, size: int, row: int, col: int) -> GridObject:
    return GridObject(shape, color, size, _cell(row, col))


@dataclass(frozen=True)
class WorldState:
    grid_size: int
    agent_position: Position
    agent_heading: str
    objects: tuple[GridObject, ...]
    target_index: int

    def __post_init__(self):
        n = self.grid_size
        if n < 2:
            raise ConfigError("grid_size must be at least 2")
        require_heading(self.agent_heading)
        if not (0 <= self.agent_position.row < n and 0 <= self.agent_position.col < n):
            raise ConfigError(f"agent out of bounds: {self.agent_position}")
        if not 0 <= self.target_index < len(self.objects):
            raise ConfigError(f"target_index {self.target_index} out of range")
        seen = set()
        for obj in self.objects:
            cell = (obj.position.row, obj.position.col)  # hashed faster than a Position
            if not (0 <= cell[0] < n and 0 <= cell[1] < n):
                raise ConfigError(f"object out of bounds: {obj}")
            if cell in seen:
                raise ConfigError(f"two objects share cell {obj.position}")
            seen.add(cell)

    @property
    def target(self) -> GridObject:
        return self.objects[self.target_index]

    @property
    def blockers(self) -> frozenset[tuple[int, int]]:
        """The (row, col) cells of every object but the target."""
        others = self.objects[: self.target_index] + self.objects[self.target_index + 1 :]
        return frozenset((o.position.row, o.position.col) for o in others)


@dataclass(frozen=True)
class Command:
    """A parsed instruction: verb, a noun phrase, and an optional adverb.

    Its surface form is the verb's lead (_LEADS: "walk to a", "push a", "pull a"),
    then the noun phrase ordered [size adjective] [color] shape, then the adverb
    tokens.
    """

    verb: str
    shape: str
    color: str | None = None
    size_adj: str | None = None
    adverb: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.verb not in VERBS:
            raise ConfigError(f"unknown verb: {self.verb!r}")
        if self.size_adj not in (None, *SIZE_ADJECTIVES):
            raise ConfigError(f"unknown size adjective: {self.size_adj!r}")

    def tokens(self) -> tuple[str, ...]:
        modifiers = [word for word in (self.size_adj, self.color) if word]
        return (*_LEADS[self.verb], *modifiers, self.shape, *(self.adverb or ()))


def command_fields(command: list) -> tuple:
    """The fields of the Command a list of tokens spells, in Command's order: the verb's
    lead, at most one size adjective, at most one color, the shape noun, and any tokens
    after it as the adverb (None for none).  Whether that adverb names a known program
    is the solver's concern.  Tokens outside this grammar raise ConfigError."""
    if not command or command[0] not in VERBS:  # `in` a tuple: no hash of the token
        raise ConfigError(f"command must start with a verb: {command!r}")
    lead = _LEADS[command[0]]
    at = len(lead)
    if command[:at] != lead:
        raise ConfigError(f"command {command!r} does not begin {' '.join(lead)!r}")
    size_adj = color = None
    if at < len(command) and command[at] in SIZE_ADJECTIVES:
        size_adj = command[at]
        at += 1
    if at < len(command) and command[at] in COLORS:
        color = command[at]
        at += 1
    if at == len(command) or command[at] not in SHAPES:
        raise ConfigError(f"command has no shape noun: {command!r} has {command[at:at + 1]} "
                          f"after {' '.join(command[:at])!r}")
    return command[0], command[at], color, size_adj, tuple(command[at + 1:]) or None


def parse_command(tokens) -> Command:
    """The Command of a surface token sequence, as command_fields reads it."""
    return Command(*command_fields(list(tokens)))


# STEP of the egocentric actions, keyed by action, then heading: execute's lookup.
_STEP_BY_ACTION = {a: {h: STEP[h, a] for h in HEADINGS} for a in EGO_SYMBOLS}


def execute(world: WorldState, actions) -> WorldState:
    """Simulate an egocentric action sequence and return the world it leaves.

    walk moves the agent one cell along its heading; turn_left / turn_right
    rotate in place; stay does nothing.  push and pull require the agent to
    stand on the target object's cell and move agent and object together, one
    cell along (push) or against (pull) the heading.  Heavy objects move one
    cell per two actions of the same interaction: the first of each pair has
    no spatial effect, and the pair survives interleaved turns and stays but
    is reset by walking or by switching between push and pull.
    """
    actions = tuple(actions)
    if not EGO_SYMBOLS.issuperset(actions):
        bad = next(a for a in actions if a not in EGO_SYMBOLS)
        raise AlloSymbolPresent(f"executor got non-egocentric symbol {bad!r}")

    n = world.grid_size
    heading = world.agent_heading
    target = world.target
    trow, tcol = target.position.row, target.position.col
    row, col = world.agent_position.row, world.agent_position.col
    heavy = target.size in HEAVY_SIZES
    blockers = world.blockers
    pending: str | None = None

    for action in actions:
        heading, dr, dc = _STEP_BY_ACTION[action][heading]
        if not (dr or dc):
            continue  # turns and stay do not move
        if action == "walk":
            pending = None
        else:  # push or pull
            if row != trow or col != tcol:
                raise IllegalInteraction(
                    f"{action} at {Position(row, col)} but target object is at {Position(trow, tcol)}"
                )
            if heavy and pending != action:
                pending = action
                continue
            pending = None

        # The agent moves one cell, carrying the object when interacting.
        row += dr
        col += dc
        if not (0 <= row < n and 0 <= col < n):
            if action == "walk":
                raise OutOfBounds(f"cannot walk to {Position(row, col)}")
            raise OutOfBounds(f"cannot move object to {Position(row, col)}")
        if action != "walk":
            if (row, col) in blockers:
                raise Blocked(f"cell {Position(row, col)} is occupied")
            trow, tcol = row, col

    objects = world.objects
    if (trow, tcol) != (target.position.row, target.position.col):
        moved = _object(target.shape, target.color, target.size, trow, tcol)
        objects = (*objects[: world.target_index], moved, *objects[world.target_index + 1 :])
    return WorldState(
        grid_size=n,
        agent_position=_cell(row, col),
        agent_heading=heading,
        objects=objects,
        target_index=world.target_index,
    )


def resolve_target(command: Command, world: WorldState) -> int:
    """Return the index of the unique object the command's noun phrase denotes.

    Shape and color (when given) filter the object list; a size adjective then
    selects the minimum (small) or maximum (big) size among the filtered set.
    """
    matches = [
        i
        for i, obj in enumerate(world.objects)
        if obj.shape == command.shape and (command.color is None or obj.color == command.color)
    ]
    if not matches:
        raise NoReferent(f"no object matches {' '.join(command.tokens())!r}")
    if command.size_adj is not None:
        pick = min if command.size_adj == "small" else max
        extreme = pick(world.objects[i].size for i in matches)
        matches = [i for i in matches if world.objects[i].size == extreme]
    if len(matches) > 1:
        raise AmbiguousReferent(
            f"{len(matches)} objects match {' '.join(command.tokens())!r}"
        )
    return matches[0]


def describe_target(world: WorldState) -> tuple[str | None, str | None] | None:
    """The (size adjective, color) of the shortest noun phrase uniquely denoting
    the target, either None where the phrase has none; None if no phrase does.

    Tries shape; color shape; small/big shape; small/big color shape, as
    resolve_target reads them: a bare phrase is unique when one object has the
    target's shape (and color); small or big when the target's size is the
    unique minimum or maximum among those objects.
    """
    target = world.target
    same_shape = [o for o in world.objects if o.shape == target.shape]
    groups = (
        (None, [o.size for o in same_shape]),
        (target.color, [o.size for o in same_shape if o.color == target.color]),
    )
    for color, sizes in groups:
        if len(sizes) == 1:
            return None, color
    for color, sizes in groups:
        for size_adj, extreme in (("small", min(sizes)), ("big", max(sizes))):
            if target.size == extreme and sizes.count(extreme) == 1:
                return size_adj, color
    return None


@lru_cache(maxsize=None)
def _grid_cells(grid_size: int) -> tuple[Position, ...]:
    """Every cell of the grid, row by row."""
    return tuple(_cell(r, c) for r in range(grid_size) for c in range(grid_size))


@lru_cache(maxsize=4096)
def _cells_outside(grid_size: int, r0: int, r1: int, c0: int, c1: int) -> tuple[Position, ...]:
    """_grid_cells' Positions, in order, but for those in rows r0..r1 and columns c0..c1."""
    return tuple(
        p for p in _grid_cells(grid_size) if not (r0 <= p.row <= r1 and c0 <= p.col <= c1)
    )


SITUATION_ATTEMPTS = 200  # layouts sample_situation draws before it gives up


def sample_situation(
    rng: random.Random,
    grid_size: int = 6,
    distractors: tuple[int, int] = (0, 3),
) -> tuple[WorldState, tuple[str | None, str | None]]:
    """Sample a world whose target a noun phrase uniquely denotes, and that phrase's
    (size adjective, color), as describe_target gives them.

    The agent and target occupy distinct cells, and distractors are kept out
    of the rectangle spanned by agent and target so navigation paths stay
    unobstructed.  Raises ExhaustedRetries when no uniquely describable layout
    is found in SITUATION_ATTEMPTS draws.
    """
    if grid_size < 2:
        raise ConfigError("grid_size must be at least 2")
    if not 0 <= distractors[0] <= distractors[1]:
        raise ConfigError(f"distractors must be [min, max] with 0 <= min <= max, not {distractors!r}")
    all_cells = _grid_cells(grid_size)
    counts = range(distractors[0], distractors[1] + 1)
    getrandbits = rng.getrandbits

    for _ in range(SITUATION_ATTEMPTS):
        agent_pos, target_pos = sample(getrandbits, all_cells, 2)
        heading = pick(getrandbits, HEADINGS)
        r0, r1 = sorted((agent_pos.row, target_pos.row))
        c0, c1 = sorted((agent_pos.col, target_pos.col))
        free = _cells_outside(grid_size, r0, r1, c0, c1)

        n_distractors = pick(getrandbits, counts)
        if len(free) < n_distractors:
            continue
        cells = sample(getrandbits, free, n_distractors)

        objects = [
            _object(pick(getrandbits, SHAPES), pick(getrandbits, COLORS), pick(getrandbits, SIZES),
                    cell.row, cell.col)
            for cell in (target_pos, *cells)
        ]
        world = WorldState(
            grid_size=grid_size,
            agent_position=agent_pos,
            agent_heading=heading,
            objects=tuple(objects),
            target_index=0,
        )
        modifiers = describe_target(world)
        if modifiers is not None:
            return world, modifiers

    raise ExhaustedRetries(
        f"no uniquely describable target after {SITUATION_ATTEMPTS} attempts"
    )


# --- serialization -----------------------------------------------------------

def world_to_dict(world: WorldState) -> dict:
    return {
        "grid_size": world.grid_size,
        "agent": {
            "row": world.agent_position.row,
            "col": world.agent_position.col,
            "heading": world.agent_heading,
        },
        "target_index": world.target_index,
        "objects": [
            {
                "shape": o.shape,
                "color": o.color,
                "size": o.size,
                "row": o.position.row,
                "col": o.position.col,
            }
            for o in world.objects
        ],
    }


# The keys of world_to_dict's objects, and the kind (errors.require's) of each key's value.
_WORLD_KEYS = {"grid_size", "agent", "target_index", "objects"}
_AGENT_KEYS = {"row", "col", "heading"}
_OBJECT_KEYS = {"shape", "color", "size", "row", "col"}
_KINDS = {"grid_size": int, "target_index": int, "row": int, "col": int, "agent": dict,
          "objects": list, "heading": HEADINGS, "shape": SHAPES, "color": COLORS, "size": SIZES}
_KNOWN = frozenset(product(SHAPES, COLORS, SIZES))  # (shape, color, size)


def _laid_out(data, keys: set, where: str) -> dict:
    """`data` if it has exactly `keys`, each value as _KINDS says; else ConfigError naming the key."""
    if require(where[:-1] or "world", data, dict).keys() != keys:
        key = min(data.keys() ^ keys)
        raise ConfigError(f"{'unknown' if key in data else 'missing'} world key {where}{key}")
    for key, value in data.items():
        require(where + key, value, _KINDS[key])
    return data


def world_from_dict(data: dict, where: str = "") -> WorldState:
    """The world a world_to_dict object describes, its keys checked as _laid_out checks
    them: inline while the objects are built, then, only if that finds a fault, key by
    key to name the first bad one, its path prefixed with `where` (say "situation.").
    Its agent cell and objects are the shared ones of _cell and _object."""
    try:
        agent, objects = data["agent"], data["objects"]
        bad = not (data.keys() == _WORLD_KEYS and agent.keys() == _AGENT_KEYS and type(objects) is list
                   and type(data["grid_size"]) is type(data["target_index"]) is int
                   and type(agent["row"]) is type(agent["col"]) is int and agent["heading"] in HEADINGS)
        built = []
        for o in objects:
            shape, color, size, row, col = o["shape"], o["color"], o["size"], o["row"], o["col"]
            bad = bad or o.keys() != _OBJECT_KEYS or (shape, color, size) not in _KNOWN
            bad = bad or not type(size) is type(row) is type(col) is int
            if not bad:  # the key-by-key check below raises for a bad world
                built.append(_object(shape, color, size, row, col))
    except (AttributeError, KeyError, TypeError):
        bad = True
    if bad:
        _laid_out(data, _WORLD_KEYS, where)
        _laid_out(data["agent"], _AGENT_KEYS, f"{where}agent.")
        for i, o in enumerate(data["objects"]):
            _laid_out(o, _OBJECT_KEYS, f"{where}objects[{i}].")
    agent_pos = _cell(agent["row"], agent["col"])
    return WorldState(data["grid_size"], agent_pos, agent["heading"], tuple(built), data["target_index"])


_AGENT_MARKS = {"north": "^", "east": ">", "south": "v", "west": "<"}


def render_world(world: WorldState) -> str:
    """ASCII rendering: agent as a heading arrow, objects as color/shape/size
    triples, the target uppercased."""
    cells = {}
    for i, obj in enumerate(world.objects):
        mark = obj.color[0] + obj.shape[0] + str(obj.size)
        if i == world.target_index:
            mark = mark.upper()
        cells[obj.position] = mark
    lines = []
    for r in range(world.grid_size):
        row = []
        for c in range(world.grid_size):
            pos = Position(r, c)
            mark = cells.get(pos, " . ")
            if pos == world.agent_position:
                arrow = _AGENT_MARKS[world.agent_heading]
                mark = arrow + mark[1:] if pos in cells else f" {arrow} "
            row.append(mark)
        lines.append(" ".join(row))
    return "\n".join(lines)
