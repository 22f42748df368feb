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
from dataclasses import dataclass, replace

from .errors import (
    AlloSymbolPresent,
    AmbiguousReferent,
    Blocked,
    ExhaustedRetries,
    IllegalInteraction,
    NoReferent,
    OutOfBounds,
)
from .symbols import EGO_SYMBOLS, STEP, require_heading

SHAPES = ("circle", "square", "cylinder")
COLORS = ("red", "blue", "green", "yellow")
SIZES = (1, 2, 3, 4)
VERBS = ("walk", "push", "pull")

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


@dataclass(frozen=True)
class WorldState:
    grid_size: int
    agent_position: Position
    agent_heading: str
    objects: tuple[GridObject, ...]
    target_index: int

    def __post_init__(self):
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        require_heading(self.agent_heading)
        if not self.in_bounds(self.agent_position):
            raise ValueError(f"agent out of bounds: {self.agent_position}")
        if not 0 <= self.target_index < len(self.objects):
            raise ValueError(f"target_index {self.target_index} out of range")
        seen = set()
        for obj in self.objects:
            if not self.in_bounds(obj.position):
                raise ValueError(f"object out of bounds: {obj}")
            if obj.position in seen:
                raise ValueError(f"two objects share cell {obj.position}")
            seen.add(obj.position)

    def in_bounds(self, pos: Position) -> bool:
        return 0 <= pos.row < self.grid_size and 0 <= pos.col < self.grid_size

    @property
    def target(self) -> GridObject:
        return self.objects[self.target_index]

    def occupied(self, pos: Position, ignore: int | None = None) -> bool:
        for i, obj in enumerate(self.objects):
            if i != ignore and obj.position == pos:
                return True
        return False


@dataclass(frozen=True)
class Command:
    """A parsed instruction: verb, a noun phrase, and an optional adverb.

    Surface form is "walk to a ..." for walk and "<verb> a ..." for push and
    pull, with the noun phrase ordered [size adjective] [color] shape and the
    adverb tokens trailing.
    """

    verb: str
    shape: str
    color: str | None = None
    size_adj: str | None = None
    adverb: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.verb not in VERBS:
            raise ValueError(f"unknown verb: {self.verb!r}")
        if self.size_adj not in (None, "small", "big"):
            raise ValueError(f"unknown size adjective: {self.size_adj!r}")

    def tokens(self) -> tuple[str, ...]:
        toks = [self.verb]
        if self.verb == "walk":
            toks.append("to")
        toks.append("a")
        if self.size_adj:
            toks.append(self.size_adj)
        if self.color:
            toks.append(self.color)
        toks.append(self.shape)
        if self.adverb:
            toks.extend(self.adverb)
        return tuple(toks)


def parse_command(tokens) -> Command:
    """Parse a surface token sequence back into a Command.

    Any tokens after the shape noun are taken as the adverb surface; whether
    that surface names a known program is the solver's concern.
    """
    toks = list(tokens)
    if not toks or toks[0] not in VERBS:
        raise ValueError(f"command must start with a verb: {toks!r}")
    verb = toks.pop(0)
    if verb == "walk":
        if not toks or toks.pop(0) != "to":
            raise ValueError("walk commands read 'walk to a ...'")
    if not toks or toks.pop(0) != "a":
        raise ValueError("expected article 'a' before the noun phrase")
    size_adj = None
    if toks and toks[0] in ("small", "big"):
        size_adj = toks.pop(0)
    color = None
    if toks and toks[0] in COLORS:
        color = toks.pop(0)
    if not toks or toks[0] not in SHAPES:
        raise ValueError(f"expected a shape noun, got {toks[:1]!r}")
    shape = toks.pop(0)
    adverb = tuple(toks) if toks else None
    return Command(verb=verb, shape=shape, color=color, size_adj=size_adj, adverb=adverb)


@dataclass(frozen=True)
class Trajectory:
    """Result of executing an action sequence: the cells the agent visited
    (consecutive duplicates collapsed), the final world, and the action count."""

    visited_cells: tuple[Position, ...]
    final_world: WorldState
    length: int


def execute(world: WorldState, actions) -> Trajectory:
    """Simulate an egocentric action sequence and return its trajectory.

    walk moves the agent one cell along its heading; turn_left / turn_right
    rotate in place; stay does nothing.  push and pull require the agent to
    stand on the target object's cell and move agent and object together, one
    cell along (push) or against (pull) the heading.  Heavy objects move one
    cell per two actions of the same interaction: the first of each pair has
    no spatial effect, and the pair survives interleaved turns and stays but
    is reset by walking or by switching between push and pull.
    """
    actions = tuple(actions)
    for a in actions:
        if a not in EGO_SYMBOLS:
            raise AlloSymbolPresent(f"executor got non-egocentric symbol {a!r}")

    agent = world.agent_position
    heading = world.agent_heading
    target = world.target
    target_pos = target.position
    heavy = target.size in HEAVY_SIZES
    pending: str | None = None
    visited = [agent]

    for action in actions:
        heading, dr, dc = STEP[heading, action]
        if action == "walk":
            pending = None
        elif action == "push" or action == "pull":
            if agent != target_pos:
                raise IllegalInteraction(
                    f"{action} at {agent} but target object is at {target_pos}"
                )
            if heavy and pending != action:
                pending = action
                continue
            pending = None
        else:
            continue  # turns and stay do not move

        # The agent moves one cell, carrying the object when interacting.
        new = Position(agent.row + dr, agent.col + dc)
        if not (0 <= new.row < world.grid_size and 0 <= new.col < world.grid_size):
            if action == "walk":
                raise OutOfBounds(f"cannot walk to {new}")
            raise OutOfBounds(f"cannot move object to {new}")
        if action != "walk":
            for i, obj in enumerate(world.objects):
                if i != world.target_index and obj.position == new:
                    raise Blocked(f"cell {new} is occupied")
            target_pos = new
        agent = new
        visited.append(agent)  # every move changes cell, so no duplicates

    objects = list(world.objects)
    objects[world.target_index] = replace(target, position=target_pos)
    final = WorldState(
        grid_size=world.grid_size,
        agent_position=agent,
        agent_heading=heading,
        objects=tuple(objects),
        target_index=world.target_index,
    )
    return Trajectory(visited_cells=tuple(visited), final_world=final, length=len(actions))


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


def describe_target(world: WorldState) -> tuple[str, ...] | None:
    """Shortest noun phrase (with article) uniquely denoting the target, or None.

    Tries shape; color shape; small/big shape; small/big color shape, as
    resolve_target reads them: a bare phrase is unique when one object has the
    target's shape (and color); small or big when the target's size is the
    unique minimum or maximum among those objects.
    """
    target = world.target
    same_shape = [o for o in world.objects if o.shape == target.shape]
    groups = (
        ((), [o.size for o in same_shape]),
        ((target.color,), [o.size for o in same_shape if o.color == target.color]),
    )
    for color, sizes in groups:
        if len(sizes) == 1:
            return ("a", *color, target.shape)
    for color, sizes in groups:
        for size_adj, extreme in (("small", min(sizes)), ("big", max(sizes))):
            if target.size == extreme and sizes.count(extreme) == 1:
                return ("a", size_adj, *color, target.shape)
    return None


def sample_situation(
    rng: random.Random,
    grid_size: int = 6,
    distractors: tuple[int, int] = (0, 3),
    max_attempts: int = 200,
) -> tuple[WorldState, tuple[str, ...]]:
    """Sample a world plus a noun phrase that uniquely resolves to its target.

    The agent and target occupy distinct cells, and distractors are kept out
    of the rectangle spanned by agent and target so navigation paths stay
    unobstructed.  Raises ExhaustedRetries when no uniquely describable layout
    is found within the attempt budget.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    all_cells = [Position(r, c) for r in range(grid_size) for c in range(grid_size)]

    for _ in range(max_attempts):
        agent_pos, target_pos = rng.sample(all_cells, 2)
        heading = rng.choice(("north", "east", "south", "west"))
        r0, r1 = sorted((agent_pos.row, target_pos.row))
        c0, c1 = sorted((agent_pos.col, target_pos.col))
        free = [p for p in all_cells if not (r0 <= p.row <= r1 and c0 <= p.col <= c1)]

        n_distractors = rng.randint(distractors[0], distractors[1])
        if len(free) < n_distractors:
            continue
        cells = rng.sample(free, n_distractors)

        objects = [
            GridObject(
                shape=rng.choice(SHAPES),
                color=rng.choice(COLORS),
                size=rng.choice(SIZES),
                position=cell,
            )
            for cell in (target_pos, *cells)
        ]
        world = WorldState(
            grid_size=grid_size,
            agent_position=agent_pos,
            agent_heading=heading,
            objects=tuple(objects),
            target_index=0,
        )
        phrase = describe_target(world)
        if phrase is not None:
            return world, phrase

    raise ExhaustedRetries(
        f"no uniquely describable target after {max_attempts} attempts"
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


def world_from_dict(data: dict) -> WorldState:
    agent = data["agent"]
    return WorldState(
        grid_size=data["grid_size"],
        agent_position=Position(agent["row"], agent["col"]),
        agent_heading=agent["heading"],
        objects=tuple(
            GridObject(
                shape=o["shape"],
                color=o["color"],
                size=int(o["size"]),
                position=Position(o["row"], o["col"]),
            )
            for o in data["objects"]
        ),
        target_index=data["target_index"],
    )


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
