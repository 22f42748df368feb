"""Rule-based solver: perception, navigation, interaction, transformation.

Four small modules mirror the cognitive decomposition of the task and compose
into a ground-truth solver.  Perception locates agent and target.  Navigation
plans a path, allocentric or egocentric depending on the manner.  Interaction
decides how many push or pull actions bring the object flush against the wall
or the first obstacle.  Transformation rewrites a sequence with the adverb's
program and grounds it into egocentric primitives: first the plan, whose end
heading is the one the agent arrives in, then the interactions from there.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .dsl import AdverbProgram, builtin_adverbs, ground, require_depth
from .errors import ConfigError, NoReferent, UnknownAdverb
from .metagrammar import classify_program
from .symbols import ALLO_SYMBOLS, EGO_SYMBOLS, STEP
from .world import HEAVY_SIZES, Command, Position, WorldState, resolve_target

HEAVY_ACTIONS_PER_CELL = 2


@dataclass(frozen=True)
class Percept:
    """What perception reports: agent pose and target location."""

    agent_position: Position
    agent_heading: str
    target_position: Position


@dataclass(frozen=True)
class Plan:
    mode: str
    symbols: tuple[str, ...]

    def __post_init__(self):
        vocab = ALLO_SYMBOLS if self.mode == "allocentric" else EGO_SYMBOLS
        for s in self.symbols:
            if s not in vocab:
                raise ConfigError(f"{self.mode} plan cannot contain {s!r}")


def perceive(command: Command, world: WorldState) -> Percept:
    """Agent pose and target cell.  The object the command names must be the world's
    target, since interaction, the executor and the goal check act on that one."""
    index = resolve_target(command, world)
    if index != world.target_index:
        raise NoReferent(f"{' '.join(command.tokens())!r} names object {index}, "
                         f"not the world's target, object {world.target_index}")
    target = world.objects[index]
    return Percept(
        agent_position=world.agent_position,
        agent_heading=world.agent_heading,
        target_position=target.position,
    )


def _axis_symbols(delta: int, positive: str, negative: str) -> list[str]:
    return [positive if delta > 0 else negative] * abs(delta)


def canonical_allo_plan(drow: int, dcol: int) -> tuple[str, ...]:
    """Vertical moves first, then horizontal: the canonical shortest plan."""
    return tuple(
        _axis_symbols(drow, "South", "North") + _axis_symbols(dcol, "East", "West")
    )


def zigzag_allo_plan(drow: int, dcol: int) -> tuple[str, ...]:
    """Alternate vertical and horizontal moves, starting vertical, until one
    axis runs out; then append the remainder."""
    vertical = _axis_symbols(drow, "South", "North")
    horizontal = _axis_symbols(dcol, "East", "West")
    plan: list[str] = []
    while vertical and horizontal:
        plan.append(vertical.pop())
        plan.append(horizontal.pop())
    plan.extend(vertical)
    plan.extend(horizontal)
    return tuple(plan)


def plan_navigation(percept: Percept, adverb: AdverbProgram | None = None) -> Plan:
    """Plan from agent to target.

    Without an adverb the plan is egocentric: the canonical allocentric path
    grounded from the agent's heading.  An adverb chooses the output mode, and
    a zigzag-shaped manner replaces the canonical path with the staircase one.
    """
    drow = percept.target_position.row - percept.agent_position.row
    dcol = percept.target_position.col - percept.agent_position.col
    if adverb is not None and adverb.plan_shape == "zigzag":
        return Plan("allocentric", zigzag_allo_plan(drow, dcol))
    canonical = canonical_allo_plan(drow, dcol)
    if adverb is not None and adverb.mode == "allocentric":
        return Plan("allocentric", canonical)
    return Plan("egocentric", ground(canonical, percept.agent_heading)[0])


def free_cells(world: WorldState, start: Position, drow: int, dcol: int) -> int:
    """Cells an object at `start` can slide by steps of (drow, dcol) before
    hitting the grid edge or another object."""
    n, blockers = world.grid_size, world.blockers
    row, col = start.row + drow, start.col + dcol
    count = 0
    while 0 <= row < n and 0 <= col < n and (row, col) not in blockers:
        count += 1
        row, col = row + drow, col + dcol
    return count


def plan_interaction(
    percept: Percept,
    world: WorldState,
    command: Command,
    arrival_heading: str,
) -> tuple[str, ...]:
    """Interaction actions after arrival: nothing for walk; push the object to
    the wall along the arrival heading; pull it to the wall behind."""
    if command.verb == "walk":
        return ()
    target = world.target
    _, drow, dcol = STEP[arrival_heading, command.verb]
    cells = free_cells(world, target.position, drow, dcol)
    per_cell = HEAVY_ACTIONS_PER_CELL if target.size in HEAVY_SIZES else 1
    return (command.verb,) * (cells * per_cell)


def transform(
    symbols,
    adverb: AdverbProgram | None,
    start: str,
    max_depth: int = 10,
) -> tuple[tuple[str, ...], str]:
    """Rewrite symbols with the manner's program and ground the result from
    `start`; return the actions and the heading they end on.  With no adverb
    egocentric symbols pass through unchanged.

    A program rewrites each symbol on its own and grounding is a left-to-right
    fold, so one fold over the program's table (`ProgramTable`) gives
    ground(apply_program(adverb, symbols, max_depth), start), and transforming
    a plan and then its interactions from the plan's end heading gives the
    actions of transforming the two joined."""
    if adverb is None:
        return ground(symbols, start)
    require_depth(adverb, max_depth)
    return ground(symbols, start, adverb.table)


BUILTIN_SURFACES = tuple(p.surface for p in builtin_adverbs())


@dataclass(frozen=True)
class Lexicon:
    """All adverbs a command may use, by surface: the four built-ins, then the
    registry programs in slot order."""

    programs: dict = field(default_factory=dict)
    types: dict = field(default_factory=dict)
    registry: tuple[AdverbProgram, ...] = ()

    @classmethod
    def build(cls, registry=()) -> "Lexicon":
        registry = tuple(registry)
        programs = {}
        for program in (*builtin_adverbs(), *registry):
            if program.surface in programs:
                raise ConfigError(f"adverb surface {program.surface!r} already registered")
            programs[program.surface] = program
        types = {surface: classify_program(p) for surface, p in programs.items()}
        return cls(programs=programs, types=types, registry=registry)

    def lookup(self, surface) -> AdverbProgram:
        key = surface if isinstance(surface, str) else " ".join(surface)
        try:
            return self.programs[key]
        except KeyError:
            raise UnknownAdverb(f"no adverb named {key!r}") from None

    def surfaces(self) -> tuple[str, ...]:
        return tuple(self.programs)


@dataclass(frozen=True)
class SolveTrace:
    """Every oracle module's output for one command in one world."""

    percept: Percept
    plan: Plan
    arrival_heading: str
    interactions: tuple[str, ...]
    target: tuple[str, ...]


def solve_trace(
    command: Command,
    world: WorldState,
    lexicon: Lexicon | None = None,
    max_depth: int = 10,
) -> SolveTrace:
    """Run perception, navigation, transformation of the plan, interaction and
    transformation of the interactions.

    The interaction heading is the one the transformed plan ends on, not the
    plain plan's: a detour manner can leave the agent facing elsewhere when it
    reaches the target, and the object must be pushed the way the agent faces.
    """
    if lexicon is None:
        lexicon = Lexicon.build()
    adverb = lexicon.lookup(command.adverb) if command.adverb else None
    percept = perceive(command, world)
    plan = plan_navigation(percept, adverb)
    moves, arrival = transform(plan.symbols, adverb, world.agent_heading, max_depth)
    interactions = plan_interaction(percept, world, command, arrival)
    actions, _ = transform(interactions, adverb, arrival, max_depth)
    return SolveTrace(percept, plan, arrival, interactions, moves + actions)


def solve(
    command: Command,
    world: WorldState,
    lexicon: Lexicon | None = None,
    max_depth: int = 10,
) -> tuple[str, ...]:
    """Ground-truth action sequence for a command in a world."""
    return solve_trace(command, world, lexicon, max_depth).target


def goal_satisfied(verb: str, world: WorldState, final: WorldState) -> bool:
    """Check the verb's goal from the world before execution and the one after.

    walk: the agent ends on the target's cell.  push/pull: the object ends
    flush against the grid edge or another object along the direction it was
    moved (the heading's push or pull direction when it never moved at all).
    """
    target_before = world.target.position
    target_after = final.target.position
    if verb == "walk":
        return final.agent_position == target_after

    drow = target_after.row - target_before.row
    dcol = target_after.col - target_before.col
    if drow != 0 and dcol != 0:
        return False
    if drow == 0 and dcol == 0:
        _, drow, dcol = STEP[final.agent_heading, verb]
    row = target_after.row + (drow > 0) - (drow < 0)
    col = target_after.col + (dcol > 0) - (dcol < 0)
    n = final.grid_size
    return not (0 <= row < n and 0 <= col < n) or (row, col) in final.blockers
