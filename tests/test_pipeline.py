import random
from dataclasses import replace

import pytest

from conftest import trace_cells
from mannerforge.dsl import apply_program, ground, parse_program
from mannerforge.errors import AmbiguousReferent, ConfigError, NoReferent, UnknownAdverb
from mannerforge.metagrammar import (
    CAUTIOUSLY_TYPE,
    DETOUR_TYPE,
    SPINNING_TYPE,
    MetaGrammarConfig,
    sample_program,
    sample_registry,
)
from mannerforge.pipeline import (
    BUILTIN_SURFACES,
    Lexicon,
    Percept,
    Plan,
    canonical_allo_plan,
    goal_satisfied,
    perceive,
    plan_interaction,
    plan_navigation,
    solve,
    solve_trace,
    transform,
    zigzag_allo_plan,
)
from mannerforge.symbols import parse_symbols
from mannerforge.world import (
    Command,
    GridObject,
    Position,
    WorldState,
    execute,
    sample_situation,
)

SPIN = "turn_left turn_left turn_left turn_left"
CAUTIOUS = "turn_left turn_right turn_right turn_left"


def make_world(agent=(3, 2), heading="east", objects=None, target=0, size=6):
    objects = objects or [GridObject("circle", "red", 2, Position(1, 1))]
    return WorldState(
        grid_size=size,
        agent_position=Position(*agent),
        agent_heading=heading,
        objects=tuple(objects),
        target_index=target,
    )


FIG_PERCEPT = Percept(Position(3, 2), "east", Position(1, 1))


class TestPerceive:
    def test_fields_extracted(self):
        world = make_world()
        cmd = Command("push", "circle", adverb=("cautiously",))
        assert perceive(cmd, world) == FIG_PERCEPT

    def test_agent_on_target(self):
        world = make_world(agent=(1, 1))
        percept = perceive(Command("walk", "circle"), world)
        assert percept.agent_position == percept.target_position

    def test_ambiguity_propagates(self):
        objects = [
            GridObject("circle", "red", 2, Position(1, 1)),
            GridObject("circle", "blue", 2, Position(2, 2)),
        ]
        world = make_world(objects=objects)
        with pytest.raises(AmbiguousReferent):
            perceive(Command("walk", "circle", size_adj="small"), world)

    def test_referent_must_be_the_target(self):
        objects = [
            GridObject("circle", "red", 2, Position(1, 1)),
            GridObject("square", "blue", 2, Position(4, 4)),
        ]
        command = Command("walk", "square")
        with pytest.raises(NoReferent, match="^'walk to a square' names object 1, not the world's target, object 0$"):
            perceive(command, make_world(objects=objects))
        assert perceive(command, make_world(objects=objects, target=1)).target_position == Position(4, 4)


class TestPlanNavigation:
    def test_allocentric_for_spinning(self, builtins):
        plan = plan_navigation(FIG_PERCEPT, builtins["while spinning"])
        assert plan == Plan("allocentric", ("North", "North", "West"))

    def test_egocentric_without_adverb(self):
        plan = plan_navigation(FIG_PERCEPT, None)
        assert plan == Plan("egocentric", parse_symbols("turn_left walk walk turn_left walk"))

    def test_zigzag_plan_and_grounding(self, builtins):
        plan = plan_navigation(FIG_PERCEPT, builtins["while zigzagging"])
        assert plan == Plan("allocentric", ("North", "West", "North"))
        assert ground(plan.symbols, "east") == (
            parse_symbols("turn_left walk turn_left walk turn_right walk"), "north"
        )

    def test_agent_at_target_gives_empty_plan(self):
        percept = Percept(Position(2, 2), "north", Position(2, 2))
        assert plan_navigation(percept, None).symbols == ()

    def test_egocentric_manners_get_egocentric_plans(self, builtins):
        for name in ("cautiously", "hesitantly"):
            plan = plan_navigation(FIG_PERCEPT, builtins[name])
            assert plan.mode == "egocentric"

    def test_zigzag_and_canonical_agree_on_length_and_endpoint(self):
        from mannerforge.symbols import displacement

        rng = random.Random(13)
        for _ in range(300):
            drow = rng.randint(-5, 5)
            dcol = rng.randint(-5, 5)
            canonical = canonical_allo_plan(drow, dcol)
            zigzag = zigzag_allo_plan(drow, dcol)
            assert len(canonical) == len(zigzag) == abs(drow) + abs(dcol)
            assert displacement(canonical, "north") == (drow, dcol)
            assert displacement(zigzag, "north") == (drow, dcol)

    def test_canonical_plan_length_is_manhattan(self):
        rng = random.Random(14)
        for _ in range(200):
            a = Position(rng.randint(0, 5), rng.randint(0, 5))
            t = Position(rng.randint(0, 5), rng.randint(0, 5))
            percept = Percept(a, "north", t)
            plan = plan_navigation(percept, None)
            grounded_walks = sum(1 for s in plan.symbols if s == "walk")
            assert grounded_walks == abs(a.row - t.row) + abs(a.col - t.col)


@pytest.mark.parametrize("mode, symbol", [("egocentric", "North"), ("allocentric", "walk")])
def test_plan_refuses_a_symbol_outside_its_mode(mode, symbol):
    with pytest.raises(ConfigError) as err:
        Plan(mode, (symbol,))
    assert str(err.value) == f"{mode} plan cannot contain {symbol!r}"


class TestPlanInteraction:
    def test_walk_needs_no_interaction(self):
        world = make_world()
        cmd = Command("walk", "circle")
        assert plan_interaction(FIG_PERCEPT, world, cmd, "west") == ()

    def test_push_once_when_wall_adjacent(self):
        world = make_world(agent=(1, 1), heading="west")
        cmd = Command("push", "circle")
        assert plan_interaction(FIG_PERCEPT, world, cmd, "west") == ("push",)

    def test_pull_heavy_doubles_actions(self):
        # target at (1,1), arrival west: pulling moves east, two free cells
        # (1,2) and (1,3) before a blocker at (1,4)
        objects = [
            GridObject("circle", "red", 3, Position(1, 1)),
            GridObject("square", "blue", 1, Position(1, 4)),
        ]
        world = make_world(objects=objects)
        cmd = Command("pull", "circle")
        percept = Percept(Position(3, 2), "east", Position(1, 1))
        assert plan_interaction(percept, world, cmd, "west") == ("pull",) * 4

    def test_push_count_stops_at_obstacle(self):
        objects = [
            GridObject("circle", "red", 1, Position(1, 3)),
            GridObject("square", "blue", 1, Position(1, 0)),
        ]
        world = make_world(objects=objects)
        cmd = Command("push", "circle")
        percept = Percept(Position(3, 3), "east", Position(1, 3))
        assert plan_interaction(percept, world, cmd, "west") == ("push", "push")


class TestTransform:
    def test_spinning_end_to_end(self, builtins):
        plan = Plan("allocentric", parse_symbols("North North West West"))
        out = transform(plan.symbols, builtins["while spinning"], start="east")
        assert out == (
            parse_symbols(f"{SPIN} turn_left walk {SPIN} walk {SPIN} turn_left walk {SPIN} walk"), "west"
        )

    def test_cautious_sequence(self, builtins):
        plan = Plan("egocentric", parse_symbols("turn_left walk walk turn_left walk walk"))
        out = transform(plan.symbols, builtins["cautiously"], start="east")
        assert out == (
            parse_symbols(f"turn_left {CAUTIOUS} walk {CAUTIOUS} walk turn_left {CAUTIOUS} walk {CAUTIOUS} walk"),
            "west",
        )

    def test_no_adverb_appends_interactions_unchanged(self):
        plan = Plan("egocentric", parse_symbols("walk walk"))
        assert transform(plan.symbols + ("push",), None, start="north") == (
            parse_symbols("walk walk push"), "north"
        )

    def test_allocentric_plan_without_adverb_is_grounded(self):
        plan = Plan("allocentric", ("North",))
        assert transform(plan.symbols, None, start="east") == (("turn_left", "walk"), "north")


class TestLexicon:
    def test_surfaces_list_builtins_then_registry_in_slot_order(self):
        registry = sample_registry(random.Random(2), 6)
        lexicon = Lexicon.build(registry)
        assert lexicon.registry == tuple(registry)
        assert lexicon.surfaces() == BUILTIN_SURFACES + tuple(p.surface for p in registry)

    @pytest.mark.parametrize("reused", ["builtin", "earlier"])
    def test_reused_surface_rejected(self, reused):
        registry = sample_registry(random.Random(2), 3)
        name = ("cautiously",) if reused == "builtin" else registry[0].name
        clash = replace(registry[2], name=name)
        with pytest.raises(ValueError, match="already registered"):
            Lexicon.build([*registry[:2], clash])


class TestSolve:
    def test_forced_single_step(self):
        world = make_world(agent=(2, 1), heading="north")
        assert solve(Command("walk", "circle"), world) == ("walk",)

    def test_cautious_push_ends_with_guarded_push(self):
        # target adjacent to the west wall: one push suffices
        world = make_world(agent=(3, 2), heading="east")
        out = solve(Command("push", "circle", adverb=("cautiously",)), world)
        assert out[-5:] == parse_symbols(f"{CAUTIOUS} push")
        assert goal_satisfied("push", world, execute(world, out))

    def test_unknown_adverb(self):
        world = make_world()
        with pytest.raises(UnknownAdverb):
            solve(Command("walk", "circle", adverb=("backwards",)), world)

    def test_deterministic(self):
        world = make_world()
        cmd = Command("pull", "circle", adverb=("while", "spinning"))
        assert solve(cmd, world) == solve(cmd, world)

    def test_detour_keeps_push_goal(self):
        # The detour leaves the agent facing south on arrival, so the object
        # is pushed south, and the push count must match that direction.
        program = parse_program(
            "name: while wandering\nmode: allocentric\n"
            "East -> North East South\n"
        )
        lexicon = Lexicon.build([program])
        world = make_world(
            agent=(2, 1), heading="east",
            objects=[GridObject("circle", "red", 1, Position(2, 3))],
        )
        cmd = Command("push", "circle", adverb=("while", "wandering"))
        out = solve(cmd, world, lexicon)
        final = execute(world, out)
        assert goal_satisfied("push", world, final)
        assert final.target.position == Position(world.grid_size - 1, 3)

    def test_plan_and_interactions_are_rewritten_apart(self):
        # The plan and the interactions are transformed one after the other, symbol
        # by symbol through the program's table, and the target is still the
        # transform of the two joined.  Each table entry the solve filled is its
        # symbol rewritten by the whole program, then grounded from its heading.
        wander = parse_program("name: while wandering\nmode: allocentric\nEast -> North East South\n")
        lexicon = Lexicon.build([wander])
        world = make_world(agent=(2, 1), heading="east",
                           objects=[GridObject("circle", "red", 1, Position(2, 3))])
        for surface in lexicon.surfaces():
            program = lexicon.lookup(surface)
            program.table.clear()
            trace = solve_trace(Command("push", "circle", adverb=tuple(surface.split())), world, lexicon)
            assert trace.interactions
            joined = trace.plan.symbols + trace.interactions
            assert trace.target == transform(joined, program, world.agent_heading)[0]
            assert {s for _, s in program.table} == set(joined)
            for (h, s), (after, actions) in program.table.items():
                assert (actions, after) == ground(apply_program(program, (s,)), h)

    def test_solved_commands_execute_and_satisfy_goals(self):
        cfg = MetaGrammarConfig()
        rng = random.Random(21)
        extra = [
            sample_program(rng, t, cfg)
            for t in (SPINNING_TYPE, CAUTIOUSLY_TYPE, DETOUR_TYPE)
            for _ in range(4)
        ]
        lexicon = Lexicon.build(extra)
        surfaces = lexicon.surfaces()
        solved = 0
        attempts = 0
        while solved < 500 and attempts < 5000:
            attempts += 1
            world, (size_adj, color) = sample_situation(rng, 6, (0, 2))
            verb = rng.choice(("walk", "push", "pull"))
            surface = rng.choice(surfaces) if rng.random() > 0.2 else None
            cmd = Command(verb, world.target.shape, color=color, size_adj=size_adj,
                          adverb=tuple(surface.split()) if surface else None)
            try:
                out = solve(cmd, world, lexicon)
                final = execute(world, out)
            except Exception:
                continue  # detours may leave the grid; the forge resamples these
            assert goal_satisfied(verb, world, final)
            solved += 1
        assert solved == 500


class TestMannerConservativity:
    def within_cell_cases(self, builtins):
        rng = random.Random(31)
        cfg = MetaGrammarConfig()
        programs = [builtins["while spinning"], builtins["cautiously"], builtins["hesitantly"]]
        programs += [sample_program(rng, SPINNING_TYPE, cfg) for _ in range(5)]
        programs += [sample_program(rng, CAUTIOUSLY_TYPE, cfg) for _ in range(5)]
        return rng, programs

    def test_within_cell_manners_preserve_trajectories(self, builtins):
        rng, programs = self.within_cell_cases(builtins)
        checked = 0
        while checked < 300:
            world, (size_adj, color) = sample_situation(rng, 6, (0, 1))
            verb = rng.choice(("walk", "push", "pull"))
            program = rng.choice(programs)
            plain_cmd = Command(verb, world.target.shape, color=color, size_adj=size_adj)
            manner_cmd = Command(verb, world.target.shape, color=color, size_adj=size_adj,
                                 adverb=program.name)
            lexicon = Lexicon.build([program]) if program.surface not in (
                "while spinning", "cautiously", "hesitantly", "while zigzagging"
            ) else None
            plain = solve(plain_cmd, world, lexicon)
            mannered = solve(manner_cmd, world, lexicon)
            start = (world.agent_position.row, world.agent_position.col)
            assert trace_cells(mannered, start, world.agent_heading) == trace_cells(
                plain, start, world.agent_heading
            )
            assert execute(world, mannered) == execute(world, plain)
            checked += 1
