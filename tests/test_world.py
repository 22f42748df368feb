import random
import re

import pytest

from conftest import reference_sample_situation
from mannerforge import world as world_module
from mannerforge.errors import (
    AlloSymbolPresent,
    AmbiguousReferent,
    Blocked,
    ConfigError,
    ExhaustedRetries,
    IllegalInteraction,
    NoReferent,
    OutOfBounds,
)
from mannerforge.world import (
    COLORS,
    SHAPES,
    SIZE_ADJECTIVES,
    VERBS,
    Command,
    GridObject,
    Position,
    WorldState,
    execute,
    parse_command,
    render_world,
    resolve_target,
    sample_situation,
    world_from_dict,
    world_to_dict,
)


def make_world(agent=(3, 2), heading="east", objects=None, target=0, size=6):
    objects = objects or [GridObject("circle", "red", 2, Position(1, 1))]
    return WorldState(
        grid_size=size,
        agent_position=Position(*agent),
        agent_heading=heading,
        objects=tuple(objects),
        target_index=target,
    )


class TestExecute:
    def test_walk_and_turn_hand_trace(self):
        # turn_left faces north, two walks to (1,2), turn_left faces west, walk to (1,1)
        world = make_world(agent=(3, 2), heading="east")
        actions = ("turn_left", "walk", "walk", "turn_left", "walk")
        final = execute(world, actions)
        assert final.agent_position == Position(1, 1)
        assert final.agent_heading == "west"
        assert final.objects == world.objects
        assert [execute(world, actions[:k]).agent_position for k in range(len(actions) + 1)] == [
            Position(3, 2),
            Position(3, 2),
            Position(2, 2),
            Position(1, 2),
            Position(1, 2),
            Position(1, 1),
        ]

    def test_empty_sequence_is_identity(self):
        world = make_world()
        assert execute(world, ()) == world

    def test_push_light_object_one_cell(self):
        world = make_world(agent=(1, 1), heading="west")
        final = execute(world, ("push",))
        assert final.agent_position == Position(1, 0)
        assert final.target.position == Position(1, 0)

    def test_pull_moves_against_heading(self):
        world = make_world(agent=(1, 1), heading="west")
        final = execute(world, ("pull",))
        assert final.target.position == Position(1, 2)
        assert final.agent_position == Position(1, 2)

    def test_heavy_object_needs_a_pair(self):
        heavy = [GridObject("square", "blue", 4, Position(2, 2))]
        world = make_world(agent=(2, 2), heading="east", objects=heavy)
        one = execute(world, ("push",))
        assert one.target.position == Position(2, 2)
        two = execute(world, ("push", "push"))
        assert two.target.position == Position(2, 3)

    def test_heavy_pair_survives_turns_and_stay(self):
        # A manner may spin or pause between the two pushes of a pair.
        heavy = [GridObject("square", "blue", 3, Position(2, 2))]
        world = make_world(agent=(2, 2), heading="east", objects=heavy)
        spun = execute(world, ("push", "turn_left", "turn_left", "turn_left", "turn_left", "push"))
        assert spun.target.position == Position(2, 3)
        paused = execute(world, ("push", "stay", "push"))
        assert paused.target.position == Position(2, 3)

    def test_heavy_pair_reset_by_opposite_interaction(self):
        heavy = [GridObject("square", "blue", 3, Position(2, 2))]
        world = make_world(agent=(2, 2), heading="east", objects=heavy)
        final = execute(world, ("push", "pull", "push"))
        assert final.target.position == Position(2, 2)

    def test_walk_out_of_bounds(self):
        world = make_world(agent=(0, 0), heading="north")
        with pytest.raises(OutOfBounds):
            execute(world, ("walk",))

    def test_push_into_wall(self):
        world = make_world(agent=(1, 0), heading="west",
                           objects=[GridObject("circle", "red", 1, Position(1, 0))])
        with pytest.raises(OutOfBounds):
            execute(world, ("push",))

    def test_push_into_occupied_cell(self):
        objects = [
            GridObject("circle", "red", 1, Position(1, 1)),
            GridObject("square", "blue", 2, Position(1, 0)),
        ]
        world = make_world(agent=(1, 1), heading="west", objects=objects)
        with pytest.raises(Blocked):
            execute(world, ("push",))

    def test_interaction_off_target_cell(self):
        world = make_world(agent=(3, 2), heading="east")
        with pytest.raises(IllegalInteraction):
            execute(world, ("push",))

    def test_allocentric_symbol_rejected(self):
        world = make_world()
        with pytest.raises(AlloSymbolPresent):
            execute(world, ("North",))

    def test_net_displacement_sums_per_action(self):
        rng = random.Random(9)
        for _ in range(100):
            world = make_world(agent=(3, 3), heading=rng.choice(("north", "east", "south", "west")),
                               size=8)
            actions = [rng.choice(("walk", "turn_left", "turn_right", "stay")) for _ in range(6)]
            try:
                end = execute(world, actions).agent_position
            except OutOfBounds:
                continue
            start = world.agent_position
            from mannerforge.symbols import displacement
            assert (end.row - start.row, end.col - start.col) == displacement(
                actions, world.agent_heading
            )


class TestResolveTarget:
    def test_unique_shape(self):
        world = make_world()
        assert resolve_target(Command("walk", "circle"), world) == 0

    def test_small_selects_minimum_size(self):
        objects = [
            GridObject("circle", "red", 4, Position(1, 1)),
            GridObject("circle", "blue", 2, Position(2, 2)),
        ]
        world = make_world(objects=objects, target=1)
        assert resolve_target(Command("walk", "circle", size_adj="small"), world) == 1
        assert resolve_target(Command("walk", "circle", size_adj="big"), world) == 0

    def test_no_referent(self):
        world = make_world()
        with pytest.raises(NoReferent):
            resolve_target(Command("walk", "square", color="yellow"), world)

    def test_ambiguous_referent(self):
        objects = [
            GridObject("circle", "red", 2, Position(1, 1)),
            GridObject("circle", "red", 2, Position(2, 2)),
        ]
        world = make_world(objects=objects)
        with pytest.raises(AmbiguousReferent):
            resolve_target(Command("walk", "circle"), world)
        with pytest.raises(AmbiguousReferent):
            resolve_target(Command("walk", "circle", size_adj="small"), world)

    def test_permutation_invariant(self):
        objects = [
            GridObject("circle", "red", 1, Position(0, 0)),
            GridObject("square", "red", 2, Position(2, 2)),
            GridObject("circle", "blue", 3, Position(4, 4)),
        ]
        world = make_world(objects=objects, target=1)
        cmd = Command("push", "square")
        direct = world.objects[resolve_target(cmd, world)]
        shuffled = make_world(objects=objects[::-1], target=1)
        assert shuffled.objects[resolve_target(cmd, shuffled)] == direct


class TestSampleSituation:
    def test_deterministic(self):
        a = sample_situation(random.Random(5))
        b = sample_situation(random.Random(5))
        assert a == b

    def test_phrase_resolves_to_target(self):
        for seed in range(300):
            world, (size_adj, color) = sample_situation(random.Random(seed), 6, (0, 3))
            command = Command("walk", world.target.shape, color, size_adj)
            assert resolve_target(command, world) == world.target_index
            assert world.agent_position != world.target.position

    def test_no_distractors_yields_bare_shape_phrase(self):
        world, modifiers = sample_situation(random.Random(1), 6, (0, 0))
        assert len(world.objects) == 1
        assert modifiers == (None, None)

    def test_exhausted_retries(self):
        with pytest.raises(ExhaustedRetries):
            sample_situation(random.Random(0), 2, (5, 5))

    # (0, 12) and (5, 9) ask for more distractors than a small grid has free
    # cells, so those attempts are drawn and thrown away.
    DISTRACTOR_RANGES = [(0, 0), (0, 3), (2, 5), (0, 12), (5, 9)]

    @pytest.mark.parametrize("distractors", DISTRACTOR_RANGES)
    @pytest.mark.parametrize("grid_size", range(2, 9))
    def test_same_worlds_as_the_reference_sampler(self, grid_size, distractors):
        # The same world and phrase, or the same ExhaustedRetries, and the generator
        # left in the same state: 400 seeds a range, 2000 a grid size.
        first = 400 * self.DISTRACTOR_RANGES.index(distractors)
        for seed in range(first, first + 400):
            expected_rng, rng = random.Random(seed), random.Random(seed)
            try:
                expected = reference_sample_situation(expected_rng, grid_size, distractors)
            except ExhaustedRetries:
                with pytest.raises(ExhaustedRetries):
                    sample_situation(rng, grid_size, distractors)
            else:
                assert sample_situation(rng, grid_size, distractors) == expected
            assert rng.getstate() == expected_rng.getstate()

    @pytest.mark.parametrize("distractors", [(3, 2), (-1, 2)])
    def test_distractor_range_is_checked(self, distractors):
        with pytest.raises(ValueError, match=re.escape(f"distractors must be [min, max] with 0 <= min <= max, not {distractors!r}")):
            sample_situation(random.Random(0), 6, distractors)


class TestCommandSurface:
    def test_walk_surface_form(self):
        cmd = Command("walk", "circle", color="red", size_adj="small",
                      adverb=("while", "spinning"))
        assert cmd.tokens() == ("walk", "to", "a", "small", "red", "circle", "while", "spinning")

    def test_push_surface_form(self):
        assert Command("push", "circle", adverb=("cautiously",)).tokens() == (
            "push", "a", "circle", "cautiously")

    def test_parse_round_trip(self):
        for cmd in (
            Command("walk", "circle"),
            Command("push", "square", color="blue"),
            Command("pull", "cylinder", size_adj="big", adverb=("hesitantly",)),
            Command("walk", "circle", color="red", size_adj="small", adverb=("while", "spinning")),
        ):
            assert parse_command(cmd.tokens()) == cmd

    @pytest.mark.parametrize("verb", VERBS)
    def test_every_command_round_trips(self, verb):
        # Every verb, size adjective, color and shape, each optional modifier absent or
        # present, and no adverb or one of one or two tokens.
        for size_adj in (None, *SIZE_ADJECTIVES):
            for color in (None, *COLORS):
                for shape in SHAPES:
                    for adverb in (None, ("cautiously",), ("while", "spinning")):
                        cmd = Command(verb, shape, color, size_adj, adverb)
                        assert parse_command(cmd.tokens()) == cmd

    @pytest.mark.parametrize("tokens", [[], [None], [["walk"], "to", "a", "circle"], ("walk", "to", "a")],
                             ids=["empty", "None", "list verb", "no noun"])
    def test_parse_refuses_with_config_error(self, tokens):
        # Never a TypeError, though a list as the first token cannot be hashed.
        with pytest.raises(ConfigError):
            parse_command(tokens)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_command(("jump", "a", "circle"))
        with pytest.raises(ValueError):
            parse_command(("walk", "a", "circle"))
        with pytest.raises(ValueError):
            parse_command(("push", "a", "somethingelse"))


@pytest.mark.parametrize("build, message", [
    (lambda: make_world(size=1), "grid_size must be at least 2"),
    (lambda: make_world(target=1), "target_index 1 out of range"),
    (lambda: Command("jump", "circle"), "unknown verb: 'jump'"),
    (lambda: Command("walk", "circle", size_adj="huge"), "unknown size adjective: 'huge'"),
    (lambda: parse_command(("push", "circle")), "command ['push', 'circle'] does not begin 'push a'"),
    (lambda: sample_situation(random.Random(0), 1), "grid_size must be at least 2"),
], ids=["world grid_size", "target_index", "verb", "size_adj", "article", "sampled grid_size"])
def test_constructors_name_the_fault(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


class TestWorldState:
    def test_rejects_shared_cells(self):
        objects = [
            GridObject("circle", "red", 1, Position(1, 1)),
            GridObject("square", "red", 2, Position(1, 1)),
        ]
        with pytest.raises(ValueError):
            make_world(objects=objects)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            make_world(agent=(9, 0))
        with pytest.raises(ValueError):
            make_world(objects=[GridObject("circle", "red", 1, Position(7, 0))])

    def test_serialization_round_trip(self):
        world, _ = sample_situation(random.Random(12), 6, (2, 3))
        assert world_from_dict(world_to_dict(world)) == world

    def test_world_from_dict_takes_keys_in_any_order(self):
        world, _ = sample_situation(random.Random(12), 6, (2, 3))
        data = world_to_dict(world)
        flipped = {key: data[key] for key in reversed(data)}
        flipped["agent"] = dict(reversed(data["agent"].items()))
        flipped["objects"] = [dict(reversed(o.items())) for o in data["objects"]]
        assert world_from_dict(flipped) == world

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["objects"][0].update(shape="triangle"), "objects[0].shape must be one of"),
            (lambda d: d["objects"][1].update(color="purple"), "objects[1].color must be one of"),
            (lambda d: d["objects"][0].update(size=9), "objects[0].size must be one of"),
            (lambda d: d["objects"][0].update(size="3"), "objects[0].size must be one of"),
            (lambda d: d["objects"][0].update(size=3.9), "objects[0].size must be one of"),
            (lambda d: d["objects"][0].update(size=True), "objects[0].size must be one of"),
            (lambda d: d["objects"][1].update(row=1.0), "objects[1].row must be an integer"),
            (lambda d: d["objects"][0].update(col=False), "objects[0].col must be an integer"),
            (lambda d: d["agent"].update(row=1.0), "agent.row must be an integer"),
            (lambda d: d["agent"].update(col=True), "agent.col must be an integer"),
            (lambda d: d["agent"].update(heading="up"), "agent.heading must be one of"),
            (lambda d: d.update(grid_size=6.0), "grid_size must be an integer"),
            (lambda d: d.update(target_index=False), "target_index must be an integer"),
            (lambda d: d.update(extra=1), "unknown world key extra"),
            (lambda d: d["agent"].update(facing="north"), "unknown world key agent.facing"),
            (lambda d: d["objects"][1].update(weight=2), "unknown world key objects[1].weight"),
            (lambda d: d.pop("target_index"), "missing world key target_index"),
            (lambda d: d["agent"].pop("heading"), "missing world key agent.heading"),
            (lambda d: d["objects"][0].pop("color"), "missing world key objects[0].color"),
            (lambda d: d.update(agent=[2, 3]), "agent must be an object"),
            (lambda d: d.update(objects={}), "objects must be a list"),
            (lambda d: d["objects"].__setitem__(0, "circle"), "objects[0] must be an object"),
        ],
    )
    def test_world_from_dict_rejects_bad_values(self, edit, message):
        world, _ = sample_situation(random.Random(12), 6, (2, 3))
        data = world_to_dict(world)
        assert len(data["objects"]) >= 2
        edit(data)
        with pytest.raises(ValueError, match=re.escape(message)):
            world_from_dict(data)

    @staticmethod
    def one_object_world(agent=None, **changes):
        obj = {"shape": "circle", "color": "red", "size": 1, "row": 1, "col": 1, **changes}
        agent = agent or {"row": 0, "col": 0, "heading": "east"}
        return {"grid_size": 6, "agent": agent, "target_index": 0, "objects": [obj]}

    @pytest.mark.parametrize("bad_first", [False, True])
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"row": True}, "objects[0].row must be an integer, not True"),
            ({"size": True}, "objects[0].size must be one of (1, 2, 3, 4), not True"),
            ({"col": 1.0}, "objects[0].col must be an integer, not 1.0"),
            ({"agent": {"row": True, "col": 0, "heading": "east"}}, "agent.row must be an integer, not True"),
        ],
    )
    def test_interned_values_keep_their_types(self, changes, message, bad_first):
        # Worlds share their cells and objects, and True == 1 == 1.0: a bad world
        # must still be refused, and a good one must never get a bad one's values.
        world_module._cell.cache_clear()  # so that the first world decoded fills them
        world_module._object.cache_clear()

        def decode_bad():
            with pytest.raises(ConfigError) as err:
                world_from_dict(self.one_object_world(**changes))
            assert str(err.value) == message

        if bad_first:
            decode_bad()
        world = world_from_dict(self.one_object_world())
        if not bad_first:
            decode_bad()
        for decoded in (world, world_from_dict(self.one_object_world())):
            obj, agent = decoded.objects[0], decoded.agent_position
            assert list(map(type, (obj.size, obj.position.row, obj.position.col, agent.row, agent.col))) == [int] * 5

    def test_decoded_worlds_share_cells_and_objects(self):
        a = world_from_dict(self.one_object_world())
        b = world_from_dict(self.one_object_world(agent={"row": 0, "col": 0, "heading": "west"}))
        assert a.objects[0] is b.objects[0]
        assert a.agent_position is b.agent_position
        pushed = execute(make_world(agent=(1, 1), heading="east", objects=[a.objects[0]]), ["push"])
        assert pushed.target is world_from_dict(self.one_object_world(col=2)).objects[0]
        assert pushed.agent_position is pushed.target.position
        for cache in (world_module._cell, world_module._object):
            assert type(cache.cache_parameters()["maxsize"]) is int

    def test_render_shows_agent_and_target(self):
        world = make_world(agent=(3, 2), heading="east")
        art = render_world(world)
        assert ">" in art
        assert "RC2" in art
