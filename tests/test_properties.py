"""Property tests against code that shares nothing with the package's compass
table: conftest's own turn cycles, delta table and cell tracer."""
import json
import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mannerforge.forge as forge_module
from conftest import (
    _DELTAS,
    TURN_LEFT_CYCLE,
    TURN_RIGHT_CYCLE,
    generate_pairs,
    module_records,
    reference_lines,
    trace_cells,
)
from mannerforge.dsl import (
    AdverbProgram,
    RewriteRule,
    apply_program,
    builtin_adverbs,
    ground,
    parse_program,
    serialize_program,
)
from mannerforge.errors import ConfigError, DepthExceeded, MannerforgeError, OutOfBounds
from mannerforge.forge import (
    RECORD_FILES,
    Example,
    ForgeConfig,
    SplitSpec,
    _percept_json,
    _serialize,
    _situation_json,
    _symbols,
    example_from_record,
    forge_dataset,
)
from mannerforge.metagrammar import (
    ADVERB_TYPES,
    CAUTIOUSLY_TYPE,
    DETOUR_TYPE,
    SPINNING_TYPE,
    MetaGrammarConfig,
    sample_program,
    sample_registry,
)
from mannerforge.pipeline import Lexicon, Percept, Plan, SolveTrace, goal_satisfied, solve_trace, transform
from mannerforge.symbols import ALL_SYMBOLS, EGO_SYMBOLS, STEP
from mannerforge.world import (
    COLORS,
    SHAPES,
    SIZE_ADJECTIVES,
    SIZES,
    VERBS,
    GridObject,
    Position,
    WorldState,
    execute,
    parse_command,
    sample_situation,
    world_to_dict,
)

HEADINGS = sorted(_DELTAS)
PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _expected_step(heading, symbol):
    if symbol in ("North", "South", "East", "West"):
        return (symbol.lower(),) + _DELTAS[symbol.lower()]
    if symbol == "turn_left":
        return TURN_LEFT_CYCLE[heading], 0, 0
    if symbol == "turn_right":
        return TURN_RIGHT_CYCLE[heading], 0, 0
    dr, dc = _DELTAS[heading]
    if symbol in ("walk", "push"):
        return heading, dr, dc
    if symbol == "pull":
        return heading, -dr, -dc
    assert symbol == "stay"
    return heading, 0, 0


@pytest.mark.parametrize("heading", HEADINGS)
@pytest.mark.parametrize("symbol", sorted(ALL_SYMBOLS))
def test_step_matches_independent_compass(heading, symbol):
    assert STEP[heading, symbol] == _expected_step(heading, symbol)


def test_step_covers_every_heading_and_symbol():
    assert set(STEP) == {(h, s) for h in HEADINGS for s in ALL_SYMBOLS}


GRID = 7
cells = st.tuples(st.integers(0, GRID - 1), st.integers(0, GRID - 1))


def _heading_after(sequence, heading):
    for symbol in sequence:
        if symbol == "turn_left":
            heading = TURN_LEFT_CYCLE[heading]
        elif symbol == "turn_right":
            heading = TURN_RIGHT_CYCLE[heading]
    return heading


def _check_against_tracer(world, sequence):
    """The worlds that executing each prefix of `sequence` leaves, each checked
    against the tracer: OutOfBounds exactly when the traced path leaves the
    grid, else the traced end cell and heading.  None for a prefix that raised."""
    start = (world.agent_position.row, world.agent_position.col)
    finals = []
    for k in range(len(sequence) + 1):
        expected = trace_cells(sequence[:k], start=start, heading=world.agent_heading)
        if not all(0 <= r < GRID and 0 <= c < GRID for r, c in expected):
            with pytest.raises(OutOfBounds):
                execute(world, sequence[:k])
            finals.append(None)
            continue
        final = execute(world, sequence[:k])
        assert (final.agent_position.row, final.agent_position.col) == expected[-1]
        assert final.agent_heading == _heading_after(sequence[:k], world.agent_heading)
        finals.append(final)
    return finals


@PROPERTY_SETTINGS
@given(
    start=cells,
    target=cells,
    heading=st.sampled_from(HEADINGS),
    sequence=st.lists(st.sampled_from(["walk", "turn_left", "turn_right", "stay"]), max_size=14),
)
def test_execute_walking_agrees_with_tracer(start, target, heading, sequence):
    world = WorldState(
        grid_size=GRID,
        agent_position=Position(*start),
        agent_heading=heading,
        objects=(GridObject("circle", "red", 1, Position(*target)),),
        target_index=0,
    )
    for final in _check_against_tracer(world, sequence):
        if final is not None:
            assert final.target.position == Position(*target)


@PROPERTY_SETTINGS
@given(
    start=cells,
    heading=st.sampled_from(HEADINGS),
    sequence=st.lists(
        st.sampled_from(["push", "pull", "turn_left", "turn_right", "stay"]), max_size=14
    ),
)
def test_execute_interaction_agrees_with_tracer(start, heading, sequence):
    # A light object under the agent moves with it on every push and pull.
    world = WorldState(
        grid_size=GRID,
        agent_position=Position(*start),
        agent_heading=heading,
        objects=(GridObject("square", "blue", 1, Position(*start)),),
        target_index=0,
    )
    for final in _check_against_tracer(world, sequence):
        if final is not None:
            assert final.target.position == final.agent_position


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    adverb_type=st.sampled_from([SPINNING_TYPE, CAUTIOUSLY_TYPE, DETOUR_TYPE]),
)
def test_sampled_program_text_round_trips(seed, adverb_type):
    program = sample_program(random.Random(seed), adverb_type, MetaGrammarConfig())
    assert parse_program(serialize_program(program)) == program


@st.composite
def programs(draw):
    mode = draw(st.sampled_from(["egocentric", "allocentric"]))
    lhs_pool = sorted(EGO_SYMBOLS if mode == "egocentric" else ALL_SYMBOLS)
    lhs = draw(st.lists(st.sampled_from(lhs_pool), unique=True, max_size=len(lhs_pool)))
    plan_shape = draw(st.sampled_from(["canonical", "zigzag"]))
    allo = ["North", "South", "East", "West"]
    if mode == "allocentric" and plan_shape == "canonical" and not set(lhs) & set(allo):
        lhs.append(draw(st.sampled_from(allo)))
    rhs = st.lists(st.sampled_from(sorted(ALL_SYMBOLS)), min_size=1, max_size=6)
    name = draw(st.lists(st.sampled_from(["while", "glim", "slowly", "a"]), min_size=1, max_size=3))
    return AdverbProgram(
        name=tuple(name),
        rules=frozenset(RewriteRule(s, tuple(draw(rhs))) for s in lhs),
        mode=mode,
        passes=draw(st.integers(1, 4)),
        plan_shape=plan_shape,
    )


@PROPERTY_SETTINGS
@given(program=programs())
def test_arbitrary_program_text_round_trips(program):
    assert parse_program(serialize_program(program)) == program


PINNED_3_PASS = parse_program(
    "name: in loops\nmode: allocentric\npasses: 3\nNorth -> turn_left North\n"
    "West -> turn_right turn_right West\npush -> turn_left turn_right push\n"
)
# Sampled programs of each samplable type, the built-ins, a pinned 3-pass program,
# and arbitrary ones.  The built-ins and the pinned program are shared between
# examples, so their tables are checked both fresh and filled.
TABLE_PROGRAMS = st.one_of(
    st.builds(
        lambda seed, adverb_type: sample_program(random.Random(seed), adverb_type, MetaGrammarConfig()),
        st.integers(0, 2**32 - 1),
        st.sampled_from([SPINNING_TYPE, CAUTIOUSLY_TYPE, DETOUR_TYPE]),
    ),
    st.sampled_from([*builtin_adverbs(), PINNED_3_PASS]),
    programs(),
)


@PROPERTY_SETTINGS
@given(
    program=TABLE_PROGRAMS,
    sequence=st.lists(st.sampled_from([*sorted(ALL_SYMBOLS), "hop"]), max_size=12),
    heading=st.sampled_from(HEADINGS),
    max_depth=st.integers(0, 5),
)
def test_transform_is_ground_of_apply_program(program, sequence, heading, max_depth):
    # The one fold over the program's table against rewriting the whole sequence,
    # then grounding it; a refusal ("hop" is no symbol, max_depth 0, or fewer
    # passes allowed than the program needs) keeps its class and message.
    try:
        expected = ground(apply_program(program, sequence, max_depth), heading)
    except MannerforgeError as exc:
        with pytest.raises(MannerforgeError) as err:
            transform(sequence, program, heading, max_depth)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
    else:
        assert transform(sequence, program, heading, max_depth) == expected


@pytest.mark.parametrize("sequence, heading, max_depth, error, message", [
    (("North", "push"), "east", 2, DepthExceeded, "program 'in loops' needs 3 passes, depth limit 2"),
    (("North", "push"), "east", 0, ConfigError, "max_depth must be at least 1"),
    (("North", "hop", "push"), "east", 3, ConfigError, "unknown action symbol: 'hop'"),
    ((), "up", 3, ConfigError, "unknown heading: 'up'"),
])
def test_transform_refusals(sequence, heading, max_depth, error, message):
    with pytest.raises(error) as err:
        transform(sequence, PINNED_3_PASS, heading, max_depth)
    assert str(err.value) == message


# The built-ins (spinning, cautiously, zigzag and hesitantly) plus sampled
# spinning, cautiously and detour programs; None stands for no adverb.
LEXICON = Lexicon.build(
    sample_registry(
        random.Random(5),
        12,
        MetaGrammarConfig(type_weights={SPINNING_TYPE: 0.3, CAUTIOUSLY_TYPE: 0.3, DETOUR_TYPE: 0.4}),
    )
)


def test_oracle_lexicon_covers_every_adverb_type():
    assert set(LEXICON.types.values()) == set(ADVERB_TYPES)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    grid_size=st.integers(2, 8),
    surface=st.sampled_from((None, *LEXICON.surfaces())),
    verb=st.sampled_from(VERBS),
)
def test_executed_oracle_target_satisfies_the_goal(seed, grid_size, surface, verb):
    """The oracle declines (a MannerforgeError from solve_trace), a detour
    leaves the grid (OutOfBounds from execute, and the forge re-samples), or
    its target, executed, reaches the verb's goal."""
    world, phrase = sample_situation(random.Random(seed), grid_size, (0, 3))
    lead = (verb, "to") if verb == "walk" else (verb,)
    command = parse_command(lead + phrase + (tuple(surface.split()) if surface else ()))
    try:
        trace = solve_trace(command, world, LEXICON)
    except MannerforgeError:
        return
    try:
        final = execute(world, trace.target)
    except OutOfBounds:
        assert LEXICON.types.get(surface) == DETOUR_TYPE
        return
    assert goal_satisfied(verb, world, final)


symbol_sequences = st.lists(st.sampled_from(sorted(ALL_SYMBOLS)), max_size=12).map(tuple)


@PROPERTY_SETTINGS
@given(program=programs(), a=symbol_sequences, b=symbol_sequences)
def test_a_program_distributes_over_concatenation(program, a, b):
    """A pass rewrites each symbol on its own, so rewriting two parts of a
    sequence apart gives the rewrite of the whole sequence."""
    assert apply_program(program, a + b) == apply_program(program, a) + apply_program(program, b)


@PROPERTY_SETTINGS
@given(
    program=st.one_of(st.sampled_from((None, *LEXICON.programs.values())), programs()),
    a=symbol_sequences,
    b=symbol_sequences,
)
def test_transform_splits_at_the_heading_the_first_part_ends_on(program, a, b):
    """solve_trace transforms the plan, then the interactions from the plan's end
    heading; that is the transform of the two joined."""
    for heading in HEADINGS:
        first, middle = transform(a, program, heading)
        second, end = transform(b, program, middle)
        assert transform(a + b, program, heading) == (first + second, end)


# --- record templates -----------------------------------------------------------
# _serialize writes the situation and the percept from templates; the reference is
# the JSON encoder on world_to_dict and on conftest's module records.

def _encoded(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@st.composite
def worlds(draw):
    """A world on a grid of 2 to 16 cells a side, so that some coordinates have two
    digits, with one to five objects of any shape, color and size on distinct cells."""
    n = draw(st.integers(2, 16))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    cells = draw(st.lists(cell, min_size=1, max_size=5, unique=True))
    objects = tuple(
        GridObject(draw(st.sampled_from(SHAPES)), draw(st.sampled_from(COLORS)),
                   draw(st.sampled_from(SIZES)), Position(*c))
        for c in cells
    )
    return WorldState(grid_size=n, agent_position=Position(*draw(cell)),
                      agent_heading=draw(st.sampled_from(HEADINGS)), objects=objects,
                      target_index=draw(st.integers(0, len(objects) - 1)))


def _pair(world):
    """An example in `world` and a trace holding perception's view of it; the other
    fields are left empty, as only the situation and percept are under test."""
    example = Example(index=0, command=("walk", "to", "a", "circle"), world=world, target=(), verb="walk")
    percept = Percept(world.agent_position, world.agent_heading, world.target.position)
    return example, SolveTrace(percept, Plan("egocentric", ()), world.agent_heading, (), ())


def _check_lines(pair):
    blocks, _ = _serialize([pair], set())
    expected = reference_lines([pair], set())
    assert blocks == ["".join(lines).encode("utf-8") for lines in expected.values()]


@PROPERTY_SETTINGS
@given(world=worlds())
def test_situation_and_percept_templates_match_the_encoder(world):
    example, trace = _pair(world)
    assert _situation_json(world) == _encoded(world_to_dict(world))
    assert _percept_json(trace.percept) == _encoded(module_records(example, trace)["navigation"]["percept"])
    _check_lines((example, trace))


def test_templates_cover_every_heading_shape_color_and_size():
    for heading, (shape, color, size) in product(HEADINGS, product(SHAPES, COLORS, SIZES)):
        world = WorldState(12, Position(11, 10), heading, (GridObject(shape, color, size, Position(10, 11)),), 0)
        assert _situation_json(world) == _encoded(world_to_dict(world))
        _check_lines(_pair(world))


@PROPERTY_SETTINGS
@given(symbols=st.lists(st.sampled_from(sorted(ALL_SYMBOLS)), max_size=40))
def test_symbol_lists_match_the_encoder(symbols):
    # Targets, plans and interactions are written without an escaping check.
    assert _symbols(tuple(symbols)) == _encoded(symbols)


@pytest.mark.parametrize(
    "obj", [GridObject("circle", 're"d', 1, Position(1, 1)), GridObject("cïrcle", "red", 1, Position(1, 1))]
)
def test_a_string_outside_the_vocabulary_is_never_written(obj):
    """A quote to escape, or a letter outside ASCII, is no key of the template's table."""
    with pytest.raises(KeyError):
        _serialize([_pair(WorldState(4, Position(0, 0), "north", (obj,), 0))], set())


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_12_forge_lines_equal_the_reference(tmp_path, jobs, monkeypatch):
    monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
    cfg = ForgeConfig(seed=9, grid_size=12, num_examples=400, extra_adverbs=20,
                      splits=(SplitSpec(kind="random", name="random", test_fraction=0.2),))
    forge_dataset(cfg, str(tmp_path), jobs=jobs)
    pairs = generate_pairs(cfg)
    assert any(max(ex.world.agent_position.row, ex.world.agent_position.col) >= 10 for ex, _ in pairs)
    test = set(json.loads((tmp_path / "splits.json").read_text())["random"]["test"])
    expected = reference_lines(pairs, test)
    for name, filename in RECORD_FILES.items():
        assert (tmp_path / filename).read_text(encoding="utf-8").splitlines(keepends=True) == expected[name]


def _words(*words):
    return st.lists(st.sampled_from(words), max_size=3)


# Commands built from the vocabulary, most of them near the grammar: a verb, then lead
# words, modifiers, nouns and adverb words, each from its own list.
near_commands = st.tuples(
    st.sampled_from(VERBS), _words("to", "a", "the"), _words(*SIZE_ADJECTIVES, *COLORS, "purple"),
    _words(*SHAPES, "zzz"), _words("while", "spinning", "cautiously", "red"),
).map(lambda parts: [parts[0], *(word for words in parts[1:] for word in words)])


@PROPERTY_SETTINGS
@given(command=near_commands)
def test_reader_accepts_the_commands_parse_command_accepts(command):
    # The record's adverb is the command's tokens after its first shape noun, as the
    # forge writes it, so only the grammar of the command can refuse the record.
    shape_at = next((i for i, token in enumerate(command) if token in SHAPES), len(command))
    surface = " ".join(command[shape_at + 1:])
    record = {"index": 0, "split": "train", "command": command, "target": [], "verb": command[0],
              "adverb": {"surface": surface, "type": CAUTIOUSLY_TYPE} if surface else None,
              "situation": world_to_dict(WorldState(4, Position(0, 0), "north",
                                                    (GridObject("circle", "red", 1, Position(1, 1)),), 0))}
    try:
        parse_command(command)
    except ConfigError:
        with pytest.raises(ConfigError):
            example_from_record(record)
    else:
        assert example_from_record(record).command == tuple(command)
