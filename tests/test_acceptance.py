"""Acceptance suite.

One test per criterion, each printing an explicit pass line (run with -s to
see them).  Golden sequences are asserted with exact string equality; the
statistical criteria run at their stated sample sizes with zero tolerance.
"""
import multiprocessing
import random
import shutil
import time
from collections import deque

import pytest

from mannerforge.dsl import apply_pass, apply_program, builtin_adverbs, ground, programs_equal
from mannerforge.forge import (
    ForgeConfig,
    SplitSpec,
    build_lexicon,
    build_splits,
    forge_dataset,
    read_dataset,
    recompose,
)
from mannerforge.metagrammar import (
    CAUTIOUSLY_TYPE,
    DETOUR_TYPE,
    SPINNING_TYPE,
    MetaGrammarConfig,
    RewriteRule,
    is_valid_detour_rule,
    sample_program,
    sample_registry,
)
from mannerforge.pipeline import (
    Percept,
    canonical_allo_plan,
    goal_satisfied,
    plan_navigation,
    solve_trace,
)
from mannerforge.seeding import derive_rng
from mannerforge.symbols import displacement, parse_symbols
from mannerforge.world import Position, execute, parse_command

from conftest import generate_pairs, persisted_module_records, trace_cells

SPIN = "turn_left turn_left turn_left turn_left"
CAUTIOUS = "turn_left turn_right turn_right turn_left"

ORACLE_SEED = 20240 + 603


@pytest.fixture(scope="module")
def oracle_corpus():
    """10,000 (example, oracle trace) pairs on a 6x6 grid with 150 sampled adverbs."""
    cfg = ForgeConfig(seed=ORACLE_SEED, grid_size=6, num_examples=10_000, extra_adverbs=150)
    lexicon = build_lexicon(cfg)
    start = time.perf_counter()
    pairs = generate_pairs(cfg, lexicon)
    elapsed = time.perf_counter() - start
    return cfg, lexicon, pairs, elapsed


@pytest.fixture(scope="module")
def builtin_corpus():
    """4,000 examples with only the four built-in adverbs, for split sweeps."""
    cfg = ForgeConfig(seed=91, grid_size=6, num_examples=4_000, extra_adverbs=0)
    lexicon = build_lexicon(cfg)
    return cfg, lexicon, [ex for ex, _ in generate_pairs(cfg, lexicon)]


def test_criterion_1_golden_suite(builtins):
    start = time.perf_counter()

    cautious_in = "turn_left walk walk turn_left walk walk"
    cautious_out = f"turn_left {CAUTIOUS} walk {CAUTIOUS} walk turn_left {CAUTIOUS} walk {CAUTIOUS} walk"
    got = apply_pass(builtins["cautiously"], parse_symbols(cautious_in))
    assert " ".join(got) == cautious_out

    spun = apply_program(builtins["while spinning"], parse_symbols("North North West West"))
    spin_out = f"{SPIN} turn_left walk {SPIN} walk {SPIN} turn_left walk {SPIN} walk"
    assert " ".join(ground(spun, "east")[0]) == spin_out

    assert " ".join(ground(parse_symbols("North North West"), "east")[0]) == (
        "turn_left walk walk turn_left walk"
    )

    north_spun = apply_pass(builtins["while spinning"], ("North",))
    assert " ".join(north_spun) == f"{SPIN} North"
    assert " ".join(ground(north_spun, "east")[0]) == f"{SPIN} turn_left walk"

    zig = plan_navigation(Percept(Position(3, 2), "east", Position(1, 1)),
                          builtins["while zigzagging"])
    assert " ".join(ground(zig.symbols, "east")[0]) == (
        "turn_left walk turn_left walk turn_right walk"
    )

    assert is_valid_detour_rule(RewriteRule("East", ("North", "East", "South")))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: golden transformation suite, exact equality ({elapsed*1000:.0f} ms)")


def test_criterion_2_oracle_soundness(oracle_corpus, tmp_path):
    cfg, lexicon, pairs, gen_elapsed = oracle_corpus
    assert len(pairs) == 10_000

    for ex, _ in pairs:
        assert goal_satisfied(ex.verb, ex.world, execute(ex.world, ex.target)), ex.index

    forge_dataset(cfg, str(tmp_path))  # writes the same examples, from the same config
    by_index = {ex.index: (ex, trace) for ex, trace in pairs}
    mismatches = persisted = 0
    for records in persisted_module_records(tmp_path):
        target = by_index[records["transformation"]["index"]][0].target
        mismatches += recompose(records, lexicon, cfg.max_depth) != target
        persisted += 1
    assert (persisted, mismatches) == (10_000, 0)

    # The persisted command, world and registry re-solve to the generated trace.
    dataset = read_dataset(str(tmp_path))
    for ex in dataset.examples:
        trace = solve_trace(parse_command(ex.command), ex.world, dataset.lexicon, cfg.max_depth)
        assert trace == by_index[ex.index][1], ex.index
    assert gen_elapsed < 60.0
    print(
        f"\nACCEPTANCE 2 PASS: 10,000/10,000 examples execute and satisfy goals, "
        f"10,000/10,000 module recompositions exact (generated in {gen_elapsed:.1f} s)"
    )


def test_criterion_3_within_cell_invariance():
    cfg = MetaGrammarConfig()
    rng = random.Random(47)
    violations = 0
    for i in range(1000):
        kind = SPINNING_TYPE if i % 2 == 0 else CAUTIOUSLY_TYPE
        program = sample_program(rng, kind, cfg)
        for _ in range(10):
            drow = rng.randint(-5, 5)
            dcol = rng.randint(-5, 5)
            heading = rng.choice(("north", "east", "south", "west"))
            allo = canonical_allo_plan(drow, dcol)
            plan = allo if kind == SPINNING_TYPE else ground(allo, heading)[0]
            plain = trace_cells(ground(plan, heading)[0], heading=heading)
            mannered = trace_cells(ground(apply_program(program, plan), heading)[0], heading=heading)
            if plain != mannered:
                violations += 1
    assert violations == 0
    print("\nACCEPTANCE 3 PASS: 1,000 within-cell programs x 10 plans, 0 trajectory changes")


def test_criterion_4_detour_property():
    cfg = MetaGrammarConfig()
    rng = random.Random(53)
    violations = 0
    for _ in range(1000):
        program = sample_program(rng, DETOUR_TYPE, cfg)
        rewritten = sorted(r.lhs for r in program.rules)
        for _ in range(5):
            plan = [rng.choice(rewritten)]
            plan += [rng.choice(("North", "South", "East", "West"))
                     for _ in range(rng.randint(0, 5))]
            rng.shuffle(plan)
            heading = rng.choice(("north", "east", "south", "west"))
            plain, _ = ground(plan, heading)
            mannered, _ = ground(apply_program(program, plan), heading)
            if displacement(mannered, heading) != displacement(plain, heading):
                violations += 1
            if len(mannered) <= len(plain):
                violations += 1
    assert violations == 0
    print("\nACCEPTANCE 4 PASS: 1,000 detour programs, endpoints preserved, paths strictly longer")


def bfs_shortest_path_length(grid_size, start, goal):
    """Breadth-first search over the empty grid; deliberately independent of
    the planner's Manhattan arithmetic."""
    if start == goal:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        (row, col), dist = queue.popleft()
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nxt = (row + dr, col + dc)
            if not (0 <= nxt[0] < grid_size and 0 <= nxt[1] < grid_size):
                continue
            if nxt in seen:
                continue
            if nxt == goal:
                return dist + 1
            seen.add(nxt)
            queue.append((nxt, dist + 1))
    raise AssertionError("unreachable cell in an empty grid")


def test_criterion_5_plan_optimality_against_bfs():
    rng = random.Random(59)
    for _ in range(1000):
        grid = rng.randint(2, 8)
        agent = (rng.randrange(grid), rng.randrange(grid))
        target = (rng.randrange(grid), rng.randrange(grid))
        plan = canonical_allo_plan(target[0] - agent[0], target[1] - agent[1])
        assert len(plan) == bfs_shortest_path_length(grid, agent, target)
    print("\nACCEPTANCE 5 PASS: canonical plan length equals BFS shortest path on 1,000 percepts")


def test_criterion_6_split_cardinalities(builtin_corpus, oracle_corpus):
    cfg, _, examples = builtin_corpus
    by_index = {ex.index: ex for ex in examples}

    for k in (1, 5, 10, 50):
        spec = SplitSpec(kind="k_shot_adverb", name=f"k{k}", surface="cautiously", k=k)
        assignment = build_splits(examples, (spec,), derive_rng(cfg.seed, "splits").getrandbits(64))[f"k{k}"]
        train_matches = sum(
            1 for i in assignment.train if by_index[i].adverb_surface == "cautiously"
        )
        assert train_matches == k
        assert all(by_index[i].adverb_surface == "cautiously" for i in assignment.test)

    spec = SplitSpec(kind="verb_adverb_holdout", name="pull_spin",
                     verb="pull", surface="while spinning")
    hold = build_splits(examples, (spec,), derive_rng(cfg.seed, "splits").getrandbits(64))["pull_spin"]
    assert len(hold.test) > 0
    assert not any(
        by_index[i].verb == "pull" and by_index[i].adverb_surface == "while spinning"
        for i in hold.train
    )

    _, _, oracle_pairs, _ = oracle_corpus
    surfaces = {ex.adverb_surface for ex, _ in oracle_pairs if ex.adverb_surface}
    assert len(surfaces) == 154
    print(
        "\nACCEPTANCE 6 PASS: k-shot trains hold exactly k for k in {1,5,10,50}, "
        f"holdout train clean with {len(hold.test)} test examples, "
        "10k corpus with X=150 shows 154 adverb surfaces"
    )


def test_criterion_7_generation_determinism(tmp_path):
    cfg = ForgeConfig(
        seed=67, num_examples=300, extra_adverbs=10,
        splits=(
            SplitSpec(kind="random", name="random", test_fraction=0.2),
            SplitSpec(kind="verb_adverb_holdout", name="pull_spin",
                      verb="pull", surface="while spinning"),
        ),
    )
    first = forge_dataset(cfg, str(tmp_path / "a"))
    second = forge_dataset(cfg, str(tmp_path / "b"))
    assert first["files"] == second["files"]
    assert first["registry_digest"] == second["registry_digest"]
    print("\nACCEPTANCE 7 PASS: two generate runs, identical digests for every file")


def test_criterion_8_registry_hygiene():
    programs = sample_registry(derive_rng(71, "registry"), 150)
    assert len(programs) == 150
    builtin = builtin_adverbs()
    for i, a in enumerate(programs):
        for b in programs[i + 1:]:
            assert not programs_equal(a, b)
        for original in builtin:
            assert not programs_equal(a, original)
    surfaces = {p.surface for p in programs}
    assert len(surfaces) == 150
    print("\nACCEPTANCE 8 PASS: 150 sampled programs pairwise distinct and distinct from built-ins")


def test_criterion_9_throughput(tmp_path):
    jobs = min(8, multiprocessing.cpu_count())
    cfg = ForgeConfig(seed=73, num_examples=100_000, extra_adverbs=50)
    start = time.perf_counter()
    manifest = forge_dataset(cfg, str(tmp_path), jobs)
    elapsed = time.perf_counter() - start
    shutil.rmtree(tmp_path)  # about 240 MB of records
    assert manifest["num_examples"] == 100_000
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 9 PASS: 100,000 examples generated, validated and written in "
        f"{elapsed:.1f} s with {jobs} workers"
    )
