import concurrent.futures
import gc
import hashlib
import multiprocessing
import json
import os
import random
import re
import shutil
import signal
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures.process import BrokenProcessPool
from importlib import resources

import pytest

from mannerforge import forge as forge_module
from mannerforge.errors import (
    ConfigError,
    DepthExceeded,
    DigestMismatch,
    InsufficientExamples,
    MalformedRecord,
    ParseError,
    RetryExhausted,
    SchemaMismatch,
    UnknownConfigKey,
    UnknownIndex,
)
from mannerforge.forge import (
    Dataset,
    ForgeConfig,
    Row,
    SplitSpec,
    _generate_one,
    build_lexicon,
    build_splits,
    example_from_record,
    forge_dataset,
    read_dataset,
    recompose,
)
from mannerforge.metagrammar import ADVERB_TYPES, CAUTIOUSLY_TYPE, MetaGrammarConfig
from mannerforge.pipeline import BUILTIN_SURFACES
from mannerforge.seeding import derive_rng
from mannerforge.world import execute, parse_command
from mannerforge.pipeline import goal_satisfied, solve_trace

from conftest import (
    corrupt_line,
    edit_examples,
    edit_manifest,
    example_to_record,
    generate_pairs,
    joined_target,
    module_records,
    persisted_module_records,
    reference_lines,
    write_listed,
)

# `mannerforge generate --config vocab_x150 --num-examples 2000` at schema 1.
REFERENCE_MANIFEST_SHA256 = "e6104d903481b5ae8c5c291d94f471aa8ad4328ebc541cc0dc7c7cc3509da55c"

# A 4x4 grid, whose 16 cells seeding.sample draws from its pool branch, and a pinned
# 3-pass adverb; the same config and digest are checked in CI through the console script.
SMALL_GRID_CONFIG = {
    "seed": 3, "grid_size": 4, "num_examples": 600, "extra_adverbs": 20,
    "pinned_adverbs": ["name: in loops\nmode: allocentric\npasses: 3\nNorth -> turn_left North\n"
                       "West -> turn_right turn_right West\npush -> turn_left turn_right push\n"],
    "splits": [{"kind": "random", "name": "random", "test_fraction": 0.1}],
}
SMALL_GRID_MANIFEST_SHA256 = "f41d51b554691ec63102cc260999e13ae257dd252f93701584967258a3380df6"

BASE_SPLITS = (
    SplitSpec(kind="random", name="random", test_fraction=0.2),
    SplitSpec(kind="k_shot_adverb", name="cautiously_k5", surface="cautiously", k=5),
    SplitSpec(kind="verb_adverb_holdout", name="pull_spin", verb="pull", surface="while spinning"),
)


# A detour two rows deep can never stay inside a 2x2 grid.
PLUNGING = (
    "name: while plunging\nmode: allocentric\n"
    "East -> North North East South South\n"
    "West -> North North West South South\n"
    "North -> East East North West West\n"
    "South -> East East South West West\n"
)


def dataset_files(path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def forged_files(cfg, path, jobs) -> dict[str, bytes]:
    """Every file `forge_dataset` writes, manifest included, by name."""
    forge_dataset(cfg, str(path), jobs=jobs)
    return dataset_files(path)


def write_corpus(corpus, path):
    """Forge a (cfg, lexicon, examples) corpus's config to `path`, which writes those
    examples; their splits."""
    cfg, _, examples = corpus
    forge_dataset(cfg, str(path))
    return build_splits(examples, cfg.splits, derive_rng(cfg.seed, "splits"))


@pytest.fixture(scope="module")
def small_pairs():
    """(cfg, lexicon, (example, trace) pairs) of a 400-example corpus."""
    cfg = ForgeConfig(seed=17, num_examples=400, extra_adverbs=12, splits=BASE_SPLITS)
    lexicon = build_lexicon(cfg)
    return cfg, lexicon, generate_pairs(cfg, lexicon)


@pytest.fixture(scope="module")
def small_corpus(small_pairs):
    """(cfg, lexicon, examples) of the small_pairs corpus."""
    cfg, lexicon, pairs = small_pairs
    return cfg, lexicon, [ex for ex, _ in pairs]


@pytest.fixture
def inline_pool(monkeypatch):
    """concurrent.futures.ProcessPoolExecutor replaced by a pool that runs in this
    process, on a two-CPU machine: its initializer once, then each span in order.  The
    list of the (span, chunk) pairs it ran."""
    ran = []

    class InlinePool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, spans):
            for span in spans:
                chunk = fn(span)
                ran.append((span, chunk))
                yield chunk

    monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(forge_module, "_worker_state", ())  # what the initializer sets, restored after
    return ran


def reference_config(num_examples=2000) -> ForgeConfig:
    """The vocab_x150 preset with `num_examples` examples."""
    data = json.loads(resources.files("mannerforge").joinpath("presets", "vocab_x150.json").read_text())
    data["num_examples"] = num_examples
    return ForgeConfig.from_dict(data)


class TestGenerateExamples:
    def test_x0_uses_only_builtin_adverbs(self):
        cfg = ForgeConfig(seed=2, num_examples=200, extra_adverbs=0)
        surfaces = {ex.adverb_surface for ex, _ in generate_pairs(cfg) if ex.adverb_surface}
        assert surfaces <= set(BUILTIN_SURFACES)

    def test_streams_are_byte_identical(self, small_pairs):
        cfg, lexicon, pairs = small_pairs
        assert reference_lines(generate_pairs(cfg, lexicon), set()) == reference_lines(pairs, set())

    def test_every_example_validates(self, small_corpus):
        _, _, examples = small_corpus
        for ex in examples:
            assert goal_satisfied(ex.verb, ex.world, execute(ex.world, ex.target))

    def test_adverb_metadata_presence(self, small_corpus):
        _, _, examples = small_corpus
        for ex in examples:
            if ex.adverb_surface is None:
                assert ex.adverb_type is None
            else:
                assert ex.adverb_type is not None
                tokens = tuple(ex.adverb_surface.split())
                assert ex.command[-len(tokens):] == tokens

    def test_config_error_is_raised_not_retried(self, tmp_path, monkeypatch):
        # A ConfigError from the oracle is a broken invariant: re-sampling the situation
        # would hide it and skew the corpus, so it ends the forge on the first attempt.
        calls = []

        def broken_oracle(*args):
            calls.append(args)
            raise ConfigError("a plan holds a symbol of the other mode")

        monkeypatch.setattr(forge_module, "solve_trace", broken_oracle)
        with pytest.raises(ConfigError, match="^a plan holds a symbol of the other mode$"):
            forge_dataset(ForgeConfig(seed=1, num_examples=5, retry_limit=50), str(tmp_path))
        assert len(calls) == 1

    def test_parallel_matches_sequential(self, small_corpus, tmp_path, monkeypatch):
        cfg, _, _ = small_corpus
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        serial = forged_files(cfg, tmp_path / "one", jobs=1)
        assert forged_files(cfg, tmp_path / "two", jobs=2) == serial

    @pytest.mark.parametrize("num_examples", [1, 3, 37])
    def test_two_workers_match_one_at_small_sizes(self, num_examples, tmp_path, monkeypatch):
        # Fewer examples than chunks, and a count that is no multiple of the chunk.
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        cfg = ForgeConfig(seed=31, num_examples=num_examples, extra_adverbs=6)
        serial = forged_files(cfg, tmp_path / "one", jobs=1)
        assert json.loads(serial["manifest"])["num_examples"] == num_examples
        assert forged_files(cfg, tmp_path / "two", jobs=2) == serial

    @pytest.mark.parametrize("splits", [
        pytest.param((BASE_SPLITS[2],), id="no_random"),
        pytest.param((
            SplitSpec(kind="random", name="first", test_fraction=0.3),
            SplitSpec(kind="random", name="second", test_fraction=0.6),
        ), id="two_random"),
        pytest.param((
            SplitSpec(kind="type_subset", name="no_caut",
                      allowed_types=("spinning_type", "zigzag_type", "detour_type")),
            SplitSpec(kind="predicate", name="adverbless", predicate="no_adverb"),
        ), id="type_subset_and_predicate"),
    ])
    def test_two_workers_match_one_for_split_kinds(self, splits, tmp_path, monkeypatch):
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        cfg = ForgeConfig(seed=5, num_examples=150, extra_adverbs=8, splits=splits)
        serial = forged_files(cfg, tmp_path / "one", jobs=1)
        assert forged_files(cfg, tmp_path / "two", jobs=2) == serial
        saved = json.loads(serial["splits.json"])
        marked = [
            record["index"]
            for record in map(json.loads, serial["examples.ndrec"].splitlines())
            if record["split"] == "test"
        ]
        random_names = [s.name for s in splits if s.kind == "random"]
        assert marked == (saved[random_names[0]]["test"] if random_names else [])

    def test_workers_take_the_lexicon_from_the_parent(self, tmp_path, monkeypatch):
        cfg = ForgeConfig(seed=8, num_examples=40, extra_adverbs=6)
        serial = forged_files(cfg, tmp_path / "one", jobs=1)
        parent, real, calls = os.getpid(), forge_module.build_lexicon, []

        def parent_only(cfg):
            if os.getpid() != parent:
                raise AssertionError("a worker built the lexicon")
            calls.append(cfg)
            return real(cfg)

        # Forked workers inherit both patches.
        monkeypatch.setattr(forge_module, "build_lexicon", parent_only)
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        assert forged_files(cfg, tmp_path / "two", jobs=2) == serial
        assert calls == [cfg]

    def test_pool_chunks_carry_only_bytes_and_rows(self, small_corpus, tmp_path, inline_pool):
        # A chunk comes back from the pool as five byte blocks, the span's lines of each
        # record file, and the chunk's rows.
        cfg, _, _ = small_corpus
        serial = forged_files(cfg, tmp_path / "one", jobs=1)
        files = forged_files(cfg, tmp_path / "two", jobs=2)
        assert files == serial
        assert len(inline_pool) > 1
        lines = {name: files[name].splitlines(keepends=True) for name in forge_module.RECORD_FILES.values()}
        for (lo, hi, _), (blocks, rows) in inline_pool:
            assert blocks == [b"".join(lines[name][lo:hi]) for name in forge_module.RECORD_FILES.values()]
            assert [row.index for row in rows] == list(range(lo, hi))
            assert all(type(row) is Row and all(v is None or type(v) in (int, str) for v in row) for row in rows)

    def test_pool_spans_carry_only_indices(self, small_corpus, tmp_path, inline_pool):
        # The config and lexicon reach each worker once, through the pool's initializer;
        # a span is (lo, hi, the test indices among lo..hi-1) and nothing more.
        cfg, _, _ = small_corpus
        forge_dataset(cfg, str(tmp_path), jobs=2)
        spans = [span for span, _ in inline_pool]
        assert len(spans) > 1
        assert spans[0][0] == 0 and spans[-1][1] == cfg.num_examples
        assert all(prev[1] == span[0] for prev, span in zip(spans, spans[1:]))
        for lo, hi, test in spans:
            assert type(lo) is type(hi) is int and lo < hi
            assert type(test) is set and all(type(i) is int and lo <= i < hi for i in test)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, small_corpus, tmp_path, jobs):
        cfg, _, _ = small_corpus
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            forge_dataset(cfg, str(tmp_path / "out"), jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_jobs_capped_at_one_cpu_runs_serially(self, small_corpus, tmp_path, monkeypatch):
        cfg, _, _ = small_corpus
        serial = forged_files(cfg, tmp_path / "one", jobs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started on a one-CPU machine")

        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert forged_files(cfg, tmp_path / "four", jobs=4) == serial

    def test_jobs_capped_at_cpu_count(self, small_corpus, tmp_path, monkeypatch):
        cfg, _, _ = small_corpus
        asked = []

        class Refused(Exception):
            pass

        def recording_pool(max_workers, initializer=None, initargs=()):
            asked.append(max_workers)
            raise Refused

        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        with pytest.raises(Refused):
            forge_dataset(cfg, str(tmp_path), jobs=64)
        assert asked == [2]

    def test_retry_exhausted_reports_adverb(self):
        cfg = ForgeConfig(
            seed=1, grid_size=2, num_examples=1, no_adverb_prob=0.0,
            pinned_adverbs=(PLUNGING,), retry_limit=10,
        )
        lexicon = build_lexicon(cfg)
        with pytest.raises(RetryExhausted) as err:
            _generate_one(cfg, lexicon, ("while plunging",), 0)
        assert "while plunging" in str(err.value)

    def test_pinned_program_deeper_than_max_depth_is_refused(self, tmp_path):
        # Every solve with it would raise DepthExceeded, and every example using
        # it would exhaust its retries; the lexicon refuses it instead.
        deep = "name: deeply\nmode: egocentric\npasses: 3\nwalk -> stay walk\n"
        cfg = ForgeConfig(num_examples=5, max_depth=2, pinned_adverbs=(deep,))
        with pytest.raises(DepthExceeded, match=r"^pinned adverb 'deeply' needs 3 passes, max_depth is 2$"):
            build_lexicon(cfg)
        with pytest.raises(DepthExceeded):
            forge_dataset(cfg, str(tmp_path / "ds"))
        assert not (tmp_path / "ds").exists()
        assert "deeply" in build_lexicon(ForgeConfig(max_depth=3, pinned_adverbs=(deep,))).programs


class TestBuildSplits:
    def test_random_partition(self, small_corpus):
        cfg, _, examples = small_corpus
        splits = build_splits(examples, cfg.splits, derive_rng(cfg.seed, "splits"))
        random_split = splits["random"]
        assert not set(random_split.train) & set(random_split.test)
        assert len(random_split.train) + len(random_split.test) == len(examples)
        assert len(random_split.test) == int(len(examples) * 0.2)

    def test_k_shot_exact_k(self, small_corpus):
        cfg, _, examples = small_corpus
        splits = build_splits(examples, cfg.splits, derive_rng(cfg.seed, "splits"))
        by_index = {ex.index: ex for ex in examples}
        k5 = splits["cautiously_k5"]
        train_matches = [i for i in k5.train if by_index[i].adverb_surface == "cautiously"]
        assert len(train_matches) == 5
        for i in k5.test:
            assert by_index[i].adverb_surface == "cautiously"

    def test_k_shot_insufficient(self, small_corpus):
        cfg, _, examples = small_corpus
        spec = SplitSpec(kind="k_shot_adverb", name="k_huge", surface="cautiously", k=10 ** 6)
        with pytest.raises(InsufficientExamples):
            build_splits(examples, (spec,), random.Random(0))

    def test_holdout_has_no_train_contamination(self, small_corpus):
        cfg, _, examples = small_corpus
        splits = build_splits(examples, cfg.splits, derive_rng(cfg.seed, "splits"))
        by_index = {ex.index: ex for ex in examples}
        hold = splits["pull_spin"]
        for i in hold.train:
            ex = by_index[i]
            assert not (ex.verb == "pull" and ex.adverb_surface == "while spinning")
        for i in hold.test:
            ex = by_index[i]
            assert ex.verb == "pull" and ex.adverb_surface == "while spinning"

    def test_type_subset_drops_only_registry_adverbs(self, small_corpus):
        cfg, _, examples = small_corpus
        spec = SplitSpec(
            kind="type_subset", name="no_caut",
            allowed_types=("spinning_type", "zigzag_type", "detour_type"),
        )
        splits = build_splits(examples, (spec,), random.Random(0))
        by_index = {ex.index: ex for ex in examples}
        assignment = splits["no_caut"]
        assert assignment.test == ()
        for i in assignment.dropped:
            ex = by_index[i]
            assert ex.adverb_type == CAUTIOUSLY_TYPE
            assert ex.adverb_surface not in BUILTIN_SURFACES
        for i in assignment.train:
            ex = by_index[i]
            if ex.adverb_surface and ex.adverb_surface not in BUILTIN_SURFACES:
                assert ex.adverb_type != CAUTIOUSLY_TYPE
        assert len(assignment.train) + len(assignment.dropped) == len(examples)

    def test_explicit_surface_subset(self, small_corpus):
        cfg, lexicon, examples = small_corpus
        keep = lexicon.registry[0].surface
        spec = SplitSpec(kind="type_subset", name="one", surfaces=(keep,))
        assignment = build_splits(examples, (spec,), random.Random(0))["one"]
        by_index = {ex.index: ex for ex in examples}
        for i in assignment.dropped:
            assert by_index[i].adverb_surface not in BUILTIN_SURFACES + (keep,)

    def test_predicate_split(self, small_corpus):
        cfg, _, examples = small_corpus
        spec = SplitSpec(kind="predicate", name="held", predicate="has_adverb")
        assignment = build_splits(examples, (spec,), random.Random(0))["held"]
        by_index = {ex.index: ex for ex in examples}
        assert all(by_index[i].adverb_surface for i in assignment.test)
        assert all(by_index[i].adverb_surface is None for i in assignment.train)

    def test_unknown_predicate_rejected(self):
        # The predicates are a fixed table: a spec naming any other is refused when made.
        for name in ("walks", "", None):
            with pytest.raises(ValueError, match=r"^predicate must be one of \('has_adverb', 'no_adverb'\)"):
                SplitSpec(kind="predicate", name="x", predicate=name)
        with pytest.raises(TypeError):
            forge_module.PREDICATES["walks"] = lambda ex: ex.verb == "walk"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(kind="random", name="r", test_fraction=1.5)
        with pytest.raises(ValueError):
            SplitSpec(kind="k_shot_adverb", name="k", surface="cautiously", k=0)
        with pytest.raises(ValueError):
            SplitSpec(kind="verb_adverb_holdout", name="v", verb="fly", surface="cautiously")
        with pytest.raises(ValueError):
            SplitSpec(kind="type_subset", name="t")
        with pytest.raises(ValueError):
            SplitSpec(kind="nonsense", name="n")
        with pytest.raises(ValueError, match=r"^unknown split kind \['random'\]$"):
            SplitSpec.from_dict({"kind": ["random"], "name": "r", "test_fraction": 0.1})

    @pytest.mark.parametrize(
        "key, data",
        [
            ("k", {"kind": "k_shot_adverb", "name": "k", "surface": "cautiously", "k": "5"}),
            ("k", {"kind": "k_shot_adverb", "name": "k", "surface": "cautiously", "k": 5.0}),
            ("test_fraction", {"kind": "random", "name": "r", "test_fraction": "0.1"}),
            ("test_fraction", {"kind": "random", "name": "r", "test_fraction": True}),
            ("name", {"kind": "random", "name": 3, "test_fraction": 0.1}),
            ("surface", {"kind": "k_shot_adverb", "name": "k", "surface": ["cautiously"], "k": 5}),
            ("surface", {"kind": "verb_adverb_holdout", "name": "v", "verb": "pull", "surface": 7}),
            ("predicate", {"kind": "predicate", "name": "p", "predicate": 1}),
            ("surfaces", {"kind": "type_subset", "name": "t", "surfaces": "cautiously"}),
            ("allowed_types", {"kind": "type_subset", "name": "t", "allowed_types": [1]}),
        ],
    )
    def test_mistyped_spec_values_rejected(self, key, data):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            SplitSpec.from_dict(data)

    @pytest.mark.parametrize(
        "data", [{"name": "r", "test_fraction": 0.5}, {"kind": "random", "test_fraction": 0.5}, {}]
    )
    def test_spec_without_kind_or_name_rejected(self, data):
        with pytest.raises(ConfigError, match="^split spec needs a kind and a name$"):
            SplitSpec.from_dict(data)


class TestModuleDatasets:
    def test_walk_interaction_target_is_empty(self, small_pairs):
        _, _, pairs = small_pairs
        for ex, trace in pairs:
            if ex.verb == "walk":
                assert module_records(ex, trace)["interaction"]["target"] == []

    def test_recomposition_reproduces_targets(self, small_pairs, small_corpus, tmp_path):
        cfg, lexicon, pairs = small_pairs
        write_corpus(small_corpus, tmp_path)
        persisted = list(persisted_module_records(tmp_path))
        assert [r["transformation"]["index"] for r in persisted] == [ex.index for ex, _ in pairs]
        for records, (ex, _) in zip(persisted, pairs):
            assert recompose(records, lexicon, cfg.max_depth) == ex.target
        for ex in read_dataset(str(tmp_path)).examples:
            trace = solve_trace(parse_command(ex.command), ex.world, lexicon, cfg.max_depth)
            assert trace == pairs[ex.index][1]

    def test_targets_equal_the_joined_rewrite(self, small_corpus, tmp_path):
        # The oracle transforms the plan and the interactions apart; the reference
        # rewrites and grounds them joined.
        cfg, lexicon, examples = small_corpus
        write_corpus(small_corpus, tmp_path)
        persisted = list(persisted_module_records(tmp_path))
        assert len(persisted) == len(examples)
        assert {ex.adverb_type for ex in examples} == {None, *ADVERB_TYPES}
        for records, ex in zip(persisted, examples):
            assert joined_target(records, lexicon, cfg.max_depth) == ex.target, ex.index

    def test_navigation_targets_match_modes(self, small_pairs):
        _, _, pairs = small_pairs
        for ex, trace in pairs:
            mode = module_records(ex, trace)["navigation"]["target"]["mode"]
            if ex.adverb_surface in ("while spinning", "while zigzagging"):
                assert mode == "allocentric"
            elif ex.adverb_surface in ("cautiously", "hesitantly", None):
                assert mode == "egocentric"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_read_back_examples_equal_generated(self, small_pairs, tmp_path, jobs, monkeypatch):
        # Every record file line is the reference record encoded, and every example
        # read back equals the one generated.
        cfg, _, pairs = small_pairs
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        forge_dataset(cfg, str(tmp_path), jobs=jobs)
        dataset = read_dataset(str(tmp_path))
        lines = reference_lines(pairs, set(dataset.splits["random"].test))
        for name, filename in forge_module.RECORD_FILES.items():
            assert (tmp_path / filename).read_text(encoding="utf-8") == "".join(lines[name]), name
        assert len(dataset.examples) == len(pairs)
        for read_back, (ex, _) in zip(dataset.examples, pairs, strict=True):
            assert read_back == ex

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_forge_failing_its_splits_leaves_dataset_readable(self, tmp_path, jobs, monkeypatch):
        # The record files are written before the splits can be built.
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        manifest = forge_dataset(ForgeConfig(seed=1, num_examples=30), str(tmp_path))
        greedy = SplitSpec(kind="k_shot_adverb", name="k", surface="cautiously", k=1000)
        with pytest.raises(InsufficientExamples):
            forge_dataset(ForgeConfig(seed=2, num_examples=30, splits=(greedy,)), str(tmp_path), jobs)
        assert read_dataset(str(tmp_path)).manifest == manifest
        assert not list(tmp_path.glob("*.part"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_forge_failing_in_generation_leaves_no_part_files(self, tmp_path, jobs, monkeypatch):
        # The chunk that draws the plunging detour raises, in the parent or in a worker.
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        manifest = forge_dataset(ForgeConfig(seed=1, num_examples=30), str(tmp_path))
        cfg = ForgeConfig(
            seed=1, grid_size=2, num_examples=40, no_adverb_prob=0.0,
            pinned_adverbs=(PLUNGING,), retry_limit=10,
        )
        with pytest.raises(RetryExhausted, match="while plunging"):
            forge_dataset(cfg, str(tmp_path), jobs)
        assert read_dataset(str(tmp_path)).manifest == manifest
        assert not list(tmp_path.glob("*.part"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_forge_failing_to_move_its_files_leaves_no_part_files(self, small_corpus, tmp_path, jobs,
                                                                   monkeypatch):
        cfg, _, _ = small_corpus

        def full_disk(*args):
            raise OSError(28, "No space left on device")

        # The record files are written and the splits built, and moving the files into place fails.
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(forge_module.os, "replace", full_disk)
        with pytest.raises(OSError, match="No space"):
            forge_dataset(cfg, str(tmp_path), jobs)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("owner, name", [(forge_module, "serialize_registry"), (json, "dumps")])
    def test_reforge_failing_after_its_record_files_leaves_the_old_dataset(self, tmp_path, jobs, owner, name,
                                                                          monkeypatch):
        # The new record files are written, and then the registry's text, or the manifest's
        # (json.dumps writes only the manifest), fails.
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        manifest = forge_dataset(ForgeConfig(seed=1, num_examples=30), str(tmp_path))
        before = dataset_files(tmp_path)

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(owner, name, full_disk)
            with pytest.raises(OSError, match="No space"):
                forge_dataset(ForgeConfig(seed=2, num_examples=30), str(tmp_path), jobs)
        assert read_dataset(str(tmp_path)).manifest == manifest
        assert dataset_files(tmp_path) == before  # byte for byte, and no .part twin

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_forge_failing_to_move_its_manifest_leaves_a_refused_dataset(self, tmp_path, jobs, monkeypatch):
        # The manifest moves last: the seven new files beside the old manifest fail its digests.
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        forge_dataset(ForgeConfig(seed=1, num_examples=30), str(tmp_path))
        replace = os.replace

        def manifest_fails(src, dst):
            if os.path.basename(dst) == forge_module.MANIFEST_FILE:
                raise OSError(28, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(forge_module.os, "replace", manifest_fails)
        with pytest.raises(OSError, match="No space"):
            forge_dataset(ForgeConfig(seed=2, num_examples=30), str(tmp_path), jobs)
        assert listing(tmp_path) == sorted((*forge_module.DATASET_FILES, forge_module.MANIFEST_FILE))
        with pytest.raises(DigestMismatch):
            read_dataset(str(tmp_path))

    def test_forge_overwrites_the_part_twins_a_killed_forge_left(self, tmp_path):
        names = (*forge_module.DATASET_FILES, forge_module.MANIFEST_FILE)
        (tmp_path / "old").mkdir()
        for filename in names:
            (tmp_path / "old" / (filename + ".part")).write_bytes(b"junk\n" * 1000)
        cfg = ForgeConfig(seed=1, num_examples=30)
        assert forged_files(cfg, tmp_path / "old", 1) == forged_files(cfg, tmp_path / "new", 1)
        assert listing(tmp_path / "old") == sorted(names)


def listing(path) -> list[str]:
    return sorted(os.listdir(path))


class TestPoolForge:
    """With jobs > 1 worker processes forge the chunks; no `.part` twin and no worker
    outlives the forge, however it ends."""

    def test_pool_forge_leaves_only_the_dataset_files(self, small_corpus, tmp_path, monkeypatch):
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        forge_dataset(small_corpus[0], str(tmp_path), jobs=2)
        assert listing(tmp_path) == sorted((*forge_module.DATASET_FILES, forge_module.MANIFEST_FILE))

    def test_worker_failure_is_raised_in_the_parent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        cfg = ForgeConfig(seed=1, grid_size=2, num_examples=40, no_adverb_prob=0.0,
                          pinned_adverbs=(PLUNGING,), retry_limit=10)
        with pytest.raises(RetryExhausted) as err:  # 20 chunks of 2
            forge_dataset(cfg, str(tmp_path), jobs=2)
        assert type(err.value) is RetryExhausted
        assert re.fullmatch(r"example \d+: could not realize verb '\w+' with adverb 'while plunging' "
                            r"on a 2x2 grid after 10 attempts", str(err.value))
        assert listing(tmp_path) == []

    def test_refused_splits_leave_the_old_dataset_whole(self, tmp_path, monkeypatch):
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        forge_dataset(ForgeConfig(seed=1, num_examples=60), str(tmp_path), jobs=2)
        before = dataset_files(tmp_path)
        greedy = SplitSpec(kind="k_shot_adverb", name="k", surface="cautiously", k=1000)
        with pytest.raises(InsufficientExamples, match="need 1000$"):
            forge_dataset(ForgeConfig(seed=2, num_examples=60, splits=(greedy,)), str(tmp_path), jobs=2)
        assert dataset_files(tmp_path) == before
        assert listing(tmp_path) == sorted(before)

    def test_writer_failure_ends_the_workers(self, small_corpus, tmp_path, monkeypatch):
        # The writer fails with the pool's generator suspended at a chunk; the traceback
        # that pytest keeps holds the forge's frame, so only closing the generator
        # cancels the spans that have not started and waits for the running ones.
        real_write = forge_module._write_records

        def full_disk(paths, chunks):
            def failing():
                yield next(chunks)
                raise OSError(28, "No space left on device")
            return real_write(paths, failing())

        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(forge_module, "_write_records", full_disk)
        with pytest.raises(OSError, match="No space") as err:
            forge_dataset(small_corpus[0], str(tmp_path), jobs=2)
        assert err.value.errno == 28
        assert listing(tmp_path) == []
        assert multiprocessing.active_children() == []

    def test_a_killed_worker_ends_the_forge(self, small_corpus, tmp_path, monkeypatch):
        # A worker that exits in the middle of a chunk, as the OOM killer would end it,
        # breaks the pool: the forge raises BrokenProcessPool instead of waiting for that
        # chunk forever, and removes its .part twins.
        parent, real = os.getpid(), forge_module._forge_chunk

        def dying(cfg, lexicon, lo, hi, test):
            if os.getpid() != parent and lo > 0:
                os._exit(1)
            return real(cfg, lexicon, lo, hi, test)

        def timed_out(signum, frame):
            raise TimeoutError("the forge still waits for the chunk of a dead worker")

        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(forge_module, "_forge_chunk", dying)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(30)
        try:
            with pytest.raises(BrokenProcessPool):
                forge_dataset(small_corpus[0], str(tmp_path), jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert listing(tmp_path) == []
        assert multiprocessing.active_children() == []


class TestPersistence:
    def test_write_read_round_trip(self, small_corpus, tmp_path):
        cfg, lexicon, examples = small_corpus
        manifest = forge_dataset(cfg, str(tmp_path))
        splits = build_splits(examples, cfg.splits, derive_rng(cfg.seed, "splits"))
        ds = read_dataset(str(tmp_path))
        assert list(ds.examples) == examples
        assert ds.splits == splits
        assert ds.manifest == manifest
        assert ds.manifest["config"] == cfg.to_dict()
        assert set(ds.lexicon.surfaces()) == set(lexicon.surfaces())

    def test_counts_reconcile(self, small_corpus, tmp_path):
        cfg, _, examples = small_corpus
        manifest = forge_dataset(cfg, str(tmp_path))
        for name, counts in manifest["counts"].items():
            assert counts["train"] + counts["test"] + counts["dropped"] == len(examples)

    def test_example_split_field_matches_random_split(self, small_corpus, tmp_path):
        splits = write_corpus(small_corpus, tmp_path)
        test_set = set(splits["random"].test)
        for line in (tmp_path / "examples.ndrec").read_text().splitlines():
            record = json.loads(line)
            expected = "test" if record["index"] in test_set else "train"
            assert record["split"] == expected

    def test_tampering_detected(self, small_corpus, tmp_path):
        write_corpus(small_corpus, tmp_path)
        target = tmp_path / "examples.ndrec"
        target.write_text(target.read_text().replace("walk", "hop", 1))
        with pytest.raises(DigestMismatch):
            read_dataset(str(tmp_path))

    def test_schema_mismatch(self, small_corpus, tmp_path):
        write_corpus(small_corpus, tmp_path)
        manifest_path = tmp_path / "manifest"
        data = json.loads(manifest_path.read_text())
        data["schema_version"] = 99
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(SchemaMismatch):
            read_dataset(str(tmp_path))

    def test_malformed_record_line_number(self, small_corpus, tmp_path):
        write_corpus(small_corpus, tmp_path)
        corrupt_line(tmp_path, 2)
        examples = read_dataset(str(tmp_path)).examples
        with pytest.raises(MalformedRecord) as err:
            examples[1]
        assert err.value.line == 2 and err.value.path == str(tmp_path / "examples.ndrec")

    def test_forge_dataset_is_deterministic(self, tmp_path):
        cfg = ForgeConfig(seed=23, num_examples=150, extra_adverbs=5, splits=BASE_SPLITS)
        m1 = forge_dataset(cfg, str(tmp_path / "a"))
        m2 = forge_dataset(cfg, str(tmp_path / "b"))
        assert m1["files"] == m2["files"]
        assert m1["registry_digest"] == m2["registry_digest"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reference_manifest_digest(self, tmp_path, jobs):
        forge_dataset(reference_config(), str(tmp_path), jobs=jobs)
        digest = hashlib.sha256((tmp_path / "manifest").read_bytes()).hexdigest()
        assert digest == REFERENCE_MANIFEST_SHA256

    @pytest.mark.parametrize("config, digest", [
        (reference_config, REFERENCE_MANIFEST_SHA256),
        (lambda: ForgeConfig.from_dict(SMALL_GRID_CONFIG), SMALL_GRID_MANIFEST_SHA256),
    ], ids=["vocab_x150", "small_grid"])
    def test_reference_manifests_draw_nothing_through_random_py(self, tmp_path, monkeypatch, config, digest):
        # seeding's draws read only getrandbits and random(): random.py's own draws may
        # change with the interpreter, and no digest rests on them.
        def refused(*args, **kwargs):
            raise AssertionError("a draw went through random.py")
        for name in ("choice", "choices", "sample", "shuffle", "randint", "randrange",
                     "_randbelow", "_randbelow_with_getrandbits"):
            monkeypatch.setattr(random.Random, name, refused)
        forge_dataset(config(), str(tmp_path), jobs=1)
        assert hashlib.sha256((tmp_path / "manifest").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("chunk", [1, 7, 100, 500])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reference_manifest_digest_for_any_chunk_size(self, tmp_path, monkeypatch, inline_pool, chunk, jobs):
        # With jobs=2 the chunks are capped at 2000 // 16 = 125 examples.
        monkeypatch.setattr(forge_module, "CHUNK_EXAMPLES", chunk)
        forge_dataset(reference_config(), str(tmp_path), jobs=jobs)
        digest = hashlib.sha256((tmp_path / "manifest").read_bytes()).hexdigest()
        assert digest == REFERENCE_MANIFEST_SHA256
        assert len(inline_pool) == (0 if jobs == 1 else {1: 2000, 7: 286, 100: 20, 500: 16}[chunk])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_small_grid_manifest_digest(self, tmp_path, jobs):
        forge_dataset(ForgeConfig.from_dict(SMALL_GRID_CONFIG), str(tmp_path), jobs=jobs)
        digest = hashlib.sha256((tmp_path / "manifest").read_bytes()).hexdigest()
        assert digest == SMALL_GRID_MANIFEST_SHA256

    def test_forge_heap_peak_is_bounded(self, tmp_path):
        # The forge holds one chunk's examples at a time, besides the rows, lexicon and
        # caches.  On Python 3.11 the traced peak of this forge is 2.6 MB with chunks of
        # at most 100 examples, 0.5 MB of it the program tables that solving fills.
        cfg = reference_config(4000)
        tracemalloc.start()
        try:
            forge_dataset(cfg, str(tmp_path), jobs=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_unknown_example_index_is_named(self, small_corpus):
        _, lexicon, examples = small_corpus
        dataset = Dataset(examples=examples, splits={}, manifest={}, lexicon=lexicon)
        assert dataset.example_by_index(7) == examples[7]
        with pytest.raises(UnknownIndex, match="999"):
            dataset.example_by_index(999)

    @pytest.mark.parametrize(
        "surface",
        [
            '"situation":0 situation',  # a quote, and key text ahead of the situation in sorted order
            "back\\slash",
            "très vite",
            "odd\x01ly",
        ],
    )
    def test_spliced_lines_equal_their_records_encoded(self, surface, monkeypatch):
        # Each pinned surface needs JSON escaping, so the lines that hold it as a
        # command token take the _dumps fallback; the built-in adverbs do not.
        pinned = f"name: {surface}\nmode: egocentric\nwalk -> stay walk\n"
        cfg = ForgeConfig(seed=3, num_examples=120, no_adverb_prob=0.1, pinned_adverbs=(pinned,))
        lexicon = build_lexicon(cfg)
        pairs = generate_pairs(cfg, lexicon)
        assert any(ex.adverb_surface == surface for ex, _ in pairs)
        test = {ex.index for ex, _ in pairs if ex.index % 3 == 0}
        encoded = []
        dumps = forge_module._dumps
        monkeypatch.setattr(forge_module, "_dumps", lambda value: encoded.append(value) or dumps(value))
        blocks, _ = forge_module._serialize(pairs, test)
        fallbacks = [value for value in encoded if type(value) is list and value]
        assert fallbacks and all(surface.split()[-1] in value for value in fallbacks)
        expected = reference_lines(pairs, test)
        assert list(expected) == list(forge_module.RECORD_FILES)
        assert blocks == ["".join(lines).encode("utf-8") for lines in expected.values()]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_manifest_digests_are_the_files_sha256(self, tmp_path, jobs, monkeypatch):
        # The record files are hashed as they are written, not read back.
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        cfg = ForgeConfig(seed=5, num_examples=1200, extra_adverbs=5, splits=BASE_SPLITS)
        manifest = forge_dataset(cfg, str(tmp_path), jobs=jobs)
        assert sorted(manifest["files"]) == sorted(forge_module.DATASET_FILES)
        for filename, digest in manifest["files"].items():
            assert digest == hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest(), filename
        assert manifest["registry_digest"] == manifest["files"]["registry.txt"]

    def test_example_record_round_trip(self, small_corpus):
        _, _, examples = small_corpus
        for ex in examples[:50]:
            record = json.loads(json.dumps(example_to_record(ex, "train")))
            assert example_from_record(record) == ex


DELETE = object()  # as a record value: remove the key


def rewrite_splits(out_dir, edit):
    """Rewrite splits.json as edit(splits dict) leaves it, with its digest in the manifest."""
    path = out_dir / "splits.json"
    splits = json.loads(path.read_text())
    edit(splits)
    path.write_text(json.dumps(splits))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    edit_manifest(out_dir, lambda manifest: manifest["files"].update({"splits.json": digest}))


# One fault of each of an example record's checks, in the order they run.
RECORD_FAULTS = (
    ("colour", "red", "unknown record key colour"),
    ("index", "1", "index must be an integer"),
    ("command", "walk", "command must be a list of strings"),
    ("target", ["walk", 1], "target must be a list of strings"),
    ("verb", "hop", "verb must be one of"),
    ("split", "dev", "split must be one of"),
    ("adverb", "cautiously", "adverb must be null or an object"),
    ("verb", "walk", "verb 'walk' does not begin the command"),  # the record's command is "pull a cylinder ..."
    ("adverb", {"surface": "cautiously", "type": "cautiously_type"},
     "adverb 'cautiously' is not the command's tokens after its shape noun"),
    ("situation", [], "situation must be an object"),
)


class TestReadDataset:
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("target", "walk", "target must be a list of strings"),
            ("target", ["walk", 1], "target must be a list of strings"),
            ("command", "walk to a circle", "command must be a list of strings"),
            ("command", None, "command must be a list of strings"),
            ("index", True, "index must be an integer"),
            ("index", 1.0, "index must be an integer"),
            ("index", "1", "index must be an integer"),
            ("verb", "hop", "verb must be one of"),
            ("verb", ["walk"], "verb must be one of"),
            ("split", "dev", "split must be one of"),
            ("colour", "red", "unknown record key colour"),
            ("verb", DELETE, "missing record key verb"),
            ("adverb", DELETE, "missing record key adverb"),
            ("adverb", "cautiously", "adverb must be null or an object"),
            ("adverb", {"surface": "cautiously"}, "adverb must be null or an object"),
            ("adverb", {"surface": "cautiously", "type": "cautiously_type", "k": 1},
             "adverb must be null or an object"),
            ("adverb", {"surface": "", "type": "cautiously_type"}, "adverb.surface must be"),
            ("adverb", {"surface": 3, "type": "cautiously_type"}, "adverb.surface must be"),
            ("adverb", {"surface": "cautiously", "type": "sneaky_type"}, "adverb.type must be one of"),
            ("adverb", {"surface": "cautiously", "type": None}, "adverb.type must be one of"),
        ],
    )
    def test_example_from_record_rejects_bad_records(self, small_corpus, key, value, message):
        _, _, examples = small_corpus
        record = json.loads(json.dumps(example_to_record(examples[0], "train")))
        if value is DELETE:
            del record[key]
        else:
            record[key] = value
        with pytest.raises(ValueError, match=f"^{message}"):
            example_from_record(record)

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(verb="walk" if r["verb"] != "walk" else "push"),
         r"^verb '\w+' does not begin the command \["),
        (lambda r: r.update(command=[]), r"^verb '\w+' does not begin the command \[\]$"),
        (lambda r: r["command"].pop(r["command"].index("while") - 1), "^command has no shape noun: "),
        (lambda r: r["adverb"].update(surface="zzz"), r"^adverb 'zzz' is not .* noun, \['while', 'spinning'\]$"),
        (lambda r: r["command"].append("again"),
         r"^adverb 'while spinning' is not .* noun, \['while', 'spinning', 'again'\]$"),
        (lambda r: r.update(adverb=None), r"^adverb None is not .* noun, \['while', "),
        (lambda r: r["command"].insert(r["command"].index("while"), "square"),
         r"^adverb 'while spinning' is not .* noun, \['square', 'while', "),
    ])
    def test_record_fields_must_agree_with_the_command(self, small_corpus, edit, message):
        # The verb is the command's first token, and the adverb the command's tokens after
        # its first shape noun, as parse_command splits them.
        _, _, examples = small_corpus
        ex = next(ex for ex in examples if ex.adverb_surface == "while spinning")
        record = json.loads(json.dumps(example_to_record(ex, "train")))
        edit(record)
        with pytest.raises(ValueError, match=message):
            example_from_record(record)

    @pytest.mark.parametrize("first, later", [
        (i, j) for i in range(len(RECORD_FAULTS)) for j in range(i + 1, len(RECORD_FAULTS))
    ])
    def test_first_record_fault_is_named(self, small_corpus, first, later):
        _, _, examples = small_corpus
        record = json.loads(json.dumps(example_to_record(examples[0], "train")))
        for key, value, _ in (RECORD_FAULTS[later], RECORD_FAULTS[first]):
            record[key] = value
        with pytest.raises(ValueError, match=f"^{RECORD_FAULTS[first][2]}"):
            example_from_record(record)

    @pytest.mark.parametrize("record", [[], "record", None, 3])
    def test_example_from_record_rejects_non_objects(self, record):
        with pytest.raises(ValueError, match="^record must be an object"):
            example_from_record(record)

    def test_example_from_record_takes_null_adverb(self, small_corpus):
        _, _, examples = small_corpus
        ex = next(ex for ex in examples if ex.adverb_surface is None)
        assert example_from_record(json.loads(json.dumps(example_to_record(ex, "test")))) == ex

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"verb":"push"', '"verb":"hop"', "verb must be one of"),
            ('"grid_size":6', '"grid_size":6.0', r"situation\.grid_size must be an integer"),
            ('"size":', '"size":-', r"situation\.objects\[0\]\.size must be one of \(1, 2, 3, 4\), not -"),
        ],
    )
    def test_bad_record_names_its_line(self, small_corpus, tmp_path, old, new, message):
        write_corpus(small_corpus, tmp_path)
        lines = (tmp_path / "examples.ndrec").read_text().splitlines()
        k = next(i for i, line in enumerate(lines, 1) if old in line)
        corrupt_line(tmp_path, k, lines[k - 1].replace(old, new, 1))  # the first match only
        dataset = read_dataset(str(tmp_path))
        with pytest.raises(MalformedRecord, match=message) as err:
            dataset.example_by_index(k - 1)
        assert err.value.line == k

    @pytest.mark.parametrize("command, message", [
        ("walk a small square", r"command \['walk', 'a', 'small', 'square'\] does not begin 'walk to a'$"),
        ("walk to a purple zzz square", r"command has no shape noun: .* has \['purple'\] after 'walk to a'$"),
        ("push the red big circle", r"command .* does not begin 'push a'$"),
        ("pull a red red circle", r"command has no shape noun: .* has \['red'\] after 'pull a red'$"),
    ])
    def test_command_outside_the_grammar_names_its_line(self, small_corpus, tmp_path, command, message):
        # Each has a verb, a shape noun and no adverb, as the record says, yet parse_command
        # refuses it: the reader reads the lead, [size] [colour] shape as parse_command does.
        tokens = command.split()
        with pytest.raises(ConfigError):
            parse_command(tokens)
        write_corpus(small_corpus, tmp_path)
        k = 7
        record = json.loads((tmp_path / "examples.ndrec").read_text().splitlines()[k - 1])
        record.update(command=tokens, verb=tokens[0], adverb=None)
        corrupt_line(tmp_path, k, json.dumps(record, sort_keys=True, separators=(",", ":")))
        dataset = read_dataset(str(tmp_path))
        with pytest.raises(MalformedRecord, match=r"examples\.ndrec:7: " + message) as err:
            dataset.example_by_index(k - 1)
        assert err.value.line == k

    def test_manifest_must_list_the_examples_file(self, small_corpus, tmp_path):
        write_corpus(small_corpus, tmp_path)
        edit_manifest(tmp_path, lambda manifest: manifest["files"].pop("examples.ndrec"))
        path = tmp_path / "examples.ndrec"
        path.write_text(path.read_text().replace('"verb":"push"', '"verb":"pull"', 1))
        with pytest.raises(DigestMismatch, match=r"missing \['examples.ndrec'\], unknown \[\]"):
            read_dataset(str(tmp_path))

    def test_manifest_must_list_no_other_file(self, small_corpus, tmp_path):
        write_corpus(small_corpus, tmp_path)
        outside = tmp_path.parent / "outside.txt"
        outside.write_text("anything")
        digest = hashlib.sha256(b"anything").hexdigest()
        edit_manifest(tmp_path, lambda manifest: manifest["files"].update({"../outside.txt": digest}))
        with pytest.raises(DigestMismatch, match=r"missing \[\], unknown \['../outside.txt'\]"):
            read_dataset(str(tmp_path))

    @pytest.mark.parametrize("edit, shown", [
        (lambda manifest: manifest.update(registry_digest="0" * 64), repr("0" * 64)),
        (lambda manifest: manifest.pop("registry_digest"), "None"),
    ], ids=["zeros", "missing"])
    def test_registry_digest_must_be_the_registry_files(self, small_corpus, tmp_path, edit, shown):
        # Checked with the manifest, before any file is read: a missing examples file is not reached.
        write_corpus(small_corpus, tmp_path)
        listed = json.loads((tmp_path / "manifest").read_text())["files"]["registry.txt"]
        edit_manifest(tmp_path, edit)
        (tmp_path / "examples.ndrec").unlink()
        with pytest.raises(DigestMismatch) as err:
            read_dataset(str(tmp_path))
        assert str(err.value) == f"manifest registry_digest {shown} != files['registry.txt'] {listed!r}"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s, n: s["random"]["test"].append(n), "split 'random' test: 400 is no index in \\[0, 400\\)"),
            (lambda s, n: s["random"]["train"].insert(0, -1), "split 'random' train: -1 is no index"),
            (lambda s, n: s["random"]["dropped"].append(True), "split 'random' dropped: True is no index"),
            (lambda s, n: s["random"]["test"].append("3"), "split 'random' test: '3' is no index"),
            (lambda s, n: s["random"].update(test=5), "split 'random' test must be a list"),
            (lambda s, n: s["random"].pop("dropped"), "split 'random' must have exactly the keys"),
            (lambda s, n: s["random"].update(held=[]), "split 'random' must have exactly the keys"),
            (lambda s, n: s.update(random=[]), "split 'random' must have exactly the keys"),
            # An index twice in a split, which evaluate would score twice.  The file
            # lists the sides as dropped, test, train.
            (lambda s, n: s["random"]["test"].append(s["random"]["test"][0]),
             r"split 'random': index \d+ is listed in test and in test$"),
            (lambda s, n: s["random"]["train"].append(s["random"]["test"][0]),
             r"split 'random': index \d+ is listed in test and in train$"),
            (lambda s, n: s["random"]["dropped"].append(s["random"]["train"][0]),
             r"split 'random': index \d+ is listed in dropped and in train$"),
            (lambda s, n: s["random"]["dropped"].append(s["random"]["test"][0]),
             r"split 'random': index \d+ is listed in dropped and in test$"),
            # Every index on one side, and the sides of the manifest's counts.
            (lambda s, n: s["cautiously_k5"]["test"].pop(),
             ": split 'cautiously_k5' lists 399 indices, but the manifest has 400 examples$"),
            (lambda s, n: s["random"]["train"].append(s["random"]["test"].pop()),
             r": split 'random' has sides of sizes \{'dropped': 0, 'test': 79, 'train': 321\}, "
             r"but the manifest counts \{'dropped': 0, 'test': 80, 'train': 320\}$"),
            (lambda s, n: s.pop("pull_spin"), r": split 'pull_spin' has sides of sizes None, but the manifest counts "),
            (lambda s, n: s.update(extra=s["random"]),
             r": split 'extra' has sides of sizes \{.*\}, but the manifest counts None$"),
        ],
    )
    def test_split_indices_are_checked(self, small_corpus, tmp_path, edit, message):
        write_corpus(small_corpus, tmp_path)
        rewrite_splits(tmp_path, lambda splits: edit(splits, 400))
        with pytest.raises(MalformedRecord, match=message) as err:
            read_dataset(str(tmp_path))
        assert err.value.path == str(tmp_path / "splits.json")

    @pytest.mark.parametrize("counts, message", [
        (lambda c: c.pop("random"), r": split 'random' has sides of sizes \{.*\}, but the manifest counts None$"),
        (lambda c: c["pull_spin"].update(test=0),
         r": split 'pull_spin' has sides of sizes \{.*'test': \d+.*\}, but the manifest counts \{.*'test': 0"),
        (lambda c: c.update(extra={"dropped": 0, "test": 0, "train": 400}),
         r": split 'extra' has sides of sizes None, "),
    ])
    def test_splits_must_agree_with_the_manifest_counts(self, small_corpus, tmp_path, counts, message):
        write_corpus(small_corpus, tmp_path)
        edit_manifest(tmp_path, lambda manifest: counts(manifest["counts"]))
        with pytest.raises(MalformedRecord, match=message) as err:
            read_dataset(str(tmp_path))
        assert (err.value.path, err.value.line) == (str(tmp_path / "splits.json"), 1)

    @pytest.mark.parametrize("text, shown", [("[]", "[]"), ('[{"random": {}}]', "[{'random': {}}]")])
    def test_splits_file_must_be_an_object(self, small_corpus, tmp_path, text, shown):
        write_corpus(small_corpus, tmp_path)
        (tmp_path / "splits.json").write_text(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        edit_manifest(tmp_path, lambda manifest: manifest["files"].update({"splits.json": digest}))
        with pytest.raises(MalformedRecord) as err:
            read_dataset(str(tmp_path))
        assert str(err.value).endswith(f"splits.json:1: splits must be an object, not {shown}")

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-le", "utf-32"])
    def test_splits_file_must_be_utf8_without_bom(self, small_corpus, tmp_path, encoding):
        write_corpus(small_corpus, tmp_path)
        path = tmp_path / "splits.json"
        data = path.read_text(encoding="utf-8").encode(encoding)
        path.write_bytes(data)
        edit_manifest(tmp_path, lambda manifest: manifest["files"].update(
            {"splits.json": hashlib.sha256(data).hexdigest()}))
        with pytest.raises(MalformedRecord) as err:
            read_dataset(str(tmp_path))
        assert (err.value.path, err.value.line) == (str(path), 1)

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
    def test_manifest_must_be_utf8_without_bom(self, small_corpus, tmp_path, encoding):
        write_corpus(small_corpus, tmp_path)
        path = tmp_path / "manifest"
        path.write_bytes(path.read_text(encoding="utf-8").encode(encoding))
        with pytest.raises(SchemaMismatch, match="^manifest is not UTF-8 JSON: "):
            read_dataset(str(tmp_path))

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_must_be_the_integer(self, small_corpus, tmp_path, version):
        # True == 1 and 1.0 == 1, yet neither is the integer 1.
        write_corpus(small_corpus, tmp_path)
        edit_manifest(tmp_path, lambda manifest: manifest.update(schema_version=version))
        with pytest.raises(SchemaMismatch) as err:
            read_dataset(str(tmp_path))
        assert str(err.value) == f"dataset schema {version!r}, reader supports 1"

    def test_registry_fault_names_its_line_of_the_file(self, small_corpus, tmp_path):
        write_corpus(small_corpus, tmp_path)
        path = tmp_path / "registry.txt"
        lines = path.read_text(encoding="utf-8").split("\n")
        k = max(i for i, line in enumerate(lines) if "->" in line)  # the last rule, far from line 1
        lines[k] += " fly"
        write_listed(tmp_path, "registry.txt", "\n".join(lines).encode("utf-8"))
        with pytest.raises(ParseError, match="unknown symbol 'fly'$") as err:
            read_dataset(str(tmp_path))
        assert err.value.line == k + 1

    def test_num_examples_must_be_a_count(self, small_corpus, tmp_path):
        write_corpus(small_corpus, tmp_path)
        edit_manifest(tmp_path, lambda manifest: manifest.update(num_examples="400"))
        with pytest.raises(SchemaMismatch, match="num_examples must be a count"):
            read_dataset(str(tmp_path))

    @pytest.mark.parametrize("text, shown", [("[]", "[]"), ("3", "3"), ("null", "None"), ('"m"', "'m'")])
    def test_manifest_must_be_an_object(self, small_corpus, tmp_path, text, shown):
        write_corpus(small_corpus, tmp_path)
        (tmp_path / "manifest").write_text(text + "\n")
        with pytest.raises(SchemaMismatch) as err:
            read_dataset(str(tmp_path))
        assert str(err.value) == f"manifest must be an object, not {shown}"

    def test_records_decode_on_first_use(self, small_corpus, tmp_path):
        _, _, examples = small_corpus
        write_corpus(small_corpus, tmp_path)
        k = 5
        corrupt_line(tmp_path, k)
        dataset = read_dataset(str(tmp_path))  # the corrupt line is hashed, not decoded
        assert len(dataset.examples) == len(examples)
        assert dataset.example_by_index(k - 2) == examples[k - 2]
        assert dataset.example_by_index(k) == examples[k]
        with pytest.raises(MalformedRecord) as err:
            dataset.example_by_index(k - 1)
        assert err.value.line == k
        with pytest.raises(MalformedRecord) as err:
            list(dataset.examples)
        assert err.value.line == k

    def test_examples_are_a_sequence(self, small_corpus, tmp_path):
        _, _, examples = small_corpus
        write_corpus(small_corpus, tmp_path)
        read_back = read_dataset(str(tmp_path)).examples
        assert read_back[4] == examples[4]
        assert read_back[-1] == examples[-1]
        assert read_back[3:9:2] == examples[3:9:2]
        assert read_back[-2:] == examples[-2:]
        with pytest.raises(IndexError):
            read_back[len(examples)]
        assert examples[7] in read_back

    def test_no_decoded_example_is_kept(self, small_corpus, tmp_path):
        write_corpus(small_corpus, tmp_path)
        dataset = read_dataset(str(tmp_path))
        example = dataset.examples[3]
        ref = weakref.ref(example)
        del example
        gc.collect()
        assert ref() is None
        assert dataset.examples[3].index == 3

    @pytest.mark.parametrize("surface, adverb_type, held", [
        ("zzz", "spinning_type", None),
        ("while spinning", "cautiously_type", "spinning_type"),
    ])
    def test_adverb_must_be_the_registry_s(self, small_corpus, tmp_path, surface, adverb_type, held):
        # The record agrees with itself; only the registry can refuse it.
        _, _, examples = small_corpus
        write_corpus(small_corpus, tmp_path)
        k = next(i for i, ex in enumerate(examples) if ex.adverb_surface is None)
        record = json.loads((tmp_path / "examples.ndrec").read_text().splitlines()[k])
        record.update(command=record["command"] + surface.split(), adverb={"surface": surface, "type": adverb_type})
        corrupt_line(tmp_path, k + 1, json.dumps(record))
        dataset = read_dataset(str(tmp_path))
        assert example_from_record(record).adverb_surface == surface
        with pytest.raises(MalformedRecord) as err:
            dataset.example_by_index(k)
        assert err.value.line == k + 1
        assert str(err.value).endswith(f"adverb {surface!r} has type {adverb_type!r}, but {held!r} in the registry")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_record_agrees_with_parse_command(self, tmp_path, jobs, monkeypatch):
        # Each forged record's verb and adverb are the ones parse_command reads from its
        # command, and its adverb is the registry's, type included.
        monkeypatch.setattr(forge_module.os, "cpu_count", lambda: 2)
        pinned = 'name: said "so" around the square\nmode: egocentric\nwalk -> stay walk\n'
        cfg = ForgeConfig(seed=6, num_examples=600, extra_adverbs=30, no_adverb_prob=0.1, pinned_adverbs=(pinned,))
        forge_dataset(cfg, str(tmp_path), jobs=jobs)
        dataset = read_dataset(str(tmp_path))
        surfaces = set()
        for ex in dataset.examples:
            command = parse_command(ex.command)
            adverb = tuple(ex.adverb_surface.split()) if ex.adverb_surface else None
            assert (command.verb, command.adverb) == (ex.verb, adverb)
            assert dataset.lexicon.types.get(ex.adverb_surface) == ex.adverb_type
            surfaces.add(ex.adverb_surface)
        assert {None, *BUILTIN_SURFACES, 'said "so" around the square'} < surfaces

    def test_index_must_equal_line_position(self, small_corpus, tmp_path):
        write_corpus(small_corpus, tmp_path)
        edit_examples(tmp_path, lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:])
        dataset = read_dataset(str(tmp_path))
        assert dataset.example_by_index(1).index == 1
        with pytest.raises(MalformedRecord, match="index 3 on the line of index 2") as err:
            dataset.example_by_index(2)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            (lambda lines: lines[:6] + ["\n"] + lines[7:], 7, "blank line"),
            (lambda lines: lines + [lines[-1]], 401, "401 lines, but the manifest has 400 examples"),
            (lambda lines: lines + ["\n"], 401, "401 lines"),
            (lambda lines: lines[:-1], 400, "399 lines, but the manifest has 400 examples"),
            (lambda lines: lines[:-1] + [lines[-1].rstrip("\n")], 400, "the last line has no newline"),
        ],
    )
    def test_line_count_is_checked_on_read(self, small_corpus, tmp_path, edit, line, message):
        write_corpus(small_corpus, tmp_path)
        edit_examples(tmp_path, edit)
        with pytest.raises(MalformedRecord, match=message) as err:
            read_dataset(str(tmp_path))
        assert err.value.line == line


def flip_byte(path, at=None):
    """Flip the low bit of one byte of a file, its middle byte by default."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2 if at is None else at] ^= 1
    path.write_bytes(bytes(data))


def break_registry(out_dir):
    """A registry that fails to parse, with its digest in the manifest, so that only
    parsing it can find the fault."""
    data = (out_dir / "registry.txt").read_bytes().replace(b" -> ", b" -> fly ", 1)
    write_listed(out_dir, "registry.txt", data)


FAULTS = {
    "mismatch": lambda out_dir, name: flip_byte(out_dir / name),
    "missing": lambda out_dir, name: (out_dir / name).unlink(),
    "unparsable": lambda out_dir, name: break_registry(out_dir),
}


class TestThreadedRead:
    """read_dataset hashes the module files on a helper thread; every file's fault is
    still reported as reading the files one by one in DATASET_FILES order reports it."""

    @pytest.fixture(scope="class")
    def forged(self, tmp_path_factory, small_corpus):
        out_dir = tmp_path_factory.mktemp("threaded") / "dataset"
        write_corpus(small_corpus, out_dir)
        return out_dir

    @pytest.fixture
    def dataset(self, forged, tmp_path):
        """A fresh copy of the forged dataset."""
        return shutil.copytree(forged, tmp_path / "dataset")

    def test_reads_what_it_hashes(self, dataset, small_corpus):
        threads = threading.active_count()
        read = read_dataset(str(dataset))
        assert threading.active_count() == threads
        assert list(read.examples) == small_corpus[2]

    @pytest.mark.parametrize("faults, raised, name", [
        ([("mismatch", "perception.ndrec"), ("missing", "registry.txt")], DigestMismatch, "perception.ndrec"),
        ([("missing", "examples.ndrec"), ("mismatch", "transformation.ndrec")], FileNotFoundError, "examples.ndrec"),
        ([("unparsable", "registry.txt"), ("mismatch", "navigation.ndrec")], DigestMismatch, "navigation.ndrec"),
        ([("mismatch", "splits.json"), ("missing", "interaction.ndrec")], FileNotFoundError, "interaction.ndrec"),
        ([("mismatch", "registry.txt"), ("missing", "transformation.ndrec")], FileNotFoundError, "transformation.ndrec"),
        ([("missing", "perception.ndrec"), ("mismatch", "examples.ndrec")], DigestMismatch, "examples.ndrec"),
        ([("missing", "navigation.ndrec"), ("missing", "perception.ndrec")], FileNotFoundError, "perception.ndrec"),
        ([("missing", "splits.json"), ("unparsable", "registry.txt")], FileNotFoundError, "splits.json"),
        ([("unparsable", "registry.txt")], ParseError, "registry.txt"),
    ])
    def test_first_fault_in_file_order_is_raised(self, dataset, faults, raised, name):
        for fault, filename in faults:
            FAULTS[fault](dataset, filename)
        threads = threading.active_count()
        with pytest.raises(raised) as err:
            read_dataset(str(dataset))
        assert threading.active_count() == threads
        if raised is DigestMismatch:
            assert str(err.value).startswith(f"{name}: digest ")
        elif raised is FileNotFoundError:
            assert err.value.filename == str(dataset / name)
        else:
            assert "unknown symbol 'fly'" in str(err.value)

    def test_outcomes_hold_under_fast_thread_switches(self, dataset, small_corpus):
        # Both threads record into one dict, each under its own files' keys.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                assert len(read_dataset(str(dataset)).examples) == len(small_corpus[2])
            flip_byte(dataset / "transformation.ndrec")
            (dataset / "splits.json").unlink()
            for _ in range(10):
                with pytest.raises(DigestMismatch, match="^transformation.ndrec: digest "):
                    read_dataset(str(dataset))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("name", list(forge_module.MODULE_FILES.values()))
    @pytest.mark.parametrize("at", [0, None, -1])
    def test_a_flipped_module_byte_is_a_digest_mismatch(self, dataset, name, at):
        flip_byte(dataset / name, at)
        with pytest.raises(DigestMismatch, match=f"^{name}: digest "):
            read_dataset(str(dataset))

    def test_an_interrupt_of_the_caller_joins_the_helper(self, dataset, monkeypatch):
        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(forge_module, "_hashed_lines", interrupted)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            read_dataset(str(dataset))
        assert threading.active_count() == threads

    def test_sha256_reads_every_block_into_the_buffer(self, tmp_path):
        sizes = [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3 * (1 << 20) + 7]
        rng = random.Random(22)
        files = []
        for size in sizes:
            data = rng.randbytes(size)
            path = tmp_path / f"{size}.bin"
            path.write_bytes(data)
            files.append((str(path), hashlib.sha256(data).hexdigest()))
        buffer = bytearray(1 << 20)  # shared, so a short read must not hash a longer one's tail
        for path, digest in files + files[::-1]:
            assert forge_module._sha256(path, buffer) == digest, path


class TestForgeConfig:
    def test_dict_round_trip(self):
        cfg = ForgeConfig(seed=9, num_examples=10, extra_adverbs=3, splits=BASE_SPLITS)
        assert ForgeConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_json_holds_the_fields_that_are_set(self):
        specs = (
            *BASE_SPLITS,
            SplitSpec(kind="type_subset", name="t", allowed_types=("spinning_type",)),
            SplitSpec(kind="type_subset", name="s", surfaces=("cautiously",)),
            SplitSpec(kind="predicate", name="p", predicate="no_adverb"),
        )
        cfg = ForgeConfig(splits=specs, pinned_adverbs=(PLUNGING,))
        data = cfg.to_dict()
        assert data == {
            "seed": 0, "grid_size": 6, "num_examples": 1000, "extra_adverbs": 0,
            "meta": {"type_weights": {"spinning_type": 0.4, "cautiously_type": 0.3, "detour_type": 0.3},
                     "prefix_len_range": [2, 8], "detour_rhs_max": 5, "max_rejects": 1000},
            "splits": [
                {"kind": "random", "name": "random", "test_fraction": 0.2},
                {"kind": "k_shot_adverb", "name": "cautiously_k5", "surface": "cautiously", "k": 5},
                {"kind": "verb_adverb_holdout", "name": "pull_spin", "verb": "pull", "surface": "while spinning"},
                {"kind": "type_subset", "name": "t", "allowed_types": ["spinning_type"]},
                {"kind": "type_subset", "name": "s", "surfaces": ["cautiously"]},
                {"kind": "predicate", "name": "p", "predicate": "no_adverb"},
            ],
            "max_depth": 10, "no_adverb_prob": 0.2, "distractors": [0, 3], "retry_limit": 50,
            "pinned_adverbs": [PLUNGING],
        }
        assert data["meta"]["type_weights"] is not cfg.meta.type_weights  # a copy
        assert ForgeConfig.from_dict(data) == cfg

    @pytest.mark.parametrize("build", [
        lambda seq: SplitSpec(kind="type_subset", name="t", allowed_types=seq(["spinning_type"])),
        lambda seq: ForgeConfig(distractors=seq([0, 3])),
        lambda seq: ForgeConfig(pinned_adverbs=seq([PLUNGING])),
        lambda seq: ForgeConfig(meta=MetaGrammarConfig(prefix_len_range=seq([2, 8]))),
        lambda seq: ForgeConfig(splits=seq(BASE_SPLITS)),
    ], ids=["allowed_types", "distractors", "pinned_adverbs", "prefix_len_range", "splits"])
    def test_python_callers_may_pass_lists(self, build):
        # Each sequence field holds the tuple of the list it was given, and the config JSON
        # (to_dict's) is the tuples'.
        from_lists, from_tuples = build(list), build(tuple)
        assert repr(from_lists) == repr(from_tuples)
        assert from_lists == from_tuples
        assert forge_module._to_json(from_lists) == forge_module._to_json(from_tuples)

    def test_validation(self):
        with pytest.raises(ValueError):
            ForgeConfig(num_examples=0)
        with pytest.raises(ValueError):
            ForgeConfig(extra_adverbs=-1)
        with pytest.raises(ValueError):
            ForgeConfig(no_adverb_prob=1.5)

    @pytest.mark.parametrize(
        "data",
        [
            {"seed": 7.0},
            {"seed": True},
            {"seed": "7"},
            {"grid_size": 6.0},
            {"num_examples": "20"},
            {"extra_adverbs": False},
            {"max_depth": None},
            {"retry_limit": 50.0},
            {"distractors": [0, "3"]},
            {"distractors": [0, 1, 2]},
            {"distractors": 3},
            {"no_adverb_prob": "0.2"},
            {"no_adverb_prob": True},
            {"meta": 3},
            {"meta": ["type_weights"]},
            {"splits": {"kind": "random", "name": "r", "test_fraction": 0.1}},
            {"splits": "random"},
            {"pinned_adverbs": [3]},
            {"pinned_adverbs": "name: x\nmode: egocentric\nwalk -> stay walk\n"},
        ],
    )
    def test_mistyped_values_rejected(self, data):
        (key,) = data
        with pytest.raises(ValueError, match=f"^{key} must be"):
            ForgeConfig.from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"distractors": [3, 1]},
            {"distractors": [-1, 2]},
            {"grid_size": 1},
            {"num_examples": 0},
            {"extra_adverbs": -1},
            {"max_depth": 0},
            {"retry_limit": 0},
        ],
    )
    def test_out_of_range_values_rejected(self, data):
        (key,) = data
        with pytest.raises(ValueError, match=f"^{key} must be"):
            ForgeConfig.from_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "config must be an object, not []"),
            ("seed", "config must be an object, not 'seed'"),
            ({"splits": [3]}, "split spec must be an object, not 3"),
            ({"splits": [["kind", "name"]]}, "split spec must be an object, not ['kind', 'name']"),
        ],
    )
    def test_non_objects_rejected(self, data, message):
        with pytest.raises(ValueError) as err:
            ForgeConfig.from_dict(data)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "random", "name": "r", "test_fraction": 0.5, "predicate": "has_adverb"},
             "random split does not take predicate"),
            ({"kind": "k_shot_adverb", "name": "k", "surface": "cautiously", "k": 5, "verb": "pull"},
             "k_shot_adverb split does not take verb"),
            ({"kind": "verb_adverb_holdout", "name": "v", "verb": "pull", "surface": "cautiously", "k": 5},
             "verb_adverb_holdout split does not take k"),
            ({"kind": "type_subset", "name": "t", "surfaces": ["cautiously"], "test_fraction": 0.1},
             "type_subset split does not take test_fraction"),
            ({"kind": "predicate", "name": "p", "predicate": "no_adverb", "surface": "cautiously"},
             "predicate split does not take surface"),
            ({"kind": "type_subset", "name": "t", "allowed_types": ["spinning_type"], "surfaces": ["cautiously"]},
             "type_subset split takes exactly one of allowed_types and surfaces"),
            ({"kind": "type_subset", "name": "t"},
             "type_subset split takes exactly one of allowed_types and surfaces"),
            ({"kind": "type_subset", "name": "t", "allowed_types": ["spinning_type", "sneaky_type"]},
             "unknown adverb type 'sneaky_type'"),
        ],
    )
    def test_split_spec_takes_only_the_keys_its_kind_reads(self, spec, message):
        with pytest.raises(ValueError) as err:
            ForgeConfig.from_dict({"splits": [spec]})
        assert str(err.value) == message

    def test_split_names_must_be_unique(self):
        # Two random splits of one name: the records' "split" and splits.json would disagree.
        twice = (SplitSpec(kind="random", name="r", test_fraction=0.5),
                 SplitSpec(kind="k_shot_adverb", name="k", surface="cautiously", k=1),
                 SplitSpec(kind="random", name="r", test_fraction=0.1))
        with pytest.raises(ValueError, match="^split name 'r' is used more than once$"):
            ForgeConfig(splits=twice)
        ForgeConfig(splits=twice[:2])

    def test_smallest_ranges_accepted(self):
        cfg = ForgeConfig.from_dict(
            {"distractors": [2, 2], "grid_size": 2, "max_depth": 1, "retry_limit": 1}
        )
        assert (cfg.distractors, cfg.grid_size, cfg.max_depth, cfg.retry_limit) == ((2, 2), 2, 1, 1)

    def test_integer_probability_accepted(self):
        assert ForgeConfig.from_dict({"no_adverb_prob": 1}).no_adverb_prob == 1

    def test_missing_keys_take_dataclass_defaults(self):
        assert ForgeConfig.from_dict({}) == ForgeConfig()
        assert ForgeConfig.from_dict({"meta": {}}) == ForgeConfig()

    @pytest.mark.parametrize(
        "data",
        [
            {"num_exmaples": 5},
            {"meta": {"type_weight": {"spinning_type": 1.0}}},
            {"splits": [{"kind": "random", "name": "r", "test_fracton": 0.1}]},
        ],
    )
    def test_unknown_keys_rejected(self, data):
        with pytest.raises(UnknownConfigKey):
            ForgeConfig.from_dict(data)
