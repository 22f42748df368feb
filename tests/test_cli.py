import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import mannerforge
from mannerforge import forge as forge_module
from mannerforge.cli import build_parser, main
from mannerforge.dsl import parse_program
from mannerforge.forge import ForgeConfig, SplitSpec, forge_dataset, read_dataset
from mannerforge.pipeline import BUILTIN_SURFACES
from mannerforge.world import world_to_dict, GridObject, Position, WorldState

from conftest import edit_manifest

SPIN = "turn_left turn_left turn_left turn_left"
CAUTIOUS_OUT = (
    "turn_left turn_left turn_right turn_right turn_left walk "
    "turn_left turn_right turn_right turn_left walk "
    "turn_left turn_left turn_right turn_right turn_left walk "
    "turn_left turn_right turn_right turn_left walk"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_ground(capsys):
    code, out, _ = run(capsys, "ground", "--input", "North North West", "--heading", "east")
    assert code == 0
    assert out == "turn_left walk walk turn_left walk"


def test_transform_builtin_cautiously(capsys):
    code, out, _ = run(
        capsys, "transform", "--program", "cautiously",
        "--input", "turn_left walk walk turn_left walk walk", "--heading", "east",
    )
    assert code == 0
    assert out == CAUTIOUS_OUT


def test_transform_program_file(capsys, tmp_path):
    path = tmp_path / "wander.adv"
    path.write_text("name: while wandering\nmode: allocentric\nEast -> North East South\n")
    code, out, _ = run(capsys, "transform", "--program", str(path),
                       "--input", "East", "--heading", "east")
    assert code == 0
    assert out == "turn_left walk turn_right walk turn_right walk"


def test_solve_with_world_file(capsys, tmp_path):
    world = WorldState(
        grid_size=6,
        agent_position=Position(2, 1),
        agent_heading="north",
        objects=(GridObject("circle", "red", 2, Position(1, 1)),),
        target_index=0,
    )
    path = tmp_path / "world.json"
    path.write_text(json.dumps(world_to_dict(world)))
    code, out, _ = run(capsys, "solve", "--world", str(path), "--command", "walk to a circle")
    assert code == 0
    assert out == "walk"


def test_solve_rejects_bad_world_file(capsys, tmp_path):
    world = WorldState(
        grid_size=6,
        agent_position=Position(2, 1),
        agent_heading="north",
        objects=(GridObject("circle", "red", 2, Position(1, 1)),),
        target_index=0,
    )
    data = world_to_dict(world)
    data["objects"][0]["shape"] = "triangle"
    path = tmp_path / "world.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "solve", "--world", str(path), "--command", "walk to a circle")
    assert code == 1
    assert out == ""
    assert err.startswith("error[ConfigError]: objects[0].shape must be one of")


def test_solve_refuses_a_command_naming_another_object(capsys, tmp_path):
    world = WorldState(
        grid_size=6,
        agent_position=Position(4, 1),
        agent_heading="north",
        objects=(
            GridObject("circle", "red", 2, Position(1, 1)),
            GridObject("square", "blue", 2, Position(4, 4)),
        ),
        target_index=0,
    )
    path = tmp_path / "world.json"
    path.write_text(json.dumps(world_to_dict(world)))
    for command in ("push a square", "walk to a square"):
        code, out, err = run(capsys, "solve", "--world", str(path), "--command", command)
        assert code == 1
        assert out == ""
        assert err == f"error[NoReferent]: {command!r} names object 1, not the world's target, object 0"


def test_solve_with_sampled_registry(capsys, tmp_path):
    forge_dataset(ForgeConfig(seed=3, num_examples=40, extra_adverbs=4), str(tmp_path / "ds"))
    example = next(
        ex for ex in read_dataset(str(tmp_path / "ds")).examples
        if ex.adverb_surface and ex.adverb_surface not in BUILTIN_SURFACES
    )
    world_path = tmp_path / "world.json"
    world_path.write_text(json.dumps(world_to_dict(example.world)))
    code, out, _ = run(
        capsys, "solve", "--world", str(world_path), "--command", " ".join(example.command),
        "--registry", str(tmp_path / "ds" / "registry.txt"),
    )
    assert code == 0
    assert out == " ".join(example.target)


def test_sample_adverbs_writes_parseable_registry(capsys, tmp_path):
    out_file = tmp_path / "registry.txt"
    code, out, _ = run(capsys, "sample-adverbs", "--n", "8", "--seed", "3",
                       "--out", str(out_file),
                       "--weights", "spinning=0.5,cautiously=0.25,detour=0.25")
    assert code == 0
    blocks = [b for b in out_file.read_text().split("\n\n") if b.strip()]
    assert len(blocks) == 8
    for block in blocks:
        parse_program(block)


def test_sample_adverbs_writes_the_forged_registry(capsys, tmp_path):
    forge_dataset(ForgeConfig(seed=7, num_examples=1, extra_adverbs=150), str(tmp_path / "ds"))
    out_file = tmp_path / "registry.txt"
    code, _, _ = run(capsys, "sample-adverbs", "--n", "150", "--seed", "7", "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == (tmp_path / "ds" / "registry.txt").read_bytes()


def test_sample_adverbs_refuses_a_negative_count(capsys, tmp_path):
    out_file = tmp_path / "registry.txt"
    code, out, err = run(capsys, "sample-adverbs", "--n", "-3", "--out", str(out_file))
    assert code == 1
    assert out == ""
    assert err == "error[ConfigError]: count must be at least 0, not -3"
    assert not out_file.exists()


def test_sample_adverbs_weight_keys_take_an_optional_type_suffix(capsys, tmp_path):
    short, full = tmp_path / "short.txt", tmp_path / "full.txt"
    run(capsys, "sample-adverbs", "--n", "12", "--seed", "3", "--out", str(short),
        "--weights", "spinning=0.5,cautiously=0.25,detour=0.25")
    run(capsys, "sample-adverbs", "--n", "12", "--seed", "3", "--out", str(full),
        "--weights", "spinning_type=0.5,cautiously_type=0.25,detour_type=0.25")
    assert short.read_bytes() == full.read_bytes()
    code, _, err = run(capsys, "sample-adverbs", "--n", "1", "--out", str(tmp_path / "x.txt"),
                       "--weights", "spinning_typo=1")
    assert code == 1
    assert "unknown adverb type in --weights: 'spinning_typo'" in err


@pytest.mark.parametrize("entry", ["spinning", "spinning=", "spinning=half"])
def test_sample_adverbs_names_a_weight_entry_with_no_number(capsys, tmp_path, entry):
    out_file = tmp_path / "registry.txt"
    code, _, err = run(capsys, "sample-adverbs", "--n", "5", "--out", str(out_file),
                       "--weights", f"{entry},cautiously=0.5,detour=0.5")
    assert code == 1
    assert err == f"error[MannerforgeError]: --weights entry {entry!r} must be type=number"
    assert not out_file.exists()


@pytest.mark.parametrize("spelling", ["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity"])
def test_sample_adverbs_refuses_a_non_finite_weight(capsys, tmp_path, spelling):
    out_file = tmp_path / "registry.txt"
    code, _, err = run(capsys, "sample-adverbs", "--n", "5", "--out", str(out_file),
                       "--weights", f"spinning={spelling},cautiously=0.5,detour=0.5")
    assert code == 1
    assert err == f"error[ConfigError]: type_weights['spinning_type'] must be a finite number, not {float(spelling)!r}"
    assert not out_file.exists()


def test_forge_seed_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FORGE_SEED", "77")
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run(capsys, "sample-adverbs", "--n", "3", "--out", str(a))
    run(capsys, "sample-adverbs", "--n", "3", "--out", str(b))
    assert a.read_text() == b.read_text()
    monkeypatch.setenv("FORGE_SEED", "78")
    c = tmp_path / "c.txt"
    run(capsys, "sample-adverbs", "--n", "3", "--out", str(c))
    assert a.read_text() != c.read_text()
    monkeypatch.setenv("FORGE_SEED", "-12")
    run(capsys, "sample-adverbs", "--n", "3", "--out", str(tmp_path / "env.txt"))
    run(capsys, "sample-adverbs", "--n", "3", "--seed", "-12", "--out", str(tmp_path / "flag.txt"))
    assert (tmp_path / "env.txt").read_text() == (tmp_path / "flag.txt").read_text()
    # generate takes the seed from $FORGE_SEED when the config has none.
    config = tmp_path / "seedless.json"
    config.write_text(json.dumps({"num_examples": 30}))
    code, _, _ = run(capsys, "generate", "--config", str(config), "--extra-adverbs", "3", "--out", str(tmp_path / "ds"))
    assert code == 0
    manifest = forge_dataset(ForgeConfig(seed=-12, num_examples=30, extra_adverbs=3), str(tmp_path / "expected"))
    assert read_dataset(str(tmp_path / "ds")).manifest == manifest


@pytest.mark.parametrize("raw", ["abc", "1_0", " 7", "7.0", "+7", "--7", "٣"])
@pytest.mark.parametrize("command", [
    ["generate", "--config", "{config}", "--out", "{out}"],
    ["sample-adverbs", "--n", "3", "--out", "{out}"],
])
def test_forge_seed_must_be_an_integer(capsys, tmp_path, monkeypatch, raw, command):
    # The config pins no seed, so generate falls back to $FORGE_SEED as sample-adverbs does.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"num_examples": 5}))
    out = tmp_path / "out"
    monkeypatch.setenv("FORGE_SEED", raw)
    code, _, err = run(capsys, *(arg.format(config=config, out=out) for arg in command))
    assert code == 1
    assert err == f"error[ConfigError]: FORGE_SEED must be an integer, not {raw!r}"
    assert not out.exists()


# Every integer option, in a command line that is complete but for its value.
INTEGER_OPTIONS = [
    ["generate", "--seed", "{v}", "--num-examples", "5", "--out", "{out}"],
    ["generate", "--extra-adverbs", "{v}", "--num-examples", "5", "--out", "{out}"],
    ["generate", "--num-examples", "{v}", "--out", "{out}"],
    ["generate", "--num-examples", "5", "--jobs", "{v}", "--out", "{out}"],
    ["sample-adverbs", "--n", "{v}", "--out", "{out}"],
    ["sample-adverbs", "--n", "2", "--seed", "{v}", "--out", "{out}"],
    ["transform", "--program", "cautiously", "--input", "walk", "--heading", "east",
     "--max-depth", "{v}"],
    ["inspect", "--dataset", "{out}", "--index", "{v}"],
]


@pytest.mark.parametrize("command", INTEGER_OPTIONS, ids=lambda c: f"{c[0]}{c[c.index('{v}') - 1]}")
def test_integer_options_read_only_decimal_digits(capsys, tmp_path, command):
    out = tmp_path / "out"
    argv = [arg.format(v="1_0", out=out) for arg in command]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    option = command[command.index("{v}") - 1]
    assert f"argument {option}: invalid integer value: '1_0'" in capsys.readouterr().err
    assert not out.exists()
    args = build_parser().parse_args([arg.format(v="-3", out=out) for arg in command])
    assert getattr(args, option[2:].replace("-", "_")) == -3


def test_generate_stats_inspect_evaluate_flow(capsys, tmp_path):
    cfg = {
        "seed": 5,
        "num_examples": 120,
        "extra_adverbs": 4,
        "splits": [
            {"kind": "random", "name": "random", "test_fraction": 0.25},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "ds"

    code, out, _ = run(capsys, "generate", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == 0
    assert "wrote 120 examples" in out

    code, out, _ = run(capsys, "stats", "--dataset", str(out_dir))
    assert code == 0
    stats = json.loads(out)
    assert stats["num_examples"] == 120

    code, out, _ = run(capsys, "inspect", "--dataset", str(out_dir), "--index", "0")
    assert code == 0
    assert "command:" in out and "target:" in out
    ex = next(ex for ex in read_dataset(str(out_dir)).examples if ex.adverb_surface)
    code, out, _ = run(capsys, "inspect", "--dataset", str(out_dir), "--index", str(ex.index))
    assert code == 0
    assert f"\nadverb:  {ex.adverb_surface} ({ex.adverb_type})\n" in out

    # gold predictions from the persisted records
    preds_path = tmp_path / "preds.ndrec"
    with open(out_dir / "examples.ndrec") as fh, open(preds_path, "w") as out_fh:
        for line in fh:
            record = json.loads(line)
            out_fh.write(json.dumps(
                {"index": record["index"], "prediction": record["target"]}) + "\n")
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "evaluate", "--dataset", str(out_dir), "--split", "random",
                       "--predictions", str(preds_path), "--report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["splits"]["random"]["exact_match_percent"] == "100.00"


def test_generate_with_preset_name(capsys, tmp_path):
    # Small corpus for speed, but large enough that the preset's k-shot split
    # finds its five "cautiously" examples.
    out_dir = tmp_path / "ds"
    code, out, _ = run(capsys, "generate", "--config", "vocab_x10",
                       "--num-examples", "400", "--seed", "1", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "manifest").exists()


def test_presets_listed(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    names = out.splitlines()
    assert "vocab_x150" in names
    assert "kshot_k5" in names
    assert "types_one_cautiously" in names


def test_domain_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "stats", "--dataset", str(tmp_path / "missing"))
    assert code == 1
    assert "error[" in err


def test_manifest_that_is_no_object_is_domain_error(capsys, tmp_path):
    (tmp_path / "manifest").write_text("[]\n")
    code, _, err = run(capsys, "stats", "--dataset", str(tmp_path))
    assert code == 1
    assert err == "error[SchemaMismatch]: manifest must be an object, not []"


def test_unknown_program_is_domain_error(capsys):
    code, _, err = run(capsys, "transform", "--program", "sideways",
                       "--input", "North", "--heading", "east")
    assert code == 1
    assert "error[MannerforgeError]" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["ground", "--heading", "east"])  # missing --input
    assert err.value.code == 2


def test_bad_symbol_is_domain_error(capsys):
    code, _, err = run(capsys, "ground", "--input", "North fly", "--heading", "east")
    assert code == 1
    assert "error[ConfigError]" in err


def test_unknown_split_is_domain_error(capsys, tmp_path):
    out_dir = tmp_path / "ds"
    splits = (SplitSpec("random", "random", test_fraction=0.25),
              SplitSpec("random", "other", test_fraction=0.5))
    cfg = ForgeConfig(seed=2, num_examples=40, extra_adverbs=0, splits=splits)
    forge_dataset(cfg, str(out_dir))
    preds_path = tmp_path / "preds.ndrec"
    preds_path.write_text("")
    code, _, err = run(capsys, "evaluate", "--dataset", str(out_dir), "--split", "nope",
                       "--predictions", str(preds_path))
    assert code == 1
    assert "error[UnknownSplit]" in err
    assert "'nope'" in err
    assert "known splits: other, random" in err


def test_inspect_unknown_index_is_named(capsys, tmp_path):
    out_dir = tmp_path / "ds"
    forge_dataset(ForgeConfig(seed=3, num_examples=20), str(out_dir))
    code, _, err = run(capsys, "inspect", "--dataset", str(out_dir), "--index", "999")
    assert code == 1
    assert "error[UnknownIndex]" in err
    assert "999" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_generate_rejects_jobs_below_one(capsys, tmp_path, jobs):
    out_dir = tmp_path / "ds"
    code, _, err = run(capsys, "generate", "--num-examples", "20", "--jobs", jobs,
                       "--out", str(out_dir))
    assert code == 1
    assert "error[ConfigError]: jobs must be at least 1" in err
    assert not out_dir.exists()


def test_generate_rejects_mistyped_config_value(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 7.0, "num_examples": 5}))
    out_dir = tmp_path / "ds"
    code, _, err = run(capsys, "generate", "--config", str(config), "--out", str(out_dir))
    assert code == 1
    assert "error[ConfigError]: seed must be an integer, not 7.0" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "data, message",
    [
        ({"distractors": [3, 1]}, "distractors must be [min, max] with 0 <= min <= max, not (3, 1)"),
        ({"grid_size": 1}, "grid_size must be at least 2, not 1"),
        ({"meta": {"type_weights": {"spinning_type": "1"}}},
         "type_weights['spinning_type'] must be a number, not '1'"),
        ({"meta": {"prefix_len_range": [2.0, 8]}}, "prefix_len_range must be two integers, not (2.0, 8)"),
        ({"splits": [{"kind": "k_shot_adverb", "name": "k", "surface": "cautiously", "k": "5"}]},
         "k must be an integer, not '5'"),
        ({"splits": [{"kind": "random", "name": "r", "test_fraction": "0.1"}]},
         "test_fraction must be a number, not '0.1'"),
        ({"meta": 3}, "meta must be an object, not 3"),
        ({"splits": [3]}, "split spec must be an object, not 3"),
        ({"splits": {"kind": "random", "name": "r"}}, "splits must be a list, not {'kind': 'random', 'name': 'r'}"),
        ({"pinned_adverbs": [3]}, "pinned_adverbs must be a list of strings, not (3,)"),
        ({"splits": [{"kind": "predicate", "name": "p", "predicate": "walks"}]},
         "predicate must be one of ('has_adverb', 'no_adverb'), not 'walks'"),
        ({"splits": [{"kind": "random", "name": "r", "test_fraction": 0.5},
                     {"kind": "random", "name": "r", "test_fraction": 0.1}]},
         "split name 'r' is used more than once"),
        ({"splits": [{"kind": "random", "name": "r", "test_fraction": 0.5, "predicate": "has_adverb"}]},
         "random split does not take predicate"),
        # Integers beyond the largest float: summing one into a float raises OverflowError.
        ({"meta": {"type_weights": {"spinning_type": 10**400, "cautiously_type": 0.5, "detour_type": 0.5}}},
         "type_weights['spinning_type'] must be a number a float can hold, not an integer this large"),
        ({"splits": [{"kind": "random", "name": "r", "test_fraction": 10**400}]},
         "test_fraction must be a number a float can hold, not an integer this large"),
        ({"no_adverb_prob": -(10**400)}, "no_adverb_prob must be a number a float can hold, not an integer this large"),
        ({"meta": {"max_rejects": -1}}, "max_rejects must be at least 0, not -1"),
    ],
)
def test_generate_rejects_bad_config_value_before_writing(capsys, tmp_path, data, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"num_examples": 5, **data}))
    out_dir = tmp_path / "ds"
    code, _, err = run(capsys, "generate", "--config", str(config), "--out", str(out_dir))
    assert code == 1
    assert err == f"error[ConfigError]: {message}"
    assert not out_dir.exists()


@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "text, key",
    [
        ('{"meta": {"type_weights": {"spinning_type": %s, "cautiously_type": 0.5, "detour_type": 0.5}}}',
         "type_weights['spinning_type']"),
        ('{"splits": [{"kind": "random", "name": "r", "test_fraction": %s}]}', "test_fraction"),
        ('{"no_adverb_prob": %s}', "no_adverb_prob"),
    ],
)
def test_generate_refuses_a_non_finite_number(capsys, tmp_path, spelling, text, key):
    # json.load reads NaN and the infinities; every comparison with NaN is false.
    config = tmp_path / "config.json"
    config.write_text(text % spelling)
    out_dir = tmp_path / "ds"
    code, _, err = run(capsys, "generate", "--config", str(config), "--num-examples", "5",
                       "--out", str(out_dir))
    assert code == 1
    assert err == f"error[ConfigError]: {key} must be a finite number, not {float(spelling)!r}"
    assert not out_dir.exists()


def test_generate_refuses_a_pinned_program_deeper_than_max_depth(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"num_examples": 5, "max_depth": 2, "pinned_adverbs": [
        "name: deeply\nmode: egocentric\npasses: 3\nwalk -> stay walk\n"]}))
    out_dir = tmp_path / "ds"
    code, _, err = run(capsys, "generate", "--config", str(config), "--out", str(out_dir))
    assert code == 1
    assert err == "error[DepthExceeded]: pinned adverb 'deeply' needs 3 passes, max_depth is 2"
    assert not out_dir.exists()


@pytest.mark.parametrize("text", ["[]", "3", '"vocab_x150"', "null"])
@pytest.mark.parametrize("seed", [[], ["--seed", "4"]])
def test_generate_rejects_config_that_is_no_object(capsys, tmp_path, text, seed):
    config = tmp_path / "config.json"
    config.write_text(text)
    out_dir = tmp_path / "ds"
    code, _, err = run(capsys, "generate", "--config", str(config), *seed, "--out", str(out_dir))
    assert code == 1
    assert err == f"error[ConfigError]: config must be an object, not {json.loads(text)!r}"
    assert not out_dir.exists()


# One split of each kind; CI forges the same config through the console script.
ALL_SPLIT_KINDS = {
    "seed": 12,
    "num_examples": 600,
    "extra_adverbs": 10,
    "splits": [
        {"kind": "random", "name": "random", "test_fraction": 0.2},
        {"kind": "k_shot_adverb", "name": "cautiously_k5", "surface": "cautiously", "k": 5},
        {"kind": "verb_adverb_holdout", "name": "pull_spin", "verb": "pull", "surface": "while spinning"},
        {"kind": "type_subset", "name": "no_cautiously",
         "allowed_types": ["spinning_type", "zigzag_type", "detour_type"]},
        {"kind": "predicate", "name": "adverbless", "predicate": "no_adverb"},
    ],
}


def test_every_split_kind_reforges_in_a_fresh_interpreter(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(ALL_SPLIT_KINDS))
    forge_dataset(ForgeConfig.from_dict(ALL_SPLIT_KINDS), str(tmp_path / "here"))
    src = os.path.dirname(os.path.dirname(mannerforge.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "1"}
    subprocess.run(
        [sys.executable, "-m", "mannerforge.cli", "generate", "--config", str(config),
         "--out", str(tmp_path / "fresh")],
        env=env, check=True, capture_output=True,
    )
    manifest = (tmp_path / "here" / "manifest").read_bytes()
    assert (tmp_path / "fresh" / "manifest").read_bytes() == manifest
    counts = json.loads(manifest)["counts"]
    assert sorted(counts) == sorted(s["name"] for s in ALL_SPLIT_KINDS["splits"])
    assert all(sum(c.values()) == ALL_SPLIT_KINDS["num_examples"] for c in counts.values())


CIRCLE_WORLD = json.dumps(world_to_dict(WorldState(
    grid_size=6, agent_position=Position(2, 1), agent_heading="north",
    objects=(GridObject("circle", "red", 2, Position(1, 1)),), target_index=0,
))).encode()
NOT_UTF8 = b"name: caf\xe9 walking\nwalk -> stay walk\n"


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("small") / "ds"
    forge_dataset(ForgeConfig(seed=3, num_examples=20, splits=(SplitSpec("random", "random", test_fraction=0.5),)),
                  str(out_dir))
    return out_dir


def _file(tmp_path, name, data: bytes) -> str:
    (tmp_path / name).write_bytes(data)
    return str(tmp_path / name)


def _dataset_with(tmp_path, dataset, filename, data: bytes) -> str:
    """A copy of `dataset` whose `filename` holds `data`; a listed file's digest is updated."""
    out_dir = tmp_path / "copy"
    shutil.copytree(dataset, out_dir)
    (out_dir / filename).write_bytes(data)
    if filename != "manifest":
        edit_manifest(str(out_dir), lambda m: m["files"].update({filename: hashlib.sha256(data).hexdigest()}))
    return str(out_dir)


# JSON nested deeper than the interpreter's recursion limit: the decoder raises
# RecursionError, not ValueError.
DEEP_JSON = b"[" * 100000


def _deep_first_example(dataset) -> bytes:
    """The examples file of `dataset` with its first line nested too deep."""
    lines = (dataset / "examples.ndrec").read_bytes().splitlines(keepends=True)
    return DEEP_JSON + b"\n" + b"".join(lines[1:])


def _evaluate(tmp_path, dataset, line: bytes) -> list:
    preds = _file(tmp_path, "preds.ndrec", line + b"\n")
    return ["evaluate", "--dataset", str(dataset), "--predictions", preds]


# Each outside input a boundary refuses: the argv that hands it over, made from a scratch
# directory and a small dataset, and the start of the one line the refusal prints.
OUTSIDE_INPUT = {
    "config that is not JSON": (
        lambda t, ds: ["generate", "--config", _file(t, "c.json", b"{seed: 1}"), "--out", str(t / "out")],
        "error[ConfigError]: config file "),
    "config that is not UTF-8": (
        lambda t, ds: ["generate", "--config", _file(t, "c.json", b'{"seed": "\xff"}'), "--out", str(t / "out")],
        "error[ConfigError]: config file "),
    "split spec without a kind": (
        lambda t, ds: ["generate", "--config", _file(t, "c.json", b'{"splits": [{"name": "r", "test_fraction": 0.5}]}'),
                       "--out", str(t / "out")],
        "error[ConfigError]: split spec needs a kind and a name"),
    "config that names no file or preset": (
        lambda t, ds: ["generate", "--config", "nosuch", "--out", str(t / "out")],
        "error[MannerforgeError]: no config file or preset named 'nosuch'"),
    "config nested too deep": (
        lambda t, ds: ["generate", "--config", _file(t, "c.json", DEEP_JSON), "--out", str(t / "out")],
        "error[ConfigError]: config file "),
    "world file that is not JSON": (
        lambda t, ds: ["solve", "--world", _file(t, "w.json", b"not json"), "--command", "walk to a circle"],
        "error[ConfigError]: world file "),
    "world file nested too deep": (
        lambda t, ds: ["solve", "--world", _file(t, "w.json", DEEP_JSON), "--command", "walk to a circle"],
        "error[ConfigError]: world file "),
    "program file that is not UTF-8": (
        lambda t, ds: ["transform", "--program", _file(t, "p.adv", NOT_UTF8), "--input", "North", "--heading", "east"],
        "error[ParseError]: line 1, column 10: byte 0xe9 is not UTF-8"),
    "registry file that is not UTF-8": (
        lambda t, ds: ["solve", "--world", _file(t, "w.json", CIRCLE_WORLD), "--command", "walk to a circle",
                       "--registry", _file(t, "r.txt", NOT_UTF8)],
        "error[ParseError]: line 1, column 10: byte 0xe9 is not UTF-8"),
    "dataset registry that is not UTF-8": (
        lambda t, ds: ["stats", "--dataset", _dataset_with(t, ds, "registry.txt", NOT_UTF8)],
        "error[ParseError]: line 1, column 10: byte 0xe9 is not UTF-8"),
    "manifest that is not JSON": (
        lambda t, ds: ["stats", "--dataset", _dataset_with(t, ds, "manifest", b"{")],
        "error[SchemaMismatch]: manifest is not UTF-8 JSON: "),
    "manifest that is not UTF-8": (
        lambda t, ds: ["stats", "--dataset", _dataset_with(t, ds, "manifest", b'{"schema_version": "\xff"}')],
        "error[SchemaMismatch]: manifest is not UTF-8 JSON: "),
    "manifest nested too deep": (
        lambda t, ds: ["stats", "--dataset", _dataset_with(t, ds, "manifest", DEEP_JSON)],
        "error[SchemaMismatch]: manifest is not UTF-8 JSON: maximum recursion depth exceeded"),
    "splits file nested too deep": (
        lambda t, ds: ["stats", "--dataset", _dataset_with(t, ds, "splits.json", DEEP_JSON)],
        "error[MalformedRecord]: "),
    "example line nested too deep": (
        lambda t, ds: ["stats", "--dataset", _dataset_with(t, ds, "examples.ndrec", _deep_first_example(ds))],
        "error[MalformedRecord]: "),
    "prediction line that is no object": (
        lambda t, ds: _evaluate(t, ds, b'"x"'), "error[MalformedRecord]: "),
    "prediction line that is not UTF-8": (
        lambda t, ds: _evaluate(t, ds, b'{"index": 0, "prediction": ["\xff"]}'), "error[MalformedRecord]: "),
    "prediction line nested too deep": (
        lambda t, ds: _evaluate(t, ds, DEEP_JSON), "error[MalformedRecord]: "),
}


@pytest.mark.parametrize("argv, start", OUTSIDE_INPUT.values(), ids=OUTSIDE_INPUT.keys())
def test_every_boundary_refuses_bad_input_as_a_domain_error(capsys, tmp_path, small_dataset, argv, start):
    # main catches MannerforgeError and OSError only: anything else raises here instead.
    code, out, err = run(capsys, *argv(tmp_path, small_dataset))
    assert code == 1
    assert out == ""
    assert err.startswith(start)
    assert "\n" not in err  # one error line, no traceback
    assert not (tmp_path / "out").exists()


def test_cli_import_loads_no_pool_or_logging_module():
    # The worker pool's module imports logging; only a forge with jobs > 1 imports it.
    src = os.path.dirname(os.path.dirname(mannerforge.__file__))
    script = "import sys, mannerforge.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                            check=True, capture_output=True, text=True)
    assert result.stdout == "[]\n"


def test_an_internal_key_error_is_not_reported_as_bad_input(capsys, tmp_path, monkeypatch):
    # A string missing from the serializer's vocabulary is a bug in the program, not in
    # the config: main lets it through, with its traceback, instead of `error[KeyError]`.
    monkeypatch.delitem(forge_module._VOCAB_JSON, "red")
    with pytest.raises(KeyError, match="'red'"):
        main(["generate", "--num-examples", "50", "--seed", "1", "--out", str(tmp_path / "ds")])
    assert capsys.readouterr().err == ""
