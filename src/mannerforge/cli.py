"""Command-line interface.

Subcommands cover the full workflow: forging datasets, sampling adverb
registries, applying and grounding manner programs, solving single commands,
and scoring prediction files.  Exit status is 0 on success, 2 for usage
errors, and 1 when input is refused (a MannerforgeError) or a file operation
fails (an OSError), each reported as `error[Type]: message`.  Any other
exception is a bug, and its traceback is shown.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from importlib import resources

from .dsl import builtin_adverbs, decode_text, ground, parse_program, serialize_registry
from .errors import ConfigError, MannerforgeError, require
from .forge import ForgeConfig, forge_dataset, load_json, read_dataset, read_registry
from .harness import dataset_stats, evaluate, read_predictions
from .metagrammar import ADVERB_TYPES, MetaGrammarConfig, sample_registry
from .pipeline import solve, transform
from .seeding import derive_rng
from .symbols import parse_symbols, require_heading
from .world import parse_command, render_world, world_from_dict

SEED_ENV = "FORGE_SEED"


def integer(text: str) -> int:
    """`text` as an int if it is an optional `-` and decimal digits (so not `1_0`,
    `+1` or ` 1`, which int() reads too), else ConfigError, a ValueError as argparse's
    type check needs."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ConfigError(f"must be an integer, not {text!r}")
    return int(text)


def _fallback_seed() -> int | None:
    """$FORGE_SEED as an integer, None if unset or empty."""
    raw = os.environ.get(SEED_ENV)
    if not raw:
        return None
    try:
        return integer(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV} {exc}") from None


def _read_json(path: str, what: str):
    """The JSON value of the file at `path`; ConfigError naming the file if it is not UTF-8 JSON."""
    with open(path, "rb") as fh:
        return load_json(fh.read(), lambda reason: ConfigError(f"{what} {path!r} is not UTF-8 JSON: {reason}"))


def _load_config(value: str) -> dict:
    """The JSON object of the config file or preset named `value`."""
    preset = resources.files("mannerforge").joinpath("presets", f"{value}.json")
    if os.path.exists(value):
        data = _read_json(value, "config file")
    elif preset.is_file():
        data = load_json(preset.read_bytes(),
                         lambda reason: ConfigError(f"preset {value!r} is not UTF-8 JSON: {reason}"))
    else:
        raise MannerforgeError(f"no config file or preset named {value!r}")
    return require("config", data, dict)  # checked before the options are set in it


def _preset_names() -> list[str]:
    folder = resources.files("mannerforge").joinpath("presets")
    return sorted(p.name[: -len(".json")] for p in folder.iterdir() if p.name.endswith(".json"))


def _parse_weights(text: str) -> dict:
    """`spinning=0.4,...`: each key is an adverb type, `_type` optional."""
    weights = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        adverb_type = key if key in ADVERB_TYPES else key + "_type"
        if adverb_type not in ADVERB_TYPES:
            raise MannerforgeError(f"unknown adverb type in --weights: {key!r}")
        try:
            weights[adverb_type] = float(value)
        except ValueError:
            raise MannerforgeError(f"--weights entry {part!r} must be type=number") from None
    return weights


def _resolve_program(name_or_path: str):
    for program in builtin_adverbs():
        if program.surface == name_or_path:
            return program
    if os.path.exists(name_or_path):
        with open(name_or_path, "rb") as fh:
            return parse_program(decode_text(fh.read()))
    raise MannerforgeError(f"no built-in adverb or program file named {name_or_path!r}")


def _cmd_generate(args) -> int:
    data = _load_config(args.config) if args.config else {}
    if args.seed is not None:
        data["seed"] = args.seed
    elif "seed" not in data:
        env = _fallback_seed()
        if env is not None:
            data["seed"] = env
    if args.extra_adverbs is not None:
        data["extra_adverbs"] = args.extra_adverbs
    if args.num_examples is not None:
        data["num_examples"] = args.num_examples
    cfg = ForgeConfig.from_dict(data)
    manifest = forge_dataset(cfg, args.out, jobs=args.jobs)
    print(f"wrote {manifest['num_examples']} examples to {args.out}")
    for name, counts in sorted(manifest["counts"].items()):
        dropped = f", dropped {counts['dropped']}" if counts["dropped"] else ""
        print(f"  split {name}: train {counts['train']}, test {counts['test']}{dropped}")
    return 0


def _cmd_sample_adverbs(args) -> int:
    seed = args.seed if args.seed is not None else (_fallback_seed() or 0)
    cfg = MetaGrammarConfig(type_weights=_parse_weights(args.weights)) if args.weights else MetaGrammarConfig()
    programs = sample_registry(derive_rng(seed, "registry"), args.n, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_registry(programs))
    print(f"wrote {len(programs)} adverb programs to {args.out}")
    return 0


def _cmd_transform(args) -> int:
    program = _resolve_program(args.program)
    sequence = parse_symbols(args.input)
    heading = require_heading(args.heading)
    actions, _ = transform(sequence, program, heading, args.max_depth)
    print(" ".join(actions))
    return 0


def _cmd_ground(args) -> int:
    sequence = parse_symbols(args.input)
    heading = require_heading(args.heading)
    print(" ".join(ground(sequence, heading)[0]))
    return 0


def _cmd_solve(args) -> int:
    world = world_from_dict(_read_json(args.world, "world file"))
    command = parse_command(args.command.split())
    lexicon = read_registry(args.registry) if args.registry else None
    print(" ".join(solve(command, world, lexicon)))
    return 0


def _cmd_evaluate(args) -> int:
    dataset = read_dataset(args.dataset)
    predictions = read_predictions(args.predictions)
    names = [args.split] if args.split else None
    report = evaluate(dataset, predictions, split_names=names)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)
    return 0


def _cmd_stats(args) -> int:
    dataset = read_dataset(args.dataset)
    print(json.dumps(dataset_stats(dataset), indent=2, sort_keys=True))
    return 0


def _cmd_inspect(args) -> int:
    dataset = read_dataset(args.dataset)
    example = dataset.example_by_index(args.index)
    print(render_world(example.world))
    print(f"command: {' '.join(example.command)}")
    if example.adverb_surface:
        print(f"adverb:  {example.adverb_surface} ({example.adverb_type})")
    print(f"target:  {' '.join(example.target)}")
    return 0


def _cmd_presets(args) -> int:
    for name in _preset_names():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mannerforge",
        description="Gridworld instruction datasets with rewrite-rule adverb manners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="forge a dataset from a config file or preset")
    p.add_argument("--config", help="JSON config file path or preset name")
    p.add_argument("--seed", type=integer, help=f"override the config seed (falls back to ${SEED_ENV})")
    p.add_argument("--extra-adverbs", type=integer, help="override the sampled adverb count")
    p.add_argument("--num-examples", type=integer, help="override the example count")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=integer, default=1, help="worker processes")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("sample-adverbs", help="sample a registry of novel adverb programs")
    p.add_argument("--n", type=integer, required=True, help="number of programs")
    p.add_argument("--weights", help="type weights, e.g. spinning=0.4,cautiously=0.3,detour=0.3")
    p.add_argument("--seed", type=integer, help=f"sampling seed (falls back to ${SEED_ENV})")
    p.add_argument("--out", required=True, help="output registry file")
    p.set_defaults(fn=_cmd_sample_adverbs)

    p = sub.add_parser("transform", help="apply a manner program and ground the result")
    p.add_argument("--program", required=True, help="built-in adverb name or program file")
    p.add_argument("--input", required=True, help="space-separated symbol sequence")
    p.add_argument("--heading", required=True, help="starting heading")
    p.add_argument("--max-depth", type=integer, default=10)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("ground", help="ground a mixed sequence into egocentric actions")
    p.add_argument("--input", required=True, help="space-separated symbol sequence")
    p.add_argument("--heading", required=True, help="starting heading")
    p.set_defaults(fn=_cmd_ground)

    p = sub.add_parser("solve", help="solve a command against a world file")
    p.add_argument("--world", required=True, help="world state JSON file")
    p.add_argument("--command", required=True, help="full command string")
    p.add_argument("--registry", help="optional registry file of extra adverbs")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("evaluate", help="score a predictions file against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", help="evaluate one split (default: all)")
    p.add_argument("--predictions", required=True)
    p.add_argument("--report", help="also write the report JSON here")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("stats", help="print dataset statistics")
    p.add_argument("--dataset", required=True)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("inspect", help="render one example as an ASCII grid")
    p.add_argument("--dataset", required=True)
    p.add_argument("--index", type=integer, required=True)
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("presets", help="list shipped config presets")
    p.set_defaults(fn=_cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MannerforgeError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
