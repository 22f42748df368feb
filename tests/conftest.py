"""Shared fixtures, independent tracing helpers and reference record builders for the test suite."""
from __future__ import annotations

import hashlib
import json
import os

import pytest

from mannerforge import apply_program, builtin_adverbs, ground
from mannerforge.forge import EXAMPLES_FILE, MANIFEST_FILE, MODULE_FILES, REGISTRY_FILE, _generate_one, build_lexicon
from mannerforge.errors import ExhaustedRetries
from mannerforge.world import COLORS, SHAPES, SIZES, GridObject, Position, WorldState, describe_target, world_to_dict

TURN_LEFT_CYCLE = {"east": "north", "north": "west", "west": "south", "south": "east"}
TURN_RIGHT_CYCLE = {v: k for k, v in TURN_LEFT_CYCLE.items()}

_DELTAS = {"north": (-1, 0), "south": (1, 0), "east": (0, 1), "west": (0, -1)}


def trace_cells(ego_sequence, start=(0, 0), heading="east"):
    """Independent cell tracer for egocentric sequences.

    Deliberately re-implements movement from scratch (walk and push move
    forward, pull moves backward, turns rotate, stay idles) so package bugs
    cannot hide behind shared code.  Returns visited cells with consecutive
    duplicates collapsed.
    """
    row, col = start
    h = heading
    cells = [(row, col)]
    for symbol in ego_sequence:
        if symbol == "turn_left":
            h = TURN_LEFT_CYCLE[h]
        elif symbol == "turn_right":
            h = TURN_RIGHT_CYCLE[h]
        elif symbol in ("walk", "push"):
            dr, dc = _DELTAS[h]
            row, col = row + dr, col + dc
            cells.append((row, col))
        elif symbol == "pull":
            dr, dc = _DELTAS[h]
            row, col = row - dr, col - dc
            cells.append((row, col))
        elif symbol == "stay":
            pass
        else:
            raise AssertionError(f"tracer got non-egocentric symbol {symbol!r}")
    collapsed = [cells[0]]
    for cell in cells[1:]:
        if cell != collapsed[-1]:
            collapsed.append(cell)
    return collapsed


def reference_sample_situation(rng, grid_size, distractors, max_attempts=200):
    """sample_situation as it was written before its cell tables and its direct
    draws: the free cells are listed afresh for every attempt, and every draw
    is an rng.choice or rng.randint call."""
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
            GridObject(rng.choice(SHAPES), rng.choice(COLORS), rng.choice(SIZES), cell)
            for cell in (target_pos, *cells)
        ]
        world = WorldState(grid_size, agent_pos, heading, tuple(objects), 0)
        phrase = describe_target(world)
        if phrase is not None:
            return world, phrase
    raise ExhaustedRetries("reference sampler gave up")


def generate_pairs(cfg, lexicon=None):
    """(example, oracle trace) for every index of cfg, in index order, from the forge's
    own per-example generator: the examples forge_dataset(cfg, ...) writes."""
    if lexicon is None:
        lexicon = build_lexicon(cfg)
    surfaces = lexicon.surfaces()
    return [_generate_one(cfg, lexicon, surfaces, i) for i in range(cfg.num_examples)]


# Reference records.  The forge splices its lines from pre-encoded values; these build
# each record whole, from the example and its trace alone, and share no code with it.

def example_to_record(ex, split):
    """The examples.ndrec record of an example on the given side of the first random split."""
    return {
        "index": ex.index,
        "split": split,
        "command": list(ex.command),
        "target": list(ex.target),
        "situation": world_to_dict(ex.world),
        "adverb": {"surface": ex.adverb_surface, "type": ex.adverb_type} if ex.adverb_surface else None,
        "verb": ex.verb,
    }


def module_records(ex, trace):
    """An example's perception, navigation, interaction and transformation records,
    by module, from its oracle trace."""
    p = trace.percept
    percept = {
        "agent": {"row": p.agent_position.row, "col": p.agent_position.col},
        "heading": p.agent_heading,
        "target": {"row": p.target_position.row, "col": p.target_position.col},
    }
    plan = {"mode": trace.plan.mode, "symbols": list(trace.plan.symbols)}
    situation = world_to_dict(ex.world)
    interactions = list(trace.interactions)
    return {
        "perception": {"index": ex.index, "command": list(ex.command), "situation": situation,
                       "target": percept},
        "navigation": {"index": ex.index, "percept": percept, "adverb": ex.adverb_surface, "target": plan},
        "interaction": {"index": ex.index, "percept": percept, "situation": situation, "verb": ex.verb,
                        "arrival_heading": trace.arrival_heading, "target": interactions},
        "transformation": {"index": ex.index, "plan": plan, "interactions": interactions,
                           "adverb": ex.adverb_surface, "start_heading": ex.world.agent_heading,
                           "target": list(ex.target)},
    }


def reference_lines(pairs, test):
    """Each record file's lines, by stream name, for (example, trace) pairs whose indices
    in `test` are on the test side of the first random split."""
    lines = {"examples": [], **{name: [] for name in MODULE_FILES}}
    for ex, trace in pairs:
        split = "test" if ex.index in test else "train"
        for name, record in {"examples": example_to_record(ex, split), **module_records(ex, trace)}.items():
            lines[name].append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    return lines


def persisted_module_records(out_dir):
    """Yield each example's module records as written to a dataset directory,
    one {module: record} dict per example in file order, read back from the
    four module files in lockstep.  The files must agree on length and index."""
    paths = [os.path.join(out_dir, filename) for filename in MODULE_FILES.values()]
    handles = [open(path, encoding="utf-8") for path in paths]
    try:
        for lines in zip(*handles, strict=True):
            records = dict(zip(MODULE_FILES, map(json.loads, lines)))
            assert len({r["index"] for r in records.values()}) == 1, records
            yield records
    finally:
        for fh in handles:
            fh.close()


def joined_target(records, lexicon, max_depth=10):
    """An example's target from its persisted navigation and interaction records: the
    adverb's program applied to the plan joined to the interactions, and grounded from
    the perceived heading, in one call each."""
    navigation, interaction = records["navigation"], records["interaction"]
    sequence = tuple(navigation["target"]["symbols"]) + tuple(interaction["target"])
    if navigation["adverb"] is not None:
        sequence = apply_program(lexicon.lookup(navigation["adverb"]), sequence, max_depth)
    return ground(sequence, navigation["percept"]["heading"])[0]


def edit_manifest(out_dir, edit):
    """Rewrite a dataset's manifest as edit(manifest dict) leaves it."""
    path = os.path.join(out_dir, MANIFEST_FILE)
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)


def write_listed(out_dir, filename, data: bytes):
    """Replace a dataset's file by `data`, and write its digest into the manifest (as the
    registry_digest too, for the registry): the bytes then verify, and only parsing the
    file can find a fault."""
    with open(os.path.join(out_dir, filename), "wb") as fh:
        fh.write(data)
    digest = hashlib.sha256(data).hexdigest()

    def list_digest(manifest):
        manifest["files"][filename] = digest
        if filename == REGISTRY_FILE:
            manifest["registry_digest"] = digest

    edit_manifest(out_dir, list_digest)


def edit_examples(out_dir, edit):
    """Replace a dataset's examples file by edit(its lines, newlines kept) joined; see
    write_listed.  Only decoding a record or counting the lines can find the fault."""
    with open(os.path.join(out_dir, EXAMPLES_FILE), encoding="utf-8") as fh:
        data = "".join(edit(fh.read().splitlines(keepends=True))).encode("utf-8")
    write_listed(out_dir, EXAMPLES_FILE, data)


def corrupt_line(out_dir, k, text="not json"):
    """Replace line k (counted from 1) of a dataset's examples file with `text`; see edit_examples."""
    edit_examples(out_dir, lambda lines: lines[: k - 1] + [text + "\n"] + lines[k:])


@pytest.fixture(scope="session")
def builtins():
    spinning, cautiously, zigzagging, hesitantly = builtin_adverbs()
    return {
        "while spinning": spinning,
        "cautiously": cautiously,
        "while zigzagging": zigzagging,
        "hesitantly": hesitantly,
    }
