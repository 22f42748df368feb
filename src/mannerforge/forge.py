"""Dataset generation, split construction, and deterministic persistence.

Every example is generated from an RNG stream derived from (seed, index), so
corpora are reproducible byte for byte regardless of worker count.  Persisted
files are newline-delimited JSON records with sorted keys and no floating
point fields; the manifest carries a digest of every file so readers can
verify integrity.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import Counter, namedtuple
from collections.abc import Sequence
from contextlib import ExitStack, closing, contextmanager, suppress
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import chain

from .dsl import MODES, decode_text, parse_program, parse_registry, serialize_registry
from .errors import (
    INT_PAIR,
    NUMBER,
    STRINGS,
    ConfigError,
    DepthExceeded,
    DigestMismatch,
    InsufficientExamples,
    MalformedRecord,
    MannerforgeError,
    RetryExhausted,
    SchemaMismatch,
    UnknownConfigKey,
    UnknownIndex,
    require,
)
from .metagrammar import ADVERB_TYPES, MetaGrammarConfig, sample_registry
from .pipeline import (
    BUILTIN_SURFACES,
    Lexicon,
    Percept,
    SolveTrace,
    goal_satisfied,
    solve_trace,
    transform,
)
from .seeding import derive_rng, pick, sample, shuffle
from .symbols import HEADINGS
from .world import (
    COLORS,
    SHAPES,
    VERBS,
    Command,
    WorldState,
    command_fields,
    execute,
    sample_situation,
    world_from_dict,
)

SCHEMA_VERSION = 1

EXAMPLES_FILE = "examples.ndrec"
MODULE_FILES = {
    "perception": "perception.ndrec",
    "navigation": "navigation.ndrec",
    "interaction": "interaction.ndrec",
    "transformation": "transformation.ndrec",
}
# The files with one line per example, by record stream, in writing order.
RECORD_FILES = {"examples": EXAMPLES_FILE, **MODULE_FILES}
# At most, per serialized block: the forge holds one chunk's examples and lines at a
# time.  A 5000-example vocab_x150 forge's traced heap peaks at 5.9 MB with 500 and at
# 2.2 MB with 100; with fewer, the rows, lexicon and caches set the peak instead.
CHUNK_EXAMPLES = 100
REGISTRY_FILE = "registry.txt"
SPLITS_FILE = "splits.json"
MANIFEST_FILE = "manifest"
# The files whose digests the manifest lists: no more and no fewer.
DATASET_FILES = (*RECORD_FILES.values(), REGISTRY_FILE, SPLITS_FILE)


@dataclass(frozen=True)
class Example:
    """One dataset row, as examples.ndrec stores it: a command, its grounded
    situation, and the oracle's egocentric target sequence."""

    index: int
    command: tuple[str, ...]
    world: WorldState
    target: tuple[str, ...]
    verb: str
    adverb_surface: str | None = None
    adverb_type: str | None = None


def _check_keys(data: dict, cls, where: str) -> None:
    unknown = sorted(set(require(where, data, dict)) - {f.name for f in fields(cls)})
    if unknown:
        raise UnknownConfigKey(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


# The keys each split kind reads, besides kind and name; a spec may set no other.
_SPLIT_KEYS = {
    "random": ("test_fraction",),
    "k_shot_adverb": ("surface", "k"),
    "verb_adverb_holdout": ("verb", "surface"),
    "type_subset": ("allowed_types", "surfaces"),
    "predicate": ("predicate",),
}
# The kind of each split spec key but kind, in the order they are checked.
_SPEC_KINDS = {"name": str, "surface": str, "verb": str, "predicate": str, "allowed_types": STRINGS,
               "surfaces": STRINGS, "test_fraction": NUMBER, "k": int}


def _to_json(value):
    """The config JSON of a config value: a dataclass as an object of its fields that are
    not None, a tuple as a list, a dict as a copy; what from_dict reads back."""
    if is_dataclass(value):
        return {f.name: _to_json(v) for f in fields(value) if (v := getattr(value, f.name)) is not None}
    if type(value) is tuple:
        return [_to_json(v) for v in value]
    return dict(value) if type(value) is dict else value


@dataclass(frozen=True)
class SplitSpec:
    """Declarative split description.

    kinds: random (uniform partition), k_shot_adverb (exactly k examples of a
    surface in train, the rest in test), verb_adverb_holdout (every pairing of
    verb and surface in test), type_subset (drop registry adverbs outside the
    allowed types or surfaces from train), predicate (has_adverb or no_adverb examples to test).
    Each kind takes only the keys of _SPLIT_KEYS[kind].
    """

    kind: str
    name: str
    test_fraction: float | None = None
    surface: str | None = None
    k: int | None = None
    verb: str | None = None
    allowed_types: tuple[str, ...] | None = None
    surfaces: tuple[str, ...] | None = None
    predicate: str | None = None

    def __post_init__(self):
        for key, kind in _SPEC_KINDS.items():
            value = getattr(self, key)
            if value is not None or key == "name":
                object.__setattr__(self, key, require(key, value, kind))
        if type(self.kind) is not str or self.kind not in _SPLIT_KEYS:
            raise ConfigError(f"unknown split kind {self.kind!r}")
        for f in fields(self)[2:]:  # after kind and name
            if getattr(self, f.name) is not None and f.name not in _SPLIT_KEYS[self.kind]:
                raise ConfigError(f"{self.kind} split does not take {f.name}")
        if self.kind == "random":
            if self.test_fraction is None or not 0 < self.test_fraction < 1:
                raise ConfigError("random split needs 0 < test_fraction < 1")
        elif self.kind == "k_shot_adverb":
            if not self.surface or self.k is None or self.k < 1:
                raise ConfigError("k_shot_adverb split needs a surface and k >= 1")
        elif self.kind == "verb_adverb_holdout":
            if not self.surface or self.verb not in VERBS:
                raise ConfigError("verb_adverb_holdout split needs a verb and a surface")
        elif self.kind == "type_subset":
            if (self.allowed_types is None) == (self.surfaces is None):
                raise ConfigError("type_subset split takes exactly one of allowed_types and surfaces")
            for t in self.allowed_types or ():
                if t not in ADVERB_TYPES:
                    raise ConfigError(f"unknown adverb type {t!r}")
        else:  # predicate
            require("predicate", self.predicate, ("has_adverb", "no_adverb"))

    @classmethod
    def from_dict(cls, data: dict) -> "SplitSpec":
        _check_keys(data, cls, "split spec")
        if not {"kind", "name"} <= data.keys():
            raise ConfigError("split spec needs a kind and a name")
        return cls(**data)


@dataclass(frozen=True)
class SplitAssignment:
    train: tuple[int, ...]
    test: tuple[int, ...]
    dropped: tuple[int, ...] = ()


_SPLIT_SIDES = {"train", "test", "dropped"}  # a split's keys in splits.json


@dataclass(frozen=True)
class ForgeConfig:
    seed: int = 0
    grid_size: int = 6
    num_examples: int = 1000
    extra_adverbs: int = 0
    meta: MetaGrammarConfig = field(default_factory=MetaGrammarConfig)
    splits: tuple[SplitSpec, ...] = ()
    max_depth: int = 10
    no_adverb_prob: float = 0.2
    distractors: tuple[int, int] = (0, 3)
    retry_limit: int = 50
    pinned_adverbs: tuple[str, ...] = ()

    def __post_init__(self):
        require("seed", self.seed, int)
        for key, least in (("grid_size", 2), ("num_examples", 1), ("extra_adverbs", 0),
                           ("max_depth", 1), ("retry_limit", 1)):
            if require(key, getattr(self, key), int) < least:
                raise ConfigError(f"{key} must be at least {least}, not {getattr(self, key)!r}")
        object.__setattr__(self, "distractors", require("distractors", self.distractors, INT_PAIR))
        if not 0 <= self.distractors[0] <= self.distractors[1]:
            raise ConfigError(f"distractors must be [min, max] with 0 <= min <= max, not {self.distractors!r}")
        if not 0 <= require("no_adverb_prob", self.no_adverb_prob, NUMBER) <= 1:
            raise ConfigError("no_adverb_prob must lie in [0, 1]")
        object.__setattr__(self, "pinned_adverbs", require("pinned_adverbs", self.pinned_adverbs, STRINGS))
        require("meta", self.meta, MetaGrammarConfig)
        object.__setattr__(self, "splits", tuple(  # to_dict writes a tuple's specs as JSON
            require(f"splits[{i}]", spec, SplitSpec) for i, spec in enumerate(self.splits)))
        names = [spec.name for spec in self.splits]
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(f"split name {name!r} is used more than once")

    def to_dict(self) -> dict:
        return _to_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ForgeConfig":
        """Inverse of to_dict.  A missing key takes the field's default; an
        unknown key, here or in `meta` or a split spec, raises UnknownConfigKey."""
        _check_keys(data, cls, "config")
        kwargs = dict(data)
        if "meta" in kwargs:
            _check_keys(kwargs["meta"], MetaGrammarConfig, "meta")
            kwargs["meta"] = MetaGrammarConfig(**kwargs["meta"])
        if "splits" in kwargs:
            kwargs["splits"] = tuple(map(SplitSpec.from_dict, require("splits", kwargs["splits"], list)))
        return cls(**kwargs)


def build_lexicon(cfg: ForgeConfig) -> Lexicon:
    """Pinned programs first (in config order), then the sampled registry."""
    pinned = [parse_program(text) for text in cfg.pinned_adverbs]
    for program in pinned:
        if program.passes > cfg.max_depth:
            raise DepthExceeded(f"pinned adverb {program.surface!r} needs {program.passes} passes, "
                                f"max_depth is {cfg.max_depth}")
    rng = derive_rng(cfg.seed, "registry")
    return Lexicon.build(pinned + sample_registry(rng, cfg.extra_adverbs, cfg.meta))


def _generate_one(cfg: ForgeConfig, lexicon: Lexicon, surfaces, index: int) -> tuple[Example, SolveTrace]:
    """Example `index`, validated by the executor, and the oracle trace its module
    records are written from.  Every index derives its own RNG stream."""
    rng = derive_rng(cfg.seed, "example", index)
    verb = pick(rng.getrandbits, VERBS)
    surface = None if rng.random() < cfg.no_adverb_prob else pick(rng.getrandbits, surfaces)
    adverb = tuple(surface.split()) if surface else None

    for _ in range(cfg.retry_limit):
        world, (size_adj, color) = sample_situation(rng, cfg.grid_size, cfg.distractors)
        command = Command(verb, world.target.shape, color, size_adj, adverb)
        try:
            trace = solve_trace(command, world, lexicon, cfg.max_depth)
            final = execute(world, trace.target)
        except ConfigError:
            raise  # a broken oracle or world invariant, not an unlucky situation
        except MannerforgeError:
            continue
        if not goal_satisfied(verb, world, final):
            continue
        example = Example(
            index=index,
            command=command.tokens(),
            world=world,
            target=trace.target,
            verb=verb,
            adverb_surface=surface,
            adverb_type=lexicon.types[surface] if surface else None,
        )
        return example, trace
    raise RetryExhausted(
        f"example {index}: could not realize verb {verb!r}"
        + (f" with adverb {surface!r}" if surface else "")
        + f" on a {cfg.grid_size}x{cfg.grid_size} grid after {cfg.retry_limit} attempts"
    )


# --- splits -------------------------------------------------------------------

# What split building and the manifest read of an example.
Row = namedtuple("Row", "index verb adverb_surface adverb_type")


def _random_test(spec: SplitSpec, indices, base: int) -> list[int]:
    shuffled = list(indices)
    shuffle(derive_rng(base, "split", spec.name).getrandbits, shuffled)
    return shuffled[: int(len(shuffled) * spec.test_fraction)]


def build_splits(rows, specs, base: int) -> dict[str, SplitAssignment]:
    """Every named split of examples or their `Row`s, drawn from the 64-bit split base.  A kind
    picks its test indices, or type_subset its dropped ones, and train is every other index."""
    rows = list(rows)
    indices = [row.index for row in rows]
    result: dict[str, SplitAssignment] = {}
    for spec in specs:
        test = dropped = ()
        if spec.kind == "random":
            test = _random_test(spec, indices, base)
        elif spec.kind == "k_shot_adverb":
            matching = [row.index for row in rows if row.adverb_surface == spec.surface]
            if len(matching) < spec.k:
                raise InsufficientExamples(
                    f"split {spec.name!r}: {len(matching)} examples of {spec.surface!r}, need {spec.k}")
            shots = set(sample(derive_rng(base, "split", spec.name).getrandbits, matching, spec.k))
            test = [i for i in matching if i not in shots]
        elif spec.kind == "verb_adverb_holdout":
            test = [row.index for row in rows if row.verb == spec.verb and row.adverb_surface == spec.surface]
        elif spec.kind == "type_subset":  # registry adverbs outside the allowed types or surfaces
            dropped = [row.index for row in rows if row.adverb_surface not in (None, *BUILTIN_SURFACES)
                       and (row.adverb_surface not in spec.surfaces if spec.surfaces is not None
                            else row.adverb_type not in spec.allowed_types)]
        else:  # predicate
            test = [row.index for row in rows if (row.adverb_surface is None) == (spec.predicate == "no_adverb")]
        aside = {*test, *dropped}
        result[spec.name] = SplitAssignment(tuple(sorted(i for i in indices if i not in aside)),
                                            tuple(sorted(test)), tuple(sorted(dropped)))
    return result


# --- per-module records --------------------------------------------------------

def recompose(record_tuple, lexicon: Lexicon, max_depth: int = 10) -> tuple[str, ...]:
    """Re-run the transformation module on persisted navigation, interaction,
    and transformation records; the result must equal the example target.  The
    interactions are transformed from the heading the transformed plan ends on."""
    transformation = record_tuple["transformation"]
    adverb = lexicon.lookup(transformation["adverb"]) if transformation["adverb"] else None
    symbols = tuple(transformation["plan"]["symbols"])
    moves, arrival = transform(symbols, adverb, transformation["start_heading"], max_depth)
    actions, _ = transform(tuple(transformation["interactions"]), adverb, arrival, max_depth)
    return moves + actions


# --- persistence ----------------------------------------------------------------

# json.dumps(record, sort_keys=True, separators=(",", ":")), with one encoder for all calls.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; ValueError if it repeats a key, where the last value would win."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError(f"key {next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)!r} is repeated")
    return obj


# json.loads of a str, without its per-call checks, and refusing a repeated key.
_decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode
# Without the hook, for examples.ndrec lines alone, whose bytes the manifest's digest holds:
# the hook adds 3.6 us to a 13.2 us record decode (a record has 8 objects).
_decode_record = json.JSONDecoder().decode


def load_json(data: bytes, error, *args, decode=_decode):
    """The JSON value of `data`, read as strict UTF-8: no BOM, no UTF-16 or UTF-32.  Bytes that
    are not UTF-8 JSON, JSON nested too deep, or an object that repeats a key raise error(*args,
    reason), built only then, so that a caller per line passes its path and line number as they are."""
    try:
        return decode(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(*args, str(exc)) from None


def _strings_only(items: list) -> bool:
    try:
        "".join(items)  # TypeError at the first item that is no string
    except TypeError:
        return False
    return True


_RECORD_KEYS = {"index", "split", "command", "target", "situation", "adverb", "verb"}
_ADVERB_KEYS = {"surface", "type"}
_RECORD_SPLITS = ("train", "test")  # an example record's "split"


def example_from_record(record) -> Example:
    """The example an examples.ndrec record describes.  Its checks run in one pass, in
    this order: keys, index, command, target, verb, split, adverb, the verb as the
    command's first token, the command's grammar (world.command_fields), the adverb as
    its tokens after the shape noun (none for null), then the situation
    (world_from_dict); the first fault raises ConfigError naming its key."""
    if type(record) is not dict:
        raise ConfigError(f"record must be an object, not {record!r}")
    if record.keys() != _RECORD_KEYS:
        key = min(record.keys() ^ _RECORD_KEYS)
        raise ConfigError(f"{'unknown' if key in record else 'missing'} record key {key}")
    index, command, target, verb, adverb = (record["index"], record["command"], record["target"],
                                            record["verb"], record["adverb"])
    if type(index) is not int:
        raise ConfigError(f"index must be an integer, not {index!r}")
    for key, tokens in (("command", command), ("target", target)):
        if type(tokens) is not list or not _strings_only(tokens):  # "".join takes a str too
            raise ConfigError(f"{key} must be a list of strings, not {tokens!r}")
    for key, allowed in (("verb", VERBS), ("split", _RECORD_SPLITS)):
        if record[key] not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, not {record[key]!r}")
    surface = adverb_type = None
    if adverb is not None:
        if type(adverb) is not dict or adverb.keys() != _ADVERB_KEYS:
            raise ConfigError(f"adverb must be null or an object with the keys surface and type, not {adverb!r}")
        surface, adverb_type = adverb["surface"], adverb["type"]
        if type(surface) is not str or not surface:
            raise ConfigError(f"adverb.surface must be a non-empty string, not {surface!r}")
        if adverb_type not in ADVERB_TYPES:
            raise ConfigError(f"adverb.type must be one of {ADVERB_TYPES}, not {adverb_type!r}")
    if command[:1] != [verb]:
        raise ConfigError(f"verb {verb!r} does not begin the command {command!r}")
    tail = command_fields(command)[4] or ()  # the tokens after the shape noun
    if " ".join(tail) != (surface or ""):
        raise ConfigError(f"adverb {surface!r} is not the command's tokens after its shape noun, {list(tail)}")
    return Example(
        index=index,
        command=tuple(command),
        world=world_from_dict(record["situation"], "situation."),
        target=tuple(target),
        verb=verb,
        adverb_surface=surface,
        adverb_type=adverb_type,
    )


def _sha256(path: str, buffer: bytearray) -> str:
    """A file's sha256, read block by block into `buffer`.  Both the read and each
    update of a block of 2 KiB or more release the GIL."""
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh, memoryview(buffer) as view:
        while size := fh.readinto(view):
            digest.update(view[:size])
    return digest.hexdigest()


class ExampleLines(Sequence):
    """The examples of an examples file, read-only, one per line.  Example i is decoded
    from line i + 1 on each use and not kept; any fault in that line, an index other than
    i or an adverb of another type in `types` (Lexicon.types) among them, raises
    MalformedRecord(path, i + 1, message)."""

    def __init__(self, path: str, lines: list[bytes], types: dict[str, str]):
        self.path = path
        self._lines = lines
        self._types = types

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # a negative i as its line's position
        record = load_json(self._lines[i], MalformedRecord, self.path, i + 1, decode=_decode_record)
        try:
            example = example_from_record(record)
        except ValueError as exc:  # a bad record or world
            raise MalformedRecord(self.path, i + 1, str(exc)) from None
        if example.index != i:
            raise MalformedRecord(self.path, i + 1, f"index {example.index} on the line of index {i}")
        surface, adverb_type = example.adverb_surface, example.adverb_type
        if surface is not None and self._types.get(surface) != adverb_type:
            raise MalformedRecord(self.path, i + 1, f"adverb {surface!r} has type {adverb_type!r}, "
                                                    f"but {self._types.get(surface)!r} in the registry")
        return example


@dataclass(frozen=True)
class Dataset:
    """A dataset's examples, a sequence with examples[i].index == i (an ExampleLines,
    which keeps no decoded example, when read from disk), its splits, manifest and lexicon."""

    examples: Sequence
    splits: dict
    manifest: dict
    lexicon: Lexicon

    def example_by_index(self, index: int) -> Example:
        if not 0 <= index < len(self.examples):
            raise UnknownIndex(f"no example with index {index} in the dataset")
        return self.examples[index]


def _strings(tokens) -> str:
    """_dumps(list(tokens)), written directly when no token needs JSON escaping: all text
    ASCII and printable, no backslash, and no quote but the separators'."""
    text = '","'.join(tokens)
    if (text.isascii() and text.isprintable() and "\\" not in text
            and text.count('"') == 2 * len(tokens) - 2):
        return f'["{text}"]'
    return _dumps(list(tokens))


def _symbols(symbols) -> str:
    """_strings(symbols) for action symbols (symbols.ALL_SYMBOLS), none of which JSON
    escapes: an oracle target, plan or interaction list holds no other string."""
    return '["' + '","'.join(symbols) + '"]' if symbols else "[]"


# The JSON text of each string a record template may hold but for adverb surfaces.  A
# string outside the vocabulary is a KeyError, so no unescaped string reaches a file.
_VOCAB_JSON = {value: _dumps(value) for value in (*SHAPES, *COLORS, *HEADINGS, *VERBS, *ADVERB_TYPES, *MODES)}


def _situation_json(world: WorldState) -> str:
    """_dumps(world_to_dict(world)), written from one template."""
    agent = world.agent_position
    objects = ",".join([
        f'{{"col":{o.position.col},"color":{_VOCAB_JSON[o.color]},"row":{o.position.row},'
        f'"shape":{_VOCAB_JSON[o.shape]},"size":{o.size}}}'
        for o in world.objects
    ])
    return (f'{{"agent":{{"col":{agent.col},"heading":{_VOCAB_JSON[world.agent_heading]},"row":{agent.row}}},'
            f'"grid_size":{world.grid_size},"objects":[{objects}],"target_index":{world.target_index}}}')


def _percept_json(p: Percept) -> str:
    """The percept's record value, agent cell, heading and target cell, written from one template."""
    agent, target = p.agent_position, p.target_position
    return (f'{{"agent":{{"col":{agent.col},"row":{agent.row}}},"heading":{_VOCAB_JSON[p.agent_heading]},'
            f'"target":{{"col":{target.col},"row":{target.row}}}}}')


def _serialize(pairs, test) -> tuple[list[bytes], list[Row]]:
    """One byte block per record file of the lines of the (example, trace) pairs, and their rows.
    Each value is encoded once per example; each file's line is one template, its keys in sorted
    order, that those values fill as _dumps would write the whole record.  The situation and
    the percept fill templates of their own (_situation_json, _percept_json), so neither
    builds a JSON encoder."""
    lines: list[list[str]] = [[] for _ in RECORD_FILES]
    examples_out, perception, navigation, interaction, transformation = lines  # RECORD_FILES order
    rows = []
    for ex, trace in pairs:
        index, verb = ex.index, _VOCAB_JSON[ex.verb]
        split = "test" if index in test else "train"
        command, target = _strings(ex.command), _symbols(ex.target)
        situation = _situation_json(ex.world)
        surface = "null" if ex.adverb_surface is None else _dumps(ex.adverb_surface)
        adverb = f'{{"surface":{surface},"type":{_VOCAB_JSON[ex.adverb_type]}}}' if ex.adverb_surface else "null"
        percept = _percept_json(trace.percept)
        plan = f'{{"mode":{_VOCAB_JSON[trace.plan.mode]},"symbols":{_symbols(trace.plan.symbols)}}}'
        interactions = _symbols(trace.interactions)
        arrival, start = _VOCAB_JSON[trace.arrival_heading], _VOCAB_JSON[ex.world.agent_heading]
        examples_out.append(f'{{"adverb":{adverb},"command":{command},"index":{index},"situation":{situation},'
                            f'"split":"{split}","target":{target},"verb":{verb}}}\n')
        perception.append(f'{{"command":{command},"index":{index},"situation":{situation},"target":{percept}}}\n')
        navigation.append(f'{{"adverb":{surface},"index":{index},"percept":{percept},"target":{plan}}}\n')
        interaction.append(f'{{"arrival_heading":{arrival},"index":{index},"percept":{percept},'
                           f'"situation":{situation},"target":{interactions},"verb":{verb}}}\n')
        transformation.append(f'{{"adverb":{surface},"index":{index},"interactions":{interactions},'
                              f'"plan":{plan},"start_heading":{start},"target":{target}}}\n')
        rows.append(Row(index, ex.verb, ex.adverb_surface, ex.adverb_type))
    return ["".join(part).encode("utf-8") for part in lines], rows


@contextmanager
def part_twins(paths):
    """The `.part` twins of `paths`, for a block to write: after it, each twin moves into place,
    in order; on any failure, in the block or in a move, all of them are removed."""
    twins = [path + ".part" for path in paths]
    try:
        yield twins
        for twin, path in zip(twins, paths):
            os.replace(twin, path)
    except BaseException:
        for twin in twins:
            with suppress(FileNotFoundError):
                os.remove(twin)
        raise


def _forge_chunk(cfg: ForgeConfig, lexicon: Lexicon, lo: int, hi: int, test) -> tuple:
    """Generate indices lo..hi-1, then serialize them (see _serialize): two passes
    measured faster than interleaving generation and serialization per example."""
    surfaces = lexicon.surfaces()
    return _serialize([_generate_one(cfg, lexicon, surfaces, i) for i in range(lo, hi)], test)


# A pool worker's config and lexicon, set once per worker by _init_worker.
_worker_state: tuple = ()


def _init_worker(cfg: ForgeConfig, lexicon: Lexicon) -> None:
    global _worker_state
    _worker_state = (cfg, lexicon)


def _worker_chunk(span) -> tuple:
    """Forge one span's chunk in a pool worker: its five byte blocks and its rows."""
    return _forge_chunk(*_worker_state, *span)


def _pool_chunks(jobs: int, cfg: ForgeConfig, lexicon: Lexicon, spans):
    """The spans' chunks, forged by `jobs` worker processes, in order.  Each worker gets the
    config and lexicon once, when it starts; each span `(lo, hi, test)` carries only indices.
    A worker's exception is raised here, and a dead worker's BrokenProcessPool.  Closing this
    generator cancels the spans that have not started and waits for the running ones."""
    from concurrent.futures import ProcessPoolExecutor  # here: it imports logging

    with ProcessPoolExecutor(jobs, initializer=_init_worker, initargs=(cfg, lexicon)) as pool:
        # _worker_chunk is the pool's entry point only: perfbench's tracer treats each
        # call of it as one made in a worker, and hands its result back as a list, which
        # _write_records unpacks by position.
        yield from pool.map(_worker_chunk, spans)


def _write_records(paths, chunks) -> tuple[list[Row], list[str]]:
    """Write each chunk's blocks in order to the record files at `paths`, hashing each block
    as it is written; all rows, and each file's sha256."""
    rows: list[Row] = []
    digests = [hashlib.sha256() for _ in paths]
    with ExitStack() as stack:
        out = [stack.enter_context(open(path, "wb")) for path in paths]
        for blocks, chunk_rows in chunks:
            for fh, digest, block in zip(out, digests, blocks):
                fh.write(block)
                digest.update(block)
            rows += chunk_rows
    return rows, [digest.hexdigest() for digest in digests]


def read_registry(path: str) -> Lexicon:
    """The built-in adverbs plus every program of a registry file, in slot order."""
    with open(path, "rb") as fh:
        return Lexicon.build(parse_registry(decode_text(fh.read())))


def _hashed_lines(path: str) -> tuple[list[bytes], str]:
    """A file's lines, newlines kept, and its sha256, from one read.  Reading lines
    rather than one block of the whole file leaves no large buffer behind to fragment
    the heap: with one block, each repeated read of a dataset raised the peak RSS."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line)
    return lines, digest.hexdigest()


def _example_lines(path: str, lines: list[bytes], n: int) -> list[bytes]:
    """The lines of an examples file: exactly n, none blank, each ending in a newline."""
    if lines and not lines[-1].endswith(b"\n"):
        raise MalformedRecord(path, len(lines), "the last line has no newline")
    if len(lines) != n:
        raise MalformedRecord(path, min(len(lines), n) + 1, f"{len(lines)} lines, but the manifest has {n} examples")
    if b"\n" in lines:
        raise MalformedRecord(path, lines.index(b"\n") + 1, "blank line")
    return lines


def _read_splits(path: str, data: bytes, n: int, counts) -> dict[str, SplitAssignment]:
    """The splits of a splits file, each side a list of distinct indices in [0, n), and
    no index on two sides of a split: evaluate would score such an index twice.  Each
    split holds all n indices, and the splits and their sizes are the manifest's `counts`."""
    raw = load_json(data, MalformedRecord, path, 1)
    if type(raw) is not dict:
        raise MalformedRecord(path, 1, f"splits must be an object, not {raw!r}")
    splits = {}
    for name, sides in raw.items():
        if type(sides) is not dict or sides.keys() != _SPLIT_SIDES:
            raise MalformedRecord(path, 1, f"split {name!r} must have exactly the keys train, test and dropped")
        for side, ids in sides.items():
            if type(ids) is not list:
                raise MalformedRecord(path, 1, f"split {name!r} {side} must be a list, not {ids!r}")
            bad = [i for i in ids if type(i) is not int or not 0 <= i < n]
            if bad:
                raise MalformedRecord(path, 1, f"split {name!r} {side}: {bad[0]!r} is no index in [0, {n})")
        total = sum(map(len, sides.values()))
        if len(set().union(*sides.values())) != total:
            i = next(i for i, count in Counter(chain(*sides.values())).items() if count > 1)
            listed = " and in ".join(side for side, ids in sides.items() for _ in range(ids.count(i)))
            raise MalformedRecord(path, 1, f"split {name!r}: index {i} is listed in {listed}")
        if total != n:
            raise MalformedRecord(path, 1, f"split {name!r} lists {total} indices, but the manifest has {n} examples")
        splits[name] = SplitAssignment(tuple(sides["train"]), tuple(sides["test"]), tuple(sides["dropped"]))
    sizes = {name: {side: len(ids) for side, ids in sides.items()} for name, sides in raw.items()}
    counts = counts if type(counts) is dict else {}
    if sizes != counts:
        name = next(name for name in (*raw, *counts) if sizes.get(name) != counts.get(name))
        raise MalformedRecord(path, 1, f"split {name!r} has sides of sizes {sizes.get(name)}, "
                                       f"but the manifest counts {counts.get(name)}")
    return splits


def read_dataset(path: str) -> Dataset:
    """Load a persisted dataset.

    The schema version must be the integer SCHEMA_VERSION, and the manifest must
    list a digest for exactly the files of DATASET_FILES, each of which must match,
    and give the registry file's as its registry_digest;
    the registry, splits and examples files are read once, and the bytes hashed are
    the bytes parsed.  The module files are hashed on a helper thread meanwhile, and
    every digest is checked before anything is parsed: a broken dataset raises its
    first fault in DATASET_FILES order, a missing file's OSError or a DigestMismatch.
    The examples file must hold exactly num_examples lines, and each split must list
    every index in [0, num_examples) once, as the manifest's counts.  The examples are
    an ExampleLines: a record is decoded, with every check of ExampleLines, each time
    it is used and is not kept, so a record that nothing reads is hashed but never decoded."""
    manifest_path = os.path.join(path, MANIFEST_FILE)
    with open(manifest_path, "rb") as fh:
        manifest = load_json(fh.read(), lambda reason: SchemaMismatch(f"manifest is not UTF-8 JSON: {reason}"))
    if type(manifest) is not dict:
        raise SchemaMismatch(f"manifest must be an object, not {manifest!r}")
    version = manifest.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # True == 1 and 1.0 == 1
        raise SchemaMismatch(f"dataset schema {version!r}, reader supports {SCHEMA_VERSION}")
    n = manifest.get("num_examples")
    if type(n) is not int or n < 0:
        raise SchemaMismatch(f"manifest num_examples must be a count, not {n!r}")
    digests = manifest.get("files")
    listed = set(digests) if type(digests) is dict else set()
    if listed != set(DATASET_FILES):
        missing, unknown = set(DATASET_FILES) - listed, listed - set(DATASET_FILES)
        raise DigestMismatch(f"the manifest must list the digests of exactly the dataset's files: "
                             f"missing {sorted(missing)}, unknown {sorted(unknown)}")
    registry_digest = manifest.get("registry_digest")
    if registry_digest != digests[REGISTRY_FILE]:
        raise DigestMismatch(f"manifest registry_digest {registry_digest!r} != files[{REGISTRY_FILE!r}] "
                             f"{digests[REGISTRY_FILE]!r}")
    # Each file's outcome: its digest, or whatever exception its read raised, kept to
    # be raised in file order.  A helper thread hashes the module files, which are
    # never parsed, while this thread reads the others; the buffer is made here, so
    # that its blocks come from this thread's malloc arena, not a second one.
    outcomes: dict[str, str | Exception] = {}
    buffer = bytearray(1 << 20)

    def hash_module_files():
        for filename in MODULE_FILES.values():
            try:
                outcomes[filename] = _sha256(os.path.join(path, filename), buffer)
            except Exception as exc:
                outcomes[filename] = exc

    parsed = {}  # the lines of the files parsed below, hashed as they were read
    helper = threading.Thread(target=hash_module_files, name="read_dataset-hash")
    helper.start()
    try:
        for filename in (EXAMPLES_FILE, REGISTRY_FILE, SPLITS_FILE):
            try:
                parsed[filename], outcomes[filename] = _hashed_lines(os.path.join(path, filename))
            except Exception as exc:
                outcomes[filename] = exc
    finally:
        helper.join()
    for filename in DATASET_FILES:  # the first fault in file order, before any parse
        actual, expected = outcomes[filename], digests[filename]
        if isinstance(actual, Exception):
            raise actual
        if actual != expected:
            raise DigestMismatch(f"{filename}: digest {actual} != manifest {expected}")

    examples_path = os.path.join(path, EXAMPLES_FILE)
    lines = _example_lines(examples_path, parsed[EXAMPLES_FILE], n)
    splits = _read_splits(os.path.join(path, SPLITS_FILE), b"".join(parsed[SPLITS_FILE]), n, manifest.get("counts"))
    lexicon = Lexicon.build(parse_registry(decode_text(b"".join(parsed[REGISTRY_FILE]))))
    examples = ExampleLines(examples_path, lines, lexicon.types)
    return Dataset(examples=examples, splits=splits, manifest=manifest, lexicon=lexicon)


def forge_dataset(cfg: ForgeConfig, out_dir: str, jobs: int = 1) -> dict:
    """End-to-end: registry, examples, splits, files.  Returns the manifest.
    Chunks of indices are generated and serialized here or by `jobs` workers
    (capped at the CPU count) and written in order, whatever `jobs` is.  A dataset
    already in `out_dir` stays whole until every new file is written to its `.part` twin;
    the twins then move into place, the manifest last, or all go on a failure.  A split
    that names an adverb surface the lexicon lacks raises ConfigError before any write."""
    if jobs < 1:
        raise ConfigError("jobs must be at least 1")
    jobs = min(jobs, os.cpu_count() or 1)
    lexicon = build_lexicon(cfg)
    for spec in cfg.splits:  # a surface the lexicon lacks would select no example
        for surface in (spec.surface, *(spec.surfaces or ())):
            if surface is not None and surface not in lexicon.programs:
                raise ConfigError(f"split {spec.name!r} names adverb {surface!r}, which the lexicon does not have")
    n = cfg.num_examples
    # The one split base.  A record's "split" is its side of the first random split, which reads only indices.
    base = derive_rng(cfg.seed, "splits").getrandbits(64)
    first = next((s for s in cfg.splits if s.kind == "random"), None)
    test = set(_random_test(first, range(n), base)) if first else set()
    size = max(1, min(CHUNK_EXAMPLES, n // (jobs * 8)))
    spans = [(lo, min(lo + size, n), test.intersection(range(lo, lo + size))) for lo in range(0, n, size)]
    os.makedirs(out_dir, exist_ok=True)
    if jobs > 1:
        chunks = _pool_chunks(jobs, cfg, lexicon, spans)
    else:
        chunks = (_forge_chunk(cfg, lexicon, *span) for span in spans)
    paths = [os.path.join(out_dir, filename) for filename in (*DATASET_FILES, MANIFEST_FILE)]
    with part_twins(paths) as twins:
        with closing(chunks):  # a pool's workers end before the .part twins go
            rows, digests = _write_records(twins[:len(RECORD_FILES)], chunks)
        splits = build_splits(rows, cfg.splits, base)
        sides = {name: vars(a) for name, a in splits.items()}  # train, test, dropped
        blobs = {REGISTRY_FILE: serialize_registry(lexicon.registry).encode("utf-8"),
                 SPLITS_FILE: _dumps(sides).encode("utf-8")}
        files = dict(zip(RECORD_FILES.values(), digests))  # hashed as written, not read back
        files.update((filename, hashlib.sha256(data).hexdigest()) for filename, data in blobs.items())
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "config": cfg.to_dict(),
            "registry_digest": files[REGISTRY_FILE],
            "counts": {name: {side: len(ids) for side, ids in a.items()} for name, a in sides.items()},
            "num_examples": len(rows),
            "adverb_counts": Counter(row.adverb_surface for row in rows if row.adverb_surface),
            "files": files,
        }
        blobs[MANIFEST_FILE] = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")
        for twin, data in zip(twins[len(RECORD_FILES):], blobs.values()):
            with open(twin, "wb") as fh:
                fh.write(data)
    return manifest
