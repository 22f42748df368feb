"""Sampling and classifying novel adverb programs.

Manners fall into four types.  Spinning-type programs prepend a turn sequence
to allocentric moves (and to push/pull), changing movement only within grid
cells.  Cautiously-type programs do the same on egocentric movement
primitives.  Zigzag-type manners change the path's shape without its length
and are expressed as a plan variant rather than rules, so they are classified
but never sampled.  Detour-type programs replace an allocentric move with a
longer excursion that lands on the same cell.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

from .dsl import AdverbProgram, RewriteRule, builtin_adverbs, program_key
from .errors import INT_PAIR, NUMBER, ConfigError, RejectBudgetExceeded, Unclassifiable, require
from .seeding import derive_rng, pick, randint, sample, weighted_pick
from .symbols import displacement, is_allo, net_rotation

SPINNING_TYPE = "spinning_type"
CAUTIOUSLY_TYPE = "cautiously_type"
ZIGZAG_TYPE = "zigzag_type"
DETOUR_TYPE = "detour_type"

ADVERB_TYPES = (SPINNING_TYPE, CAUTIOUSLY_TYPE, ZIGZAG_TYPE, DETOUR_TYPE)

_ALLO_ORDER = ("North", "South", "East", "West")
_MOVEMENT_LHS = ("walk", "push", "pull")
_TURN_OR_STAY = frozenset({"turn_left", "turn_right", "stay"})
_TURNS = frozenset({"turn_left", "turn_right"})

DEFAULT_TYPE_WEIGHTS = {
    SPINNING_TYPE: 0.4,
    CAUTIOUSLY_TYPE: 0.3,
    DETOUR_TYPE: 0.3,
}


@dataclass(frozen=True)
class MetaGrammarConfig:
    type_weights: dict = field(default_factory=lambda: dict(DEFAULT_TYPE_WEIGHTS))
    prefix_len_range: tuple[int, int] = (2, 8)
    detour_rhs_max: int = 5
    max_rejects: int = 1000

    def __post_init__(self):
        require("type_weights", self.type_weights, dict)
        object.__setattr__(self, "prefix_len_range", require("prefix_len_range", self.prefix_len_range, INT_PAIR))
        require("detour_rhs_max", self.detour_rhs_max, int)
        require("max_rejects", self.max_rejects, int)
        if self.max_rejects < 0:
            raise ConfigError(f"max_rejects must be at least 0, not {self.max_rejects!r}")
        total = 0.0
        for t, w in self.type_weights.items():
            if t not in ADVERB_TYPES:
                raise ConfigError(f"unknown adverb type: {t!r}")
            require(f"type_weights[{t!r}]", w, NUMBER)
            if w < 0:
                raise ConfigError(f"negative weight for {t}")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"type weights sum to {total}, expected 1")
        if self.type_weights.get(ZIGZAG_TYPE, 0.0) != 0.0:
            raise ConfigError("zigzag_type cannot be sampled; its weight must be 0")
        lo, hi = self.prefix_len_range
        if not any(n % 2 == 0 for n in range(max(lo, 2), hi + 1)):
            raise ConfigError("prefix_len_range admits no even length >= 2")
        if self.detour_rhs_max < 3:
            raise ConfigError("detour_rhs_max must allow at least one inserted pair")


def _net_zero_count(n: int) -> int:
    # Turn sequences of length n whose quarter-turn sum is 0 mod 4: choose k
    # lefts so that 2k - n is a multiple of four.
    return sum(comb(n, k) for k in range(n + 1) if (2 * k - n) % 4 == 0)


def _sample_net_zero_prefix(rng: random.Random, len_range: tuple[int, int]) -> tuple[str, ...]:
    # Only even lengths can sum to a multiple of four quarter-turns.  Lengths
    # are weighted by how many net-zero sequences they admit, so the prefix
    # space is sampled uniformly and duplicate rejections stay rare.
    lo, hi = len_range
    lengths = [n for n in range(max(lo, 2), hi + 1) if n % 2 == 0]
    weights = [_net_zero_count(n) for n in lengths]
    n = weighted_pick(rng.random, lengths, weights)
    getrandbits = rng.getrandbits
    while True:
        prefix = tuple(pick(getrandbits, ("turn_left", "turn_right")) for _ in range(n))
        if net_rotation(prefix) == 0:
            return prefix


_OPPOSITE_ALLO = {"North": "South", "South": "North", "East": "West", "West": "East"}


def _sample_detour_rhs(rng: random.Random, lhs: str, rhs_max: int) -> tuple[str, ...]:
    # Grow the rhs around the lhs symbol by displacement-cancelling pairs.
    rhs = [lhs]
    max_pairs = (rhs_max - 1) // 2
    getrandbits = rng.getrandbits
    pairs = randint(getrandbits, 1, max_pairs)
    for _ in range(pairs):
        first = pick(getrandbits, _ALLO_ORDER)
        second = _OPPOSITE_ALLO[first]
        placement = pick(getrandbits, ("wrap", "before", "after"))
        if placement == "wrap":
            rhs = [first] + rhs + [second]
        elif placement == "before":
            rhs = [first, second] + rhs
        else:
            rhs = rhs + [first, second]
    return tuple(rhs)


def is_valid_detour_rule(rule: RewriteRule, rhs_max: int | None = 5) -> bool:
    """Accept a rule iff it detours: allocentric on both sides, longer than a
    single move (bounded when rhs_max is given), and landing where the
    original move would."""
    if not is_allo(rule.lhs):
        return False
    if not all(is_allo(s) for s in rule.rhs):
        return False
    if len(rule.rhs) < 2 or (rhs_max is not None and len(rule.rhs) > rhs_max):
        return False
    # Allocentric moves ignore the start heading, so any start will do.
    return displacement(rule.rhs, "north") == displacement((rule.lhs,), "north")


def sample_program(
    rng: random.Random,
    adverb_type: str,
    cfg: MetaGrammarConfig,
    used_names: set[str] | None = None,
) -> AdverbProgram:
    """Sample one program of the requested type (zigzag_type is plan-only and
    cannot be sampled)."""
    if adverb_type == SPINNING_TYPE:
        prefix = _sample_net_zero_prefix(rng, cfg.prefix_len_range)
        rules = {RewriteRule(d, prefix + (d,)) for d in _ALLO_ORDER}
        rules |= {RewriteRule(v, prefix + (v,)) for v in ("push", "pull")}
        name = generate_name(rng, "allocentric", used_names)
        return AdverbProgram(name=name, rules=frozenset(rules), mode="allocentric")

    if adverb_type == CAUTIOUSLY_TYPE:
        prefix = _sample_net_zero_prefix(rng, cfg.prefix_len_range)
        rules = {RewriteRule(v, prefix + (v,)) for v in _MOVEMENT_LHS}
        name = generate_name(rng, "egocentric", used_names)
        return AdverbProgram(name=name, rules=frozenset(rules), mode="egocentric")

    if adverb_type == DETOUR_TYPE:
        count = randint(rng.getrandbits, 1, len(_ALLO_ORDER))
        lhs_set = sample(rng.getrandbits, _ALLO_ORDER, count)
        rules = set()
        for lhs in lhs_set:
            rhs = _sample_detour_rhs(rng, lhs, cfg.detour_rhs_max)
            rule = RewriteRule(lhs, rhs)
            assert is_valid_detour_rule(rule, cfg.detour_rhs_max)
            rules.add(rule)
        name = generate_name(rng, "allocentric", used_names)
        return AdverbProgram(name=name, rules=frozenset(rules), mode="allocentric")

    raise ConfigError(f"cannot sample adverb type {adverb_type!r}")


def classify_program(program: AdverbProgram) -> str:
    """Return the unique adverb type whose structural invariant the program
    satisfies, or raise Unclassifiable."""
    if program.plan_shape == "zigzag":
        return ZIGZAG_TYPE

    if not program.rules:
        raise Unclassifiable(f"program {program.surface!r} has no rules and no plan variant")

    if program.mode == "egocentric":
        if all(_is_within_cell_ego_rule(r) for r in program.rules):
            return CAUTIOUSLY_TYPE
        raise Unclassifiable(f"program {program.surface!r} fits no type")

    if any(is_allo(r.lhs) for r in program.rules) and all(
        _is_spinning_rule(r) for r in program.rules
    ):
        return SPINNING_TYPE
    if all(is_valid_detour_rule(r, rhs_max=None) for r in program.rules):
        return DETOUR_TYPE
    raise Unclassifiable(f"program {program.surface!r} fits no type")


def _is_within_cell_ego_rule(rule: RewriteRule) -> bool:
    # The rewrite may add turns and pauses around the movement primitive but
    # must leave cells visited and final heading unchanged.
    if rule.lhs not in _MOVEMENT_LHS:
        return False
    if rule.rhs.count(rule.lhs) != 1:
        return False
    split = rule.rhs.index(rule.lhs)
    before, after = rule.rhs[:split], rule.rhs[split + 1 :]
    if any(s not in _TURN_OR_STAY for s in before + after):
        return False
    return net_rotation(before) == 0 and net_rotation(rule.rhs) == 0


def _is_spinning_rule(rule: RewriteRule) -> bool:
    # Turn-only prefix, then the original symbol.  An allocentric move resets
    # the heading on grounding, so any prefix is within-cell there; push and
    # pull keep the tracked heading, so their prefix must net to zero.
    if not rule.rhs or rule.rhs[-1] != rule.lhs:
        return False
    prefix = rule.rhs[:-1]
    if any(s not in _TURNS for s in prefix):
        return False
    if is_allo(rule.lhs):
        return True
    if rule.lhs in ("push", "pull"):
        return net_rotation(prefix) == 0
    return False


_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def generate_name(
    rng: random.Random, mode: str, used: set[str] | None = None
) -> tuple[str, ...]:
    """Pseudoword adverb surface: two tokens "while <stem>ing" for allocentric
    manners, one token "<stem>ly" for egocentric ones.  Passing a `used` set
    makes draws collision-free within a run."""
    getrandbits = rng.getrandbits
    while True:
        syllables = randint(getrandbits, 2, 3)
        stem = "".join(
            pick(getrandbits, _CONSONANTS) + pick(getrandbits, _VOWELS) for _ in range(syllables)
        ) + pick(getrandbits, _CONSONANTS)
        if mode == "allocentric":
            name = ("while", stem + "ing")
        else:
            name = (stem + "ly",)
        surface = " ".join(name)
        if used is None:
            return name
        if surface not in used:
            used.add(surface)
            return name


def _weighted_type(rng: random.Random, weights: dict) -> str:
    roll = rng.random()
    acc = 0.0
    for t in ADVERB_TYPES:
        acc += weights.get(t, 0.0)
        if roll < acc:
            return t
    # Guard against float underflow on the last bucket.
    return max(weights, key=weights.get)


def sample_registry(
    rng: random.Random, count: int, cfg: MetaGrammarConfig | None = None
) -> list[AdverbProgram]:
    """Sample `count` novel adverbs, rejecting any program equal to a built-in
    or to an earlier entry.  Deterministic in the rng's state."""
    if count < 0:
        raise ConfigError(f"count must be at least 0, not {count}")
    if cfg is None:
        cfg = MetaGrammarConfig()
    base = rng.getrandbits(64)
    builtins = builtin_adverbs()
    used_names = {p.surface for p in builtins}
    seen = {program_key(p) for p in builtins}  # what programs_equal compares
    accepted: list[AdverbProgram] = []
    consecutive_rejects = 0

    for slot in range(count):
        slot_rng = derive_rng(base, "slot", slot)
        # The type is drawn once per slot; duplicate rejections redraw only
        # the program, so type proportions follow the configured weights.
        adverb_type = _weighted_type(slot_rng, cfg.type_weights)
        while True:
            program = sample_program(slot_rng, adverb_type, cfg, used_names=used_names)
            key = program_key(program)
            if key in seen:
                consecutive_rejects += 1
                if consecutive_rejects > cfg.max_rejects:
                    raise RejectBudgetExceeded(
                        f"{consecutive_rejects} consecutive duplicate programs"
                    )
                continue
            consecutive_rejects = 0
            seen.add(key)
            accepted.append(program)
            break
    return accepted
