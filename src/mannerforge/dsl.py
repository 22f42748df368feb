"""Functional rewrite-rule programs for manners of navigation.

An adverb's meaning is a program: a set of single-symbol rewrite rules applied
in parallel, one simultaneous pass over the whole sequence, plus a mode saying
whether its plan-level rules target allocentric or egocentric symbols.  A
second pass rewrites the output of the first, so recursion depth is bounded
explicitly to keep programs from spinning forever.

Grounding converts a mixed sequence into pure egocentric primitives by
tracking the agent's heading and expanding each allocentric symbol into the
minimal turn sequence plus a walk; it returns the heading it ends on too.
Each program compiles, on first use, into a table of the same shape as
grounding's own, so that rewriting and grounding a sequence is one fold.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ConfigError, DepthExceeded, DuplicateLhs, ParseError
from .symbols import ALL_SYMBOLS, ALLO_SYMBOLS, STEP, is_allo, require_heading, require_symbol, turns_between

MODES = ("allocentric", "egocentric")
PLAN_SHAPES = ("canonical", "zigzag")


@dataclass(frozen=True)
class RewriteRule:
    """lhs -> rhs, where lhs is a single symbol and rhs a nonempty sequence."""

    lhs: str
    rhs: tuple[str, ...]

    def __post_init__(self):
        if self.rhs and self.lhs in ALL_SYMBOLS and ALL_SYMBOLS.issuperset(self.rhs):
            return
        require_symbol(self.lhs)  # otherwise name the first fault
        if not self.rhs:
            raise ConfigError(f"rule for {self.lhs!r} has empty rhs")
        for s in self.rhs:
            require_symbol(s)


@dataclass(frozen=True)
class AdverbProgram:
    """A named rule set implementing one manner of navigation.

    mode records which vocabulary the plan-level rules target; a program may
    still carry rules over both vocabularies (the transformation input is an
    allocentric plan followed by egocentric interactions).  plan_shape lets a
    manner demand a different navigation plan instead of rewriting one.
    """

    name: tuple[str, ...]
    rules: frozenset[RewriteRule] = frozenset()
    mode: str = "egocentric"
    passes: int = 1
    plan_shape: str = "canonical"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode: {self.mode!r}")
        if self.plan_shape not in PLAN_SHAPES:
            raise ConfigError(f"unknown plan shape: {self.plan_shape!r}")
        if self.passes < 1:
            raise ConfigError("passes must be at least 1")
        rule_map = {}
        for rule in self.rules:
            if rule.lhs in rule_map:
                raise DuplicateLhs(f"two rules rewrite {rule.lhs!r}")
            rule_map[rule.lhs] = rule.rhs
        object.__setattr__(self, "_rule_map", rule_map)  # apply_pass's lookup table
        object.__setattr__(self, "table", ProgramTable(self))
        if self.mode == "egocentric":
            if any(is_allo(r.lhs) for r in self.rules):
                raise ConfigError("egocentric programs may only rewrite egocentric symbols")
        else:
            if not any(is_allo(r.lhs) for r in self.rules) and self.plan_shape != "zigzag":
                raise ConfigError(
                    "allocentric programs need an allocentric rule or a zigzag plan"
                )

    @property
    def surface(self) -> str:
        return " ".join(self.name)


def apply_pass(program: AdverbProgram, sequence) -> tuple[str, ...]:
    """One parallel rewriting pass: every matched symbol is replaced by its
    rule's rhs simultaneously; freshly produced symbols are not rewritten."""
    rules = program._rule_map
    out: list[str] = []
    for s in sequence:
        rhs = rules.get(s)
        if rhs is None:
            out.append(s)
        else:
            out.extend(rhs)
    return tuple(out)


def require_depth(program: AdverbProgram, max_depth: int) -> None:
    """Refuse a max_depth below 1, or a program needing more passes than max_depth."""
    if max_depth < 1:
        raise ConfigError("max_depth must be at least 1")
    if program.passes > max_depth:
        raise DepthExceeded(
            f"program {program.surface!r} needs {program.passes} passes, depth limit {max_depth}"
        )


def apply_program(program: AdverbProgram, sequence, max_depth: int = 10) -> tuple[str, ...]:
    """Apply the program's passes, refusing to recurse past max_depth."""
    require_depth(program, max_depth)
    seq = tuple(sequence)
    for _ in range(program.passes):
        seq = apply_pass(program, seq)
    return seq


# GROUND[heading, symbol] = (heading_after, emitted): allocentric symbols emit turns, then walk.
GROUND = {(h, s): (after, (*turns_between(h, after), "walk") if s in ALLO_SYMBOLS else (s,))
          for (h, s), (after, _, _) in STEP.items()}


_GROUND_KEYS = {key: key for key in GROUND}


class ProgramTable(dict):
    """GROUND for one program: (heading, symbol) -> (heading_after, actions), where
    the actions and heading are those of ground(apply_program(program, (symbol,)), heading).
    Entries are filled on first use; a symbol with no rule shares GROUND's entry.

    A program rewrites each symbol on its own and grounding is a fold, so grounding
    through this table gives ground(apply_program(program, sequence), heading)."""

    def __init__(self, program: AdverbProgram):
        super().__init__()
        self.program = program

    def __missing__(self, key):
        key = _GROUND_KEYS[key]  # GROUND's own key, kept instead of the caller's; a KeyError
        heading, symbol = key    # for an unknown symbol, which ground reports
        if symbol in self.program._rule_map:
            actions, after = ground(apply_program(self.program, (symbol,), self.program.passes), heading)
            entry = (after, actions)
        else:
            entry = GROUND[key]
        self[key] = entry
        return entry


def ground(sequence, start: str, table: dict = GROUND) -> tuple[tuple[str, ...], str]:
    """Convert a mixed sequence to egocentric primitives, and return them with
    the heading they end on.

    Egocentric symbols pass through; each allocentric symbol becomes the
    minimal turn sequence toward its direction followed by walk, with 180
    degree turns fixed as two turn_left actions.  The heading is tracked
    through `table`: `GROUND`, or a program's `ProgramTable`, which rewrites
    each symbol as it is grounded.
    """
    require_heading(start)
    h = start
    out: list[str] = []
    try:
        for s in sequence:
            h, emitted = table[h, s]
            out += emitted
    except KeyError:
        raise ConfigError(f"unknown action symbol: {s!r}") from None
    return tuple(out), h


def program_key(program: AdverbProgram) -> tuple:
    """What programs_equal compares: a hashable key, equal for programs that differ
    only in their name."""
    return program.rules, program.mode, program.passes, program.plan_shape


def programs_equal(a: AdverbProgram, b: AdverbProgram) -> bool:
    """Name-insensitive equality: same rule set, mode, passes, and plan shape."""
    return program_key(a) == program_key(b)


CAUTIOUS_PREFIX = ("turn_left", "turn_right", "turn_right", "turn_left")
SPIN_PREFIX = ("turn_left", "turn_left", "turn_left", "turn_left")


def builtin_adverbs() -> list[AdverbProgram]:
    """The four built-in manners.

    "while spinning" spins before every directed move and every interaction;
    "cautiously" looks left and right before each movement primitive;
    "while zigzagging" has no rules at all, its manner is a different plan;
    "hesitantly" pauses after each movement primitive.
    """
    spinning = AdverbProgram(
        name=("while", "spinning"),
        mode="allocentric",
        rules=frozenset(
            {RewriteRule(d, SPIN_PREFIX + (d,)) for d in ("North", "South", "East", "West")}
            | {RewriteRule(v, SPIN_PREFIX + (v,)) for v in ("push", "pull")}
        ),
    )
    cautiously = AdverbProgram(
        name=("cautiously",),
        mode="egocentric",
        rules=frozenset(
            RewriteRule(v, CAUTIOUS_PREFIX + (v,)) for v in ("walk", "push", "pull")
        ),
    )
    zigzagging = AdverbProgram(
        name=("while", "zigzagging"),
        mode="allocentric",
        rules=frozenset(),
        plan_shape="zigzag",
    )
    hesitantly = AdverbProgram(
        name=("hesitantly",),
        mode="egocentric",
        rules=frozenset(
            RewriteRule(v, (v, "stay")) for v in ("walk", "push", "pull")
        ),
    )
    return [spinning, cautiously, zigzagging, hesitantly]


# --- program text format -----------------------------------------------------
#
# One program per block:
#
#   name: while spinning
#   mode: allocentric
#   passes: 1
#   plan_shape: canonical
#   North -> turn_left turn_left turn_left turn_left North
#
# '#' starts a comment; canonical form has the headers in the order above and
# the rules sorted by lhs.  A registry file holds program blocks separated by
# blank lines, in slot order.  Lines end at '\n' alone, after '\r\n' and '\r' are
# made '\n'; any other character that str.splitlines() breaks at may stand in a
# comment, and is a ParseError in code.

_HEADER_KEYS = ("name", "mode", "passes", "plan_shape")
_LINE_BREAK = re.compile("[\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _newlines(text: str) -> str:
    """text with every '\r\n' and '\r' made '\n', as a text-mode open() makes them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def serialize_program(program: AdverbProgram) -> str:
    lines = [
        f"name: {program.surface}",
        f"mode: {program.mode}",
        f"passes: {program.passes}",
        f"plan_shape: {program.plan_shape}",
    ]
    for rule in sorted(program.rules, key=lambda r: r.lhs):
        lines.append(f"{rule.lhs} -> {' '.join(rule.rhs)}")
    return "\n".join(lines) + "\n"


def parse_program(text: str) -> AdverbProgram:
    return _parse_program(_newlines(text), 1)


def _parse_program(text: str, first_line: int) -> AdverbProgram:
    """parse_program of text, its newlines already '\n', that begins at line
    `first_line` of a file; its errors name lines of that file."""
    headers: dict[str, str] = {}
    header_line: dict[str, int] = {}  # the line each header is on, where its errors are placed
    rules: list[RewriteRule] = []
    seen_lhs: set[str] = set()
    breaks = _LINE_BREAK.search(text) is not None

    for lineno, raw in enumerate(text.split("\n"), start=first_line):
        code = raw.partition("#")[0]
        if breaks and (match := _LINE_BREAK.search(code)):
            raise ParseError(f"{match.group()!r} in code; only '\\n' ends a line", lineno, match.start() + 1)
        line = code.rstrip()
        if not line:
            continue
        if "->" in line:
            lhs_text, _, rhs_text = line.partition("->")
            lhs = lhs_text.strip()
            if lhs not in ALL_SYMBOLS:
                raise ParseError(f"unknown rule lhs {lhs!r}", lineno, raw.index(lhs) + 1)
            if lhs in seen_lhs:
                raise DuplicateLhs(f"line {lineno}: second rule for {lhs!r}")
            seen_lhs.add(lhs)
            rhs_tokens = rhs_text.split()
            if not rhs_tokens:
                raise ParseError("empty rule rhs", lineno, len(line) + 1)
            if not ALL_SYMBOLS.issuperset(rhs_tokens):
                at = len(lhs_text) + 2  # past the "->": each token is found after the last
                for tok in rhs_tokens:
                    at = raw.index(tok, at)
                    if tok not in ALL_SYMBOLS:
                        raise ParseError(f"unknown symbol {tok!r}", lineno, at + 1)
                    at += len(tok)
            rules.append(RewriteRule(lhs, tuple(rhs_tokens)))
        elif ":" in line:
            key, _, value = line.partition(":")
            key = key.strip()
            if key not in _HEADER_KEYS:
                raise ParseError(f"unknown header {key!r}", lineno)
            if key in headers:
                raise ParseError(f"repeated header {key!r}", lineno)
            headers[key] = value.strip()
            header_line[key] = lineno
        else:
            raise ParseError("expected 'key: value' header or 'LHS -> SYM ...' rule", lineno)

    if not headers.get("name"):
        raise ParseError("missing name header", header_line.get("name", first_line))
    passes = headers.get("passes", "1")
    if not re.fullmatch("[0-9]+", passes):  # int() would read 1_0, +2 and non-ASCII digits too
        raise ParseError(f"passes must be decimal digits, not {passes!r}", header_line["passes"])
    if len(passes) > 9:  # int() refuses more than 4300 digits; the text is not echoed
        raise ParseError(f"passes must have at most 9 digits, not {len(passes)}", header_line["passes"])
    mode = headers.get("mode", "egocentric")
    plan_shape = headers.get("plan_shape", "canonical")
    # A header's own fault is placed at its line; the defaults have none.
    if mode not in MODES:
        raise ParseError(f"unknown mode: {mode!r}", header_line["mode"])
    if plan_shape not in PLAN_SHAPES:
        raise ParseError(f"unknown plan shape: {plan_shape!r}", header_line["plan_shape"])
    if int(passes) < 1:
        raise ParseError("passes must be at least 1", header_line["passes"])
    try:
        return AdverbProgram(
            name=tuple(headers["name"].split()),
            rules=frozenset(rules),
            mode=mode,
            passes=int(passes),
            plan_shape=plan_shape,
        )
    except ValueError as exc:  # rules that do not suit the mode
        raise ParseError(str(exc), header_line.get("mode", first_line)) from None


def serialize_registry(programs) -> str:
    return "\n".join(serialize_program(p) for p in programs)


def parse_registry(text: str) -> list[AdverbProgram]:
    """The programs of a registry, one a block, blocks parted by an empty line; an
    error names its line of the whole text."""
    programs, first_line = [], 1
    for block in _newlines(text).split("\n\n"):
        if block.strip():
            programs.append(_parse_program(block, first_line))
        first_line += block.count("\n") + 2
    return programs


def decode_text(data: bytes) -> str:
    """The bytes of a program or registry file as text, newlines made `\n` as a text-mode
    open() makes them; ParseError at the line and column of the first byte not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line_start = head.rfind(b"\n") + 1
        column = len(head[line_start:].decode("utf-8")) + 1
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8", head.count(b"\n") + 1, column) from None
    return _newlines(text)
