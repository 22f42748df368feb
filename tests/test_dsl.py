import random
from dataclasses import replace

import pytest

from mannerforge.dsl import (
    AdverbProgram,
    RewriteRule,
    apply_pass,
    apply_program,
    builtin_adverbs,
    decode_text,
    ground,
    parse_program,
    parse_registry,
    programs_equal,
    serialize_program,
    serialize_registry,
)
from mannerforge.errors import ConfigError, DepthExceeded, DuplicateLhs, ParseError
from mannerforge.metagrammar import sample_registry
from mannerforge.symbols import parse_symbols

from conftest import trace_cells

CAUTIOUS = "turn_left turn_right turn_right turn_left"
SPIN = "turn_left turn_left turn_left turn_left"

# The characters other than '\n' and '\r' at which str.splitlines() breaks a line.
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestApplyPass:
    def test_cautiously_on_fig_plan(self, builtins):
        out = apply_pass(
            builtins["cautiously"],
            parse_symbols("turn_left walk walk turn_left walk walk"),
        )
        assert out == parse_symbols(
            f"turn_left {CAUTIOUS} walk {CAUTIOUS} walk turn_left {CAUTIOUS} walk {CAUTIOUS} walk"
        )

    def test_no_matching_rule_is_identity(self, builtins):
        seq = parse_symbols("stay turn_left stay")
        assert apply_pass(builtins["cautiously"], seq) == seq

    def test_spinning_on_allocentric_pair(self, builtins):
        out = apply_pass(builtins["while spinning"], parse_symbols("North West"))
        assert out == parse_symbols(f"{SPIN} North {SPIN} West")

    def test_one_pass_length_law(self, builtins):
        rng = random.Random(2)
        vocab = sorted(parse_symbols("walk push pull stay turn_left turn_right North South East West"))
        for program in builtin_adverbs():
            rules = {rule.lhs: rule.rhs for rule in program.rules}
            for _ in range(50):
                seq = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
                expected_len = sum(len(rules[s]) if s in rules else 1 for s in seq)
                assert len(apply_pass(program, seq)) == expected_len

    def test_rewriting_is_context_free(self, builtins):
        rng = random.Random(3)
        vocab = sorted(parse_symbols("walk push stay turn_left North West"))
        program = builtins["while spinning"]
        for _ in range(100):
            s = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 6)))
            t = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 6)))
            assert apply_pass(program, s + t) == apply_pass(program, s) + apply_pass(program, t)


class TestApplyProgram:
    def test_single_pass(self, builtins):
        assert apply_program(builtins["while spinning"], ("North",)) == parse_symbols(
            f"{SPIN} North"
        )

    def test_two_passes_rewrite_survivor(self, builtins):
        two = replace(builtins["while spinning"], passes=2)
        assert apply_program(two, ("North",), max_depth=5) == parse_symbols(
            f"{SPIN} {SPIN} North"
        )

    def test_empty_sequence(self, builtins):
        assert apply_program(builtins["cautiously"], ()) == ()

    def test_depth_guard(self, builtins):
        runaway = replace(builtins["while spinning"], passes=11)
        with pytest.raises(DepthExceeded):
            apply_program(runaway, ("North",), max_depth=10)


class TestGround:
    def test_compass_plan_from_east(self):
        assert ground(parse_symbols("North North West"), "east") == (
            parse_symbols("turn_left walk walk turn_left walk"), "west"
        )

    def test_no_turn_needed(self):
        assert ground(("North",), "north") == (("walk",), "north")

    def test_spin_prefix_then_turn(self):
        assert ground(parse_symbols(f"{SPIN} North"), "east") == (
            parse_symbols(f"{SPIN} turn_left walk"), "north"
        )

    def test_half_turn_is_two_lefts(self):
        assert ground(("South",), "north") == (("turn_left", "turn_left", "walk"), "south")

    def test_returns_the_heading_it_ends_on(self):
        assert ground(("North", "West"), "east")[1] == "west"
        assert ground(("turn_left", "turn_left"), "north")[1] == "south"
        assert ground(("walk", "stay", "push"), "east")[1] == "east"
        assert ground((), "south") == ((), "south")

    def test_output_is_egocentric_only(self):
        rng = random.Random(7)
        vocab = sorted(parse_symbols("North South East West walk stay turn_left turn_right"))
        for _ in range(200):
            seq = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            out, _ = ground(seq, "north")
            assert all(s.islower() for s in out)

    def test_displacement_preserved_for_turn_only_ego_content(self):
        from mannerforge.symbols import HEADING_DELTAS, ALLO_TO_HEADING, displacement

        rng = random.Random(8)
        vocab = sorted(parse_symbols("North South East West turn_left turn_right stay"))
        for _ in range(200):
            seq = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            start = rng.choice(("north", "east", "south", "west"))
            drow = sum(HEADING_DELTAS[ALLO_TO_HEADING[s]][0] for s in seq if s in ALLO_TO_HEADING)
            dcol = sum(HEADING_DELTAS[ALLO_TO_HEADING[s]][1] for s in seq if s in ALLO_TO_HEADING)
            assert displacement(ground(seq, start)[0], start) == (drow, dcol)

    def test_turn_prefix_does_not_change_cells(self):
        rng = random.Random(9)
        allo = ("North", "South", "East", "West")
        for _ in range(200):
            seq = [rng.choice(allo) for _ in range(rng.randint(1, 8))]
            prefix = [rng.choice(("turn_left", "turn_right")) for _ in range(rng.randint(1, 6))]
            start = rng.choice(("north", "east", "south", "west"))
            plain = trace_cells(ground(seq, start)[0], heading=start)
            prefixed = trace_cells(ground(prefix + seq, start)[0], heading=start)
            assert plain == prefixed


class TestBuiltins:
    def test_four_distinct_programs(self):
        programs = builtin_adverbs()
        assert len(programs) == 4
        for i, a in enumerate(programs):
            for b in programs[i + 1 :]:
                assert not programs_equal(a, b)

    def test_zigzagging_rewrites_nothing(self, builtins):
        zig = builtins["while zigzagging"]
        assert zig.plan_shape == "zigzag"
        seq = parse_symbols("North West push")
        assert apply_pass(zig, seq) == seq

    def test_hesitantly_appends_stay(self, builtins):
        assert apply_pass(builtins["hesitantly"], ("walk", "push")) == (
            "walk", "stay", "push", "stay")

    def test_spinning_wraps_interactions(self, builtins):
        assert apply_pass(builtins["while spinning"], ("push",)) == parse_symbols(
            f"{SPIN} push"
        )


class TestProgramsEqual:
    def test_name_insensitive(self, builtins):
        renamed = replace(builtins["cautiously"], name=("charily",))
        assert programs_equal(builtins["cautiously"], renamed)

    def test_mirrored_prefix_is_distinct(self, builtins):
        mirrored = AdverbProgram(
            name=("warily",),
            mode="egocentric",
            rules=frozenset(
                RewriteRule(v, ("turn_right", "turn_left", "turn_left", "turn_right", v))
                for v in ("walk", "push", "pull")
            ),
        )
        assert not programs_equal(builtins["cautiously"], mirrored)

    def test_disjoint_rule_sets(self, builtins):
        assert not programs_equal(builtins["while spinning"], builtins["hesitantly"])

    def test_equivalence_relation(self, builtins):
        programs = list(builtins.values())
        for a in programs:
            assert programs_equal(a, a)
            for b in programs:
                assert programs_equal(a, b) == programs_equal(b, a)
                for c in programs:
                    if programs_equal(a, b) and programs_equal(b, c):
                        assert programs_equal(a, c)


# (rule line, column, token) of an rhs token that is no symbol.
UNKNOWN_RHS_TOKENS = [
    ("walk -> stay wal", 14, "wal"),
    ("push -> stay pus", 14, "pus"),
    ("walk -> walk wa", 14, "wa"),
    ("walk -> stay alk", 14, "alk"),
    ("walk -> walk stay wal wal", 19, "wal"),
    ("walk -> fly walk fly", 9, "fly"),
    ("walk\t->\tstay\twal", 14, "wal"),
    ("walk ->\t\tstay \t walk\twa # wa", 22, "wa"),
]


class TestProgramText:
    def test_rule_line_parses_to_cautious_walk_rule(self):
        text = "name: x\nmode: egocentric\nwalk -> turn_left turn_right turn_right turn_left walk\n"
        program = parse_program(text)
        assert program.rules == frozenset(
            {RewriteRule("walk", parse_symbols(f"{CAUTIOUS} walk"))}
        )

    def test_round_trip_all_builtins(self):
        for program in builtin_adverbs():
            text = serialize_program(program)
            assert parse_program(text) == program
            assert serialize_program(parse_program(text)) == text

    def test_comments_and_blank_lines_tolerated(self):
        text = (
            "# a manner\nname: while humming\nmode: allocentric\n\n"
            "North -> turn_left turn_right North  # inline note\n"
        )
        program = parse_program(text)
        assert program.surface == "while humming"
        assert len(program.rules) == 1

    def test_duplicate_lhs_rejected(self):
        text = "name: x\nwalk -> walk stay\nwalk -> stay walk\n"
        with pytest.raises(DuplicateLhs):
            parse_program(text)

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_program("name: x\nwalk -> fly\n")
        assert err.value.line == 2
        with pytest.raises(ParseError):
            parse_program("nonsense line\n")
        with pytest.raises(ParseError):
            parse_program("mode: egocentric\n")  # no name

    @pytest.mark.parametrize("value", ["1_0", "+2", "-1", "2.0", "0x2", "\uff12", ""])
    def test_passes_header_takes_decimal_digits_only(self, value):
        # int() reads the first three and the full-width digit; a registry file
        # or pinned adverb must not be reinterpreted.
        with pytest.raises(ParseError, match="^line 2, column 1: passes must be decimal digits, not ") as err:
            parse_program(f"name: x\npasses: {value}\nwalk -> stay walk\n")
        assert repr(value) in str(err.value)
        assert parse_program("name: x\npasses: 2\nwalk -> stay walk\n").passes == 2

    @pytest.mark.parametrize("text, line, message", [
        ("name: x\npasses: 1_0\n", 2, "passes must be decimal digits, not '1_0'"),
        ("name: x\nwalk -> stay walk\npasses: 0\n", 3, "passes must be at least 1"),
        ("# a manner\nname: x\nmode: sideways\nwalk -> stay walk\n", 3, "unknown mode: 'sideways'"),
        ("name: x\nmode: allocentric\n\nplan_shape: spiral\n", 4, "unknown plan shape: 'spiral'"),
        ("walk -> stay walk\nname:\n", 2, "missing name header"),
        ("name: x\nNorth -> turn_left North\nmode: egocentric\n", 3,
         "egocentric programs may only rewrite egocentric symbols"),
        ("name: x\nNorth -> turn_left North\n", 1, "egocentric programs may only rewrite egocentric symbols"),
        ("name: x\ncolour: red\nwalk -> stay walk\n", 2, "unknown header 'colour'"),
        ("name: x\nmode: egocentric\nname: y\n", 3, "repeated header 'name'"),
    ])
    def test_header_errors_are_placed_at_their_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == f"line {line}, column 1: {message}"

    @pytest.mark.parametrize("text, column, message", [
        ("name: x\nwalk -> fly\n", 9, "unknown symbol 'fly'"),
        ("name: x\nwalk -> stay fly hop\n", 14, "unknown symbol 'fly'"),
        ("name: x\nwalk -> stay walk hop fly\n", 19, "unknown symbol 'hop'"),
        ("name: x\n  fly -> walk\n", 3, "unknown rule lhs 'fly'"),
        ("name: x\nwalk fly -> walk\n", 1, "unknown rule lhs 'walk fly'"),
        ("name: x\n -> walk\n", 1, "unknown rule lhs ''"),
        ("name: x\nwalk ->  # all comment\n", 8, "empty rule rhs"),
    ])
    def test_rule_faults_name_their_token_and_column(self, text, column, message):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == f"line 2, column {column}: {message}"

    @pytest.mark.parametrize("rule, column, token", UNKNOWN_RHS_TOKENS)
    def test_unknown_rhs_symbol_is_placed_at_its_own_column(self, rule, column, token):
        # Its text may also occur earlier in the line, inside another word.
        with pytest.raises(ParseError) as err:
            parse_program(f"name: x\n{rule}\n")
        assert str(err.value) == f"line 2, column {column}: unknown symbol {token!r}"

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS)
    def test_other_line_breaks_stay_inside_a_comment(self, char):
        # str.splitlines() would read the text after them as a line of code.
        assert parse_program(f"name: a # note{char}walk -> stay walk\n").rules == frozenset()
        program = parse_program(f"name: a # note{char} more\nwalk -> stay walk\n")
        assert program.rules == frozenset({RewriteRule("walk", ("stay", "walk"))})
        with pytest.raises(ParseError) as err:
            parse_program(f"name: a # note{char} more\nwalk -> stay walk\npush -> fly\n")
        assert str(err.value) == "line 3, column 9: unknown symbol 'fly'"

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS)
    @pytest.mark.parametrize("text, line, column", [
        ("name: a{}mode: egocentric\n", 1, 8),
        ("name: a\nwalk -> stay{}walk\n", 2, 13),
        ("name: a\nwalk -> stay walk{} # a note\n", 2, 18),
        ("name: a\nwalk -> stay walk\n{}\n", 3, 1),
    ])
    def test_other_line_breaks_are_a_parse_error_in_code(self, char, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_program(text.format(char))
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value).endswith(f"{char!r} in code; only '\\n' ends a line")

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_program_text_newlines_are_normalised(self, newline):
        text = "name: a\nwalk -> stay walk\npush -> fly\n".replace("\n", newline)
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == "line 3, column 9: unknown symbol 'fly'"
        assert parse_program(text.replace("fly", "push")) == parse_program("name: a\nwalk -> stay walk\npush -> push\n")

    def test_rules_serialized_sorted_by_lhs(self, builtins):
        text = serialize_program(builtins["while spinning"])
        rule_lines = [l for l in text.splitlines() if "->" in l]
        lhs = [l.split("->")[0].strip() for l in rule_lines]
        assert lhs == sorted(lhs)


class TestRegistryText:
    def test_sampled_registry_round_trips(self):
        programs = sample_registry(random.Random(13), 60)
        assert parse_registry(serialize_registry(programs)) == programs

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_newlines_read_as_a_text_mode_open_reads_them(self, newline):
        programs = sample_registry(random.Random(13), 5)
        data = serialize_registry(programs).replace("\n", newline).encode()
        assert parse_registry(decode_text(data)) == programs

    @pytest.mark.parametrize("text, line, message", [
        ("name: a\nwalk -> stay walk\n\nname: b\nwalk -> fly\n", 5, "column 9: unknown symbol 'fly'"),
        ("name: a\nwalk -> stay walk\n\nname: b\npasses: 0\nwalk -> stay\n", 5, "column 1: passes must be at least 1"),
        ("name: a\nwalk -> stay walk\n\n\n\nwalk -> stay\n", 6, "column 1: missing name header"),
        ("name: a\nwalk -> stay walk\n\nname: b\nNorth -> North\n", 4,
         "column 1: egocentric programs may only rewrite egocentric symbols"),
    ])
    def test_errors_name_their_line_of_the_registry(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_registry(text)
        assert str(err.value) == f"line {line}, {message}"

    @pytest.mark.parametrize("rule, column, token", UNKNOWN_RHS_TOKENS)
    def test_unknown_rhs_symbol_is_placed_at_its_own_column(self, rule, column, token):
        with pytest.raises(ParseError) as err:
            parse_registry(f"name: a\nwalk -> stay walk\n\nname: b\n{rule}\n")
        assert str(err.value) == f"line 5, column {column}: unknown symbol {token!r}"

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS)
    def test_a_line_break_in_a_comment_moves_no_later_line(self, char):
        text = f"name: a # note{char} more\nwalk -> stay walk\n\nname: b\nwalk -> fly\n"
        with pytest.raises(ParseError) as err:
            parse_registry(text)
        assert str(err.value) == "line 5, column 9: unknown symbol 'fly'"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_registry_text_newlines_are_normalised(self, newline):
        programs = sample_registry(random.Random(13), 5)
        assert parse_registry(serialize_registry(programs).replace("\n", newline)) == programs

    def test_duplicate_lhs_names_its_line_of_the_registry(self):
        with pytest.raises(DuplicateLhs, match="^line 6: second rule for 'walk'$"):
            parse_registry("name: a\nwalk -> stay walk\n\nname: b\nwalk -> stay\nwalk -> walk\n")

    @pytest.mark.parametrize("data, line, column", [
        (b"\xff", 1, 1),
        (b"name: caf\xe9\n", 1, 10),
        (b"name: ok\nwalk -> stay walk\n\nname: s\xc3\xa9 d\xe9j\xe0\n", 4, 11),
    ])
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, data, line, column):
        with pytest.raises(ParseError) as err:
            decode_text(data)
        assert (err.value.line, err.value.column) == (line, column)


class TestProgramInvariants:
    def test_egocentric_program_rejects_allo_rule(self):
        with pytest.raises(ValueError):
            AdverbProgram(
                name=("x",),
                mode="egocentric",
                rules=frozenset({RewriteRule("North", ("North",))}),
            )

    def test_allocentric_program_needs_allo_rule_or_zigzag(self):
        with pytest.raises(ValueError):
            AdverbProgram(
                name=("x",),
                mode="allocentric",
                rules=frozenset({RewriteRule("walk", ("walk",))}),
            )
        # zigzag shape lifts the requirement
        AdverbProgram(name=("x",), mode="allocentric", plan_shape="zigzag")

    def test_duplicate_lhs_on_construction(self):
        with pytest.raises(DuplicateLhs):
            AdverbProgram(
                name=("x",),
                rules=frozenset(
                    {RewriteRule("walk", ("walk", "stay")), RewriteRule("walk", ("stay", "walk"))}
                ),
            )

    def test_empty_rhs_rejected(self):
        with pytest.raises(ValueError):
            RewriteRule("walk", ())

    @pytest.mark.parametrize("lhs, rhs, message", [
        ("fly", ("walk",), "unknown action symbol: 'fly'"),
        ("fly", (), "unknown action symbol: 'fly'"),  # the lhs before the rhs
        ("walk", (), "rule for 'walk' has empty rhs"),
        ("walk", ("stay", "fly", "hop"), "unknown action symbol: 'fly'"),
        ("North", ["turn_left", "hop"], "unknown action symbol: 'hop'"),
    ])
    def test_rule_faults_name_the_first_bad_part(self, lhs, rhs, message):
        with pytest.raises(ConfigError) as err:
            RewriteRule(lhs, rhs)
        assert str(err.value) == message

    def test_passes_must_be_positive(self, builtins):
        with pytest.raises(ValueError):
            replace(builtins["cautiously"], passes=0)
