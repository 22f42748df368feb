import random
from sys import float_info

import pytest

from mannerforge.dsl import AdverbProgram, RewriteRule, builtin_adverbs, programs_equal
from mannerforge.errors import NUMBER, ConfigError, RejectBudgetExceeded, Unclassifiable, require
from mannerforge.metagrammar import (
    CAUTIOUSLY_TYPE,
    DETOUR_TYPE,
    SPINNING_TYPE,
    ZIGZAG_TYPE,
    MetaGrammarConfig,
    classify_program,
    generate_name,
    is_valid_detour_rule,
    sample_program,
    sample_registry,
)
from mannerforge.symbols import net_rotation


class TestClassify:
    def test_builtins(self, builtins):
        assert classify_program(builtins["while spinning"]) == SPINNING_TYPE
        assert classify_program(builtins["cautiously"]) == CAUTIOUSLY_TYPE
        assert classify_program(builtins["while zigzagging"]) == ZIGZAG_TYPE
        # hesitantly changes nothing about movement across cells, so it sits
        # with the egocentric within-cell manners
        assert classify_program(builtins["hesitantly"]) == CAUTIOUSLY_TYPE

    def test_detour_exemplar(self):
        program = AdverbProgram(
            name=("while", "wandering"),
            mode="allocentric",
            rules=frozenset({RewriteRule("East", ("North", "East", "South"))}),
        )
        assert classify_program(program) == DETOUR_TYPE

    def test_unclassifiable_is_surfaced(self):
        weird = AdverbProgram(
            name=("while", "glitching"),
            mode="allocentric",
            rules=frozenset({RewriteRule("North", ("walk", "North"))}),
        )
        with pytest.raises(Unclassifiable):
            classify_program(weird)

    @pytest.mark.parametrize("program, message", [
        (AdverbProgram(name=("idly",)), "program 'idly' has no rules and no plan variant"),
        (AdverbProgram(name=("twice",), rules=frozenset({RewriteRule("walk", ("walk", "walk"))})),
         "program 'twice' fits no type"),
    ])
    def test_unclassifiable_says_why(self, program, message):
        with pytest.raises(Unclassifiable) as err:
            classify_program(program)
        assert str(err.value) == message


class TestDetourValidity:
    def test_wraparound_exemplar_accepted(self):
        assert is_valid_detour_rule(RewriteRule("East", ("North", "East", "South")))

    def test_displacement_must_match(self):
        assert not is_valid_detour_rule(RewriteRule("East", ("North", "East", "East")))

    def test_single_symbol_rhs_is_no_detour(self):
        assert not is_valid_detour_rule(RewriteRule("East", ("East",)))

    def test_non_allocentric_content_rejected(self):
        assert not is_valid_detour_rule(RewriteRule("East", ("turn_left", "East")))
        assert not is_valid_detour_rule(RewriteRule("walk", ("walk", "walk")))

    def test_length_bound(self):
        long_rhs = ("North", "South") * 3 + ("East",)
        assert not is_valid_detour_rule(RewriteRule("East", long_rhs), rhs_max=5)
        assert is_valid_detour_rule(RewriteRule("East", long_rhs), rhs_max=None)


class TestSampleProgram:
    def test_sampled_programs_classify_back(self):
        cfg = MetaGrammarConfig()
        for seed in range(300):
            rng = random.Random(seed)
            for requested in (SPINNING_TYPE, CAUTIOUSLY_TYPE, DETOUR_TYPE):
                program = sample_program(rng, requested, cfg)
                assert classify_program(program) == requested

    def test_cautiously_samples_have_net_zero_prefixes(self):
        cfg = MetaGrammarConfig()
        for seed in range(1000):
            program = sample_program(random.Random(seed), CAUTIOUSLY_TYPE, cfg)
            assert {r.lhs for r in program.rules} == {"walk", "push", "pull"}
            for rule in program.rules:
                assert net_rotation(rule.rhs[:-1]) == 0
                lo, hi = cfg.prefix_len_range
                assert lo <= len(rule.rhs) - 1 <= hi

    def test_spinning_samples_share_one_prefix(self):
        cfg = MetaGrammarConfig()
        for seed in range(200):
            program = sample_program(random.Random(seed), SPINNING_TYPE, cfg)
            prefixes = {r.rhs[:-1] for r in program.rules}
            assert len(prefixes) == 1
            assert net_rotation(prefixes.pop()) == 0
            assert {r.lhs for r in program.rules} == {
                "North", "South", "East", "West", "push", "pull"}

    def test_detour_samples_are_valid(self):
        cfg = MetaGrammarConfig()
        for seed in range(500):
            program = sample_program(random.Random(seed), DETOUR_TYPE, cfg)
            assert program.mode == "allocentric"
            for rule in program.rules:
                assert is_valid_detour_rule(rule, cfg.detour_rhs_max)

    def test_zigzag_cannot_be_sampled(self):
        with pytest.raises(ValueError):
            sample_program(random.Random(0), ZIGZAG_TYPE, MetaGrammarConfig())


class TestGenerateName:
    def test_shapes(self):
        rng = random.Random(1)
        allo = generate_name(rng, "allocentric")
        assert len(allo) == 2 and allo[0] == "while" and allo[1].endswith("ing")
        ego = generate_name(rng, "egocentric")
        assert len(ego) == 1 and ego[0].endswith("ly")

    def test_deterministic(self):
        assert generate_name(random.Random(42), "allocentric") == generate_name(
            random.Random(42), "allocentric"
        )

    def test_thousand_distinct_draws(self):
        rng = random.Random(3)
        used: set[str] = set()
        names = [generate_name(rng, "egocentric", used) for _ in range(1000)]
        assert len({" ".join(n) for n in names}) == 1000


class TestSampleRegistry:
    def test_empty(self):
        assert sample_registry(random.Random(0), 0) == []

    def test_entries_unique_and_not_builtin(self):
        programs = sample_registry(random.Random(5), 40)
        assert len(programs) == 40
        for i, a in enumerate(programs):
            for b in programs[i + 1 :]:
                assert not programs_equal(a, b)
            for builtin in builtin_adverbs():
                assert not programs_equal(a, builtin)
        surfaces = {p.surface for p in programs}
        assert len(surfaces) == 40

    def test_deterministic(self):
        assert sample_registry(random.Random(7), 25) == sample_registry(random.Random(7), 25)

    def test_type_proportions_follow_weights(self):
        cfg = MetaGrammarConfig(
            type_weights={SPINNING_TYPE: 0.7, CAUTIOUSLY_TYPE: 0.2, DETOUR_TYPE: 0.1}
        )
        programs = sample_registry(random.Random(11), 200, cfg)
        counts = {SPINNING_TYPE: 0, CAUTIOUSLY_TYPE: 0, DETOUR_TYPE: 0}
        for p in programs:
            counts[classify_program(p)] += 1
        assert counts[SPINNING_TYPE] > counts[CAUTIOUSLY_TYPE] > counts[DETOUR_TYPE]
        assert abs(counts[SPINNING_TYPE] / 200 - 0.7) < 0.12

    def test_reject_budget(self):
        # Length-2 net-zero prefixes admit exactly two spinning programs.
        cfg = MetaGrammarConfig(
            type_weights={SPINNING_TYPE: 1.0},
            prefix_len_range=(2, 2),
            max_rejects=25,
        )
        with pytest.raises(RejectBudgetExceeded):
            sample_registry(random.Random(1), 3, cfg)


class TestMetaGrammarConfig:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MetaGrammarConfig(type_weights={SPINNING_TYPE: 0.5})

    def test_zigzag_weight_must_be_zero(self):
        with pytest.raises(ValueError):
            MetaGrammarConfig(
                type_weights={ZIGZAG_TYPE: 0.5, SPINNING_TYPE: 0.5}
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            MetaGrammarConfig(
                type_weights={SPINNING_TYPE: 1.5, CAUTIOUSLY_TYPE: -0.5}
            )

    def test_prefix_range_needs_an_even_length(self):
        with pytest.raises(ValueError):
            MetaGrammarConfig(prefix_len_range=(3, 3))

    def test_negative_max_rejects_rejected(self):
        with pytest.raises(ValueError, match=r"^max_rejects must be at least 0, not -1$"):
            MetaGrammarConfig(max_rejects=-1)
        assert MetaGrammarConfig(max_rejects=0).max_rejects == 0

    @pytest.mark.parametrize(
        "key, kwargs",
        [
            ("type_weights", {"type_weights": {SPINNING_TYPE: "1"}}),
            ("type_weights", {"type_weights": {SPINNING_TYPE: True}}),
            ("type_weights", {"type_weights": [SPINNING_TYPE]}),
            ("prefix_len_range", {"prefix_len_range": (2.0, 8)}),
            ("prefix_len_range", {"prefix_len_range": (2, 8, 10)}),
            ("prefix_len_range", {"prefix_len_range": 8}),
            ("detour_rhs_max", {"detour_rhs_max": "5"}),
            ("max_rejects", {"max_rejects": 1000.0}),
        ],
    )
    def test_mistyped_values_rejected(self, key, kwargs):
        with pytest.raises(ValueError, match=f"^{key}"):
            MetaGrammarConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"type_weights": {"sneaky_type": 1.0}}, "unknown adverb type: 'sneaky_type'"),
        ({"detour_rhs_max": 2}, "detour_rhs_max must allow at least one inserted pair"),
    ])
    def test_out_of_range_values_rejected(self, kwargs, message):
        with pytest.raises(ConfigError) as err:
            MetaGrammarConfig(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, weight):
        weights = {SPINNING_TYPE: weight, CAUTIOUSLY_TYPE: 0.5, DETOUR_TYPE: 0.5}
        with pytest.raises(ValueError, match=r"^type_weights\['spinning_type'\] must be a finite number"):
            MetaGrammarConfig(type_weights=weights)

    @pytest.mark.parametrize("weight", [10**400, -(10**400), int(float_info.max) + 1])
    def test_weight_no_float_holds_rejected(self, weight):
        # Each lies beyond the largest float; summing 10**400 into a float raises OverflowError.
        weights = {SPINNING_TYPE: weight, CAUTIOUSLY_TYPE: 0.5, DETOUR_TYPE: 0.5}
        with pytest.raises(ValueError, match=r"^type_weights\['spinning_type'\] must be a number a float can hold"):
            MetaGrammarConfig(type_weights=weights)

    def test_largest_float_as_integer_accepted(self):
        require("w", int(float_info.max), NUMBER)
        require("w", -int(float_info.max), NUMBER)

    def test_integer_weight_accepted(self):
        assert MetaGrammarConfig(type_weights={SPINNING_TYPE: 1}).type_weights == {SPINNING_TYPE: 1}
