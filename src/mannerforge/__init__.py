"""Gridworld instruction datasets with rewrite-rule adverb manners.

A deterministic library and CLI for: a grid instruction-following world with
an action executor, a functional rewrite-rule language for adverb manners, a
sampler of novel adverbs by type, a rule-based oracle that solves commands,
a dataset forge with systematic train/test splits, and an exact-match
evaluation harness.
"""

from .dsl import (
    AdverbProgram,
    RewriteRule,
    apply_pass,
    apply_program,
    builtin_adverbs,
    ground,
    parse_program,
    parse_registry,
    programs_equal,
    serialize_program,
    serialize_registry,
)
from .errors import MannerforgeError
from .forge import (
    Dataset,
    Example,
    ForgeConfig,
    SplitSpec,
    build_lexicon,
    build_splits,
    forge_dataset,
    read_dataset,
    read_registry,
)
from .harness import EvalReport, PredictionRecord, dataset_stats, evaluate, exact_match
from .metagrammar import (
    ADVERB_TYPES,
    MetaGrammarConfig,
    classify_program,
    generate_name,
    sample_program,
    sample_registry,
)
from .pipeline import (
    Lexicon,
    Percept,
    Plan,
    SolveTrace,
    goal_satisfied,
    perceive,
    plan_interaction,
    plan_navigation,
    solve,
    solve_trace,
    transform,
)
from .world import (
    Command,
    GridObject,
    Position,
    WorldState,
    execute,
    parse_command,
    resolve_target,
    sample_situation,
)

__version__ = "0.1.0"
