"""Layer timing for the traced benchmark run, from outside the program.

The tracer swaps the module attributes through which one mannerforge layer
calls another (say `mannerforge.forge.sample_situation`) for wrappers that
record a span: id, parent id, layer name, start and end in perf_counter
nanoseconds, workload-run id, process id, and an optional observation such
as the exception a call raised.  Spans stay in memory until the run ends.
A site whose attribute no longer exists is reported as absent, so internal
renames cost a layer's numbers, not the run.

Pool workers forked by `forge_dataset(jobs=2)` inherit the wrappers.  The
wrapper of the worker's chunk function sends the worker's spans back inside
the pickled chunk result, where they rejoin the parent's list.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter_ns

# (layer, module, attribute).  A layer may be entered through several sites.
SITES = (
    ("forge.forge_dataset", "mannerforge.forge", "forge_dataset"),
    ("forge.build_lexicon", "mannerforge.forge", "build_lexicon"),
    ("metagrammar.sample_registry", "mannerforge.forge", "sample_registry"),
    ("forge.generate_parallel", "mannerforge.forge", "generate_examples_parallel"),
    ("forge.worker_chunk", "mannerforge.forge", "_worker_chunk"),
    ("forge.generate_example", "mannerforge.forge", "_generate_one"),
    ("world.sample_situation", "mannerforge.forge", "sample_situation"),
    ("pipeline.solve", "mannerforge.forge", "solve"),
    ("world.execute", "mannerforge.forge", "execute"),
    ("world.execute", "mannerforge.harness", "execute"),
    ("pipeline.goal_satisfied", "mannerforge.forge", "goal_satisfied"),
    ("pipeline.goal_satisfied", "mannerforge.harness", "goal_satisfied"),
    ("dsl.apply_program", "mannerforge.pipeline", "apply_program"),
    ("dsl.apply_program", "mannerforge.forge", "apply_program"),
    ("dsl.ground", "mannerforge.pipeline", "ground"),
    ("forge.build_splits", "mannerforge.forge", "build_splits"),
    ("forge.write_dataset", "mannerforge.forge", "write_dataset"),
    ("forge.emit_module_datasets", "mannerforge.forge", "emit_module_datasets"),
    ("forge.read_dataset", "mannerforge.forge", "read_dataset"),
    ("harness.read_predictions", "mannerforge.harness", "read_predictions"),
    ("harness.evaluate", "mannerforge.harness", "evaluate"),
    ("harness.semantic_check", "mannerforge.harness", "semantically_valid"),
    ("harness.exact_match", "mannerforge.harness", "exact_match"),
)

NO_ADVERB = "none"

# Span tuple fields.
ID, PARENT, LAYER, START, END, RUN, PID, INFO = range(8)

# The tracer that worker spans return to.  Pickle can only name a module-level
# function, so `_receive` finds it here; `Tracer.install` sets it.
_ACTIVE: "Tracer | None" = None


class _Shipped(list):
    """A worker's chunk result that carries the worker's spans to the parent."""

    def __init__(self, items, spans):
        super().__init__(items)
        self.spans = spans

    def __reduce__(self):
        return _receive, (list(self), self.spans)


def _receive(items, spans):
    if _ACTIVE is not None:
        _ACTIVE.spans.extend(spans)
    return items


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.run = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._pid = os.getpid()
        self._context = (None, None)  # (adverb type, verb) of the last solve
        self._installed: list[tuple] = []
        self.absent_sites: list[str] = []
        self.present_layers: set[str] = set()

    # --- installing -------------------------------------------------------

    def install(self) -> None:
        global _ACTIVE
        self.absent_sites = []
        self.present_layers = set()
        for layer, module_name, attr in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent_sites.append(f"{module_name}.{attr}")
                continue
            if attr == "_worker_chunk":
                wrapper = self._worker_wrapper(layer, original)
            else:
                wrapper = self._wrapper(layer, original, _OBSERVERS.get(layer))
            setattr(module, attr, wrapper)
            self._installed.append((module, attr, original))
            self.present_layers.add(layer)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        _ACTIVE = None

    def absent_layers(self) -> list[str]:
        return sorted({layer for layer, _, _ in SITES} - self.present_layers)

    # --- wrappers ---------------------------------------------------------

    def _wrapper(self, layer, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            info = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = tracer._failure(layer, exc, args, kwargs)
                raise
            else:
                if observe is not None:
                    info = observe(tracer, args, kwargs, result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, layer, start, end, tracer.run, tracer._pid, info))

        return traced

    def _worker_wrapper(self, layer, fn):
        traced = self._wrapper(layer, fn, None)
        tracer = self

        # Same name and module as the original, so pickle can send it to the
        # pool by reference; the forked worker resolves it to this wrapper.
        @functools.wraps(fn)
        def worker(*args, **kwargs):
            if os.getpid() != tracer._pid:
                # First chunk in a forked worker: drop the parent's spans.
                tracer._pid = os.getpid()
                tracer._next_id = tracer._pid << 32
                tracer._stack = []
                tracer.spans = []
            mark = len(tracer.spans)
            result = traced(*args, **kwargs)
            spans = tracer.spans[mark:]
            del tracer.spans[mark:]
            return _Shipped(result, spans)

        return worker

    def _failure(self, layer, exc, args, kwargs):
        if layer == "pipeline.solve":
            self._context = _solve_context(args, kwargs)
        adverb_type, verb = self._context
        return ["raise", type(exc).__name__, adverb_type, verb]

    # --- output -----------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _solve_context(args, kwargs):
    command = _arg(args, kwargs, 0, "command")
    lexicon = _arg(args, kwargs, 2, "lexicon")
    adverb_type = NO_ADVERB
    if command.adverb:
        types = getattr(lexicon, "types", {}) or {}
        adverb_type = types.get(" ".join(command.adverb), "unknown")
    return adverb_type, command.verb


def _observe_solve(tracer, args, kwargs, result):
    tracer._context = _solve_context(args, kwargs)
    return None


def _observe_goal(tracer, args, kwargs, result):
    if result:
        return None
    adverb_type, _ = tracer._context
    return ["reject", "GoalNotSatisfied", adverb_type, _arg(args, kwargs, 0, "verb")]


def _observe_length(tracer, args, kwargs, result):
    return len(result)


def _observe_truth(tracer, args, kwargs, result):
    return bool(result)


_OBSERVERS = {
    "pipeline.solve": _observe_solve,
    "pipeline.goal_satisfied": _observe_goal,
    "dsl.apply_program": _observe_length,
    "dsl.ground": _observe_length,
    "metagrammar.sample_registry": _observe_length,
    "harness.exact_match": _observe_truth,
}

# Solve, execute and goal checks made directly by example generation are
# attempts; a failure there makes the forge sample a new situation.
_ATTEMPT_LAYERS = ("pipeline.solve", "world.execute", "pipeline.goal_satisfied")


class RunSummary:
    """Per-layer figures of one workload run (one `run` id)."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.main_self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.fails: Counter = Counter()
        self.goal_rejects = 0
        self.symbols_out = 0
        self.registry_size = 0
        self.exact_matches = 0
        self.retries: Counter = Counter()  # (cause, adverb type, verb)

    def counts(self) -> dict:
        """Everything that must repeat exactly from run to run."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "fails": dict(sorted(self.fails.items())),
            "goal_rejects": self.goal_rejects,
            "symbols_out": self.symbols_out,
            "registry_size": self.registry_size,
            "exact_matches": self.exact_matches,
            "retries": {"|".join(map(str, k)): v for k, v in sorted(self.retries.items(), key=str)},
        }


def summarize(spans, main_pid: int) -> dict[int, RunSummary]:
    """Self time per layer and run: span duration minus the duration of its
    direct children (children of one span never overlap, as each process
    runs its spans on one thread)."""
    child_ns: Counter = Counter()
    layer_of = {}
    for span in spans:
        layer_of[span[ID]] = span[LAYER]
        if span[PARENT] is not None:
            child_ns[span[PARENT]] += span[END] - span[START]
    runs: dict[int, RunSummary] = defaultdict(RunSummary)
    for span in spans:
        summary = runs[span[RUN]]
        layer = span[LAYER]
        own = span[END] - span[START] - child_ns[span[ID]]
        summary.self_ns[layer] += own
        if span[PID] == main_pid:
            summary.main_self_ns[layer] += own
        summary.calls[layer] += 1
        info = span[INFO]
        if isinstance(info, list):
            if info[0] == "raise":
                summary.fails[layer] += 1
            else:
                summary.goal_rejects += 1
            if layer in _ATTEMPT_LAYERS and layer_of.get(span[PARENT]) == "forge.generate_example":
                summary.retries[(info[1], info[2], info[3])] += 1
        elif layer in ("dsl.apply_program", "dsl.ground"):
            summary.symbols_out += info
        elif layer == "metagrammar.sample_registry":
            summary.registry_size += info
        elif layer == "harness.exact_match":
            summary.exact_matches += info
    return runs
