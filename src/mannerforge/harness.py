"""Exact-match evaluation of externally produced predictions.

Exact match is token-for-token equality with the oracle target.  Alongside it
the report carries semantic validity, a strictly weaker auxiliary metric: the
share of predictions that execute without error and still satisfy the verb's
goal (a prediction with a redundant turn pair can be semantically valid yet
not an exact match).  Percentages are rendered with two decimals, rounding
half to even.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal

from .errors import (
    ConfigError,
    DuplicatePrediction,
    MalformedRecord,
    MannerforgeError,
    MissingPrediction,
    UnknownIndex,
    UnknownSplit,
)
from .forge import Dataset, Example, _strings_only, load_json
from .pipeline import goal_satisfied
from .symbols import ALL_SYMBOLS
from .world import execute

# Each action symbol as one shared string: a prediction token in the vocabulary is
# read as this object, not as a new string of its own.
_SYMBOLS = {symbol: symbol for symbol in ALL_SYMBOLS}
_PREDICTION_KEYS = {"index", "prediction"}


@dataclass(frozen=True)
class PredictionRecord:
    index: int
    prediction: tuple[str, ...]


@dataclass(frozen=True)
class SplitMetrics:
    n: int
    matched: int
    semantically_valid: int

    @property
    def exact_match_percent(self) -> str:
        return _percent(self.matched, self.n)

    @property
    def semantic_valid_percent(self) -> str:
        return _percent(self.semantically_valid, self.n)


@dataclass(frozen=True)
class EvalReport:
    splits: dict
    dataset_digest: str
    predictions_digest: str

    def to_dict(self) -> dict:
        return {
            "splits": {
                name: {
                    "n": m.n,
                    "matched": m.matched,
                    "semantically_valid": m.semantically_valid,
                    "exact_match_percent": m.exact_match_percent,
                    "semantic_valid_percent": m.semantic_valid_percent,
                }
                for name, m in sorted(self.splits.items())
            },
            "dataset_digest": self.dataset_digest,
            "predictions_digest": self.predictions_digest,
        }


def _percent(numerator: int, denominator: int) -> str:
    if denominator == 0:
        return "0.00"
    value = Decimal(100 * numerator) / Decimal(denominator)
    return str(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def exact_match(prediction, target) -> bool:
    """Token-for-token equality, length included."""
    prediction = tuple(prediction)
    target = tuple(target)
    return prediction == target


def semantically_valid(example: Example, prediction) -> bool:
    """Does the prediction execute without error and satisfy the verb's goal?"""
    try:
        final = execute(example.world, tuple(prediction))
    except ConfigError:
        raise  # a broken world invariant, not a prediction that fails
    except MannerforgeError:
        return False
    return goal_satisfied(example.verb, example.world, final)


def _prediction_json(index: int, prediction: tuple) -> str:
    """json.dumps({"index": index, "prediction": list(prediction)}, sort_keys=True), written
    directly when the index is an int and every token an action symbol, which needs no
    escaping."""
    try:
        plain = type(index) is int and ALL_SYMBOLS.issuperset(prediction)
    except TypeError:  # an unhashable token
        plain = False
    if not plain:
        tokens = json.dumps(list(prediction))
    else:
        tokens = '["' + '", "'.join(prediction) + '"]' if prediction else "[]"
    return f'{{"index": {index}, "prediction": {tokens}}}'


def read_predictions(path: str) -> list[PredictionRecord]:
    """The records of a predictions file, one JSON object a line; blank lines are skipped.
    Any fault in a line, bytes that are not UTF-8 among them, is MalformedRecord(path, lineno, ...)."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            data = load_json(line, MalformedRecord, path, lineno)
            if type(data) is not dict:
                raise MalformedRecord(path, lineno, f"prediction record must be an object, not {data!r}")
            if data.keys() != _PREDICTION_KEYS:
                key = min(data.keys() ^ _PREDICTION_KEYS)
                raise MalformedRecord(path, lineno, f"{'unknown' if key in data else 'missing'} key {key!r}")
            index, prediction = data["index"], data["prediction"]
            if type(index) is not int:  # bool is an int subclass
                raise MalformedRecord(path, lineno, f"index must be an integer, not {index!r}")
            if type(prediction) is not list or not _strings_only(prediction):  # "".join takes a str too
                raise MalformedRecord(path, lineno, "prediction must be a list of strings")
            prediction = tuple(map(_SYMBOLS.get, prediction, prediction))  # unknown tokens as they are
            records.append(PredictionRecord(index=index, prediction=prediction))
    return records


def evaluate(dataset: Dataset, predictions, split_names=None) -> EvalReport:
    """Score predictions against every selected split's test set.

    Each evaluated test index must be predicted exactly once; predictions for
    known non-test indices are ignored, unknown indices are an error.
    """
    predicted: dict[int, tuple[str, ...]] = {}
    digest = hashlib.sha256()
    for record in predictions:
        if not 0 <= record.index < len(dataset.examples):
            raise UnknownIndex(f"prediction for index {record.index} not in dataset")
        if record.index in predicted:
            raise DuplicatePrediction(f"index {record.index} predicted more than once")
        predicted[record.index] = prediction = tuple(record.prediction)
        digest.update(_prediction_json(record.index, prediction).encode("utf-8"))

    if split_names is None:
        selected = dict(dataset.splits)
    else:
        for name in split_names:
            if name not in dataset.splits:
                raise UnknownSplit(
                    f"no split named {name!r}; known splits: {', '.join(sorted(dataset.splits))}"
                )
        selected = {name: dataset.splits[name] for name in split_names}

    evaluated = set()
    for name, assignment in selected.items():
        for index in assignment.test:
            if index not in predicted:
                raise MissingPrediction(f"split {name!r}: no prediction for index {index}")
            evaluated.add(index)

    exact_cache, valid_cache = {}, {}
    for i in sorted(evaluated):
        example = dataset.example_by_index(i)
        exact_cache[i] = exact_match(predicted[i], example.target)
        valid_cache[i] = semantically_valid(example, predicted[i])

    metrics: dict[str, SplitMetrics] = {}
    for name, assignment in selected.items():
        matched = sum(exact_cache[i] for i in assignment.test)
        valid = sum(valid_cache[i] for i in assignment.test)
        metrics[name] = SplitMetrics(
            n=len(assignment.test), matched=matched, semantically_valid=valid
        )

    dataset_digest = hashlib.sha256(
        json.dumps(dataset.manifest, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return EvalReport(
        splits=metrics,
        dataset_digest=dataset_digest,
        predictions_digest=digest.hexdigest(),
    )


def dataset_stats(dataset: Dataset) -> dict:
    """Corpus statistics: sizes, vocabulary, verb/type/adverb distributions."""
    verbs: dict[str, int] = {}
    types: dict[str, int] = {}
    adverbs: dict[str, int] = {}
    lengths = []
    for ex in dataset.examples:
        verbs[ex.verb] = verbs.get(ex.verb, 0) + 1
        lengths.append(len(ex.target))
        if ex.adverb_surface:
            adverbs[ex.adverb_surface] = adverbs.get(ex.adverb_surface, 0) + 1
            types[ex.adverb_type] = types.get(ex.adverb_type, 0) + 1
    return {
        "num_examples": len(dataset.examples),
        "adverb_surfaces": len(adverbs),
        "verbs": dict(sorted(verbs.items())),
        "adverb_types": dict(sorted(types.items())),
        "no_adverb": len(dataset.examples) - sum(adverbs.values()),
        "target_length": {
            "mean": round(sum(lengths) / max(len(lengths), 1), 2),
            "max": max(lengths, default=0),
            "min": min(lengths, default=0),
        },
        "splits": {
            name: {"train": len(a.train), "test": len(a.test), "dropped": len(a.dropped)}
            for name, a in sorted(dataset.splits.items())
        },
    }
