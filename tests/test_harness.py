import hashlib
import json
import random

import pytest

from mannerforge import harness as harness_module
from mannerforge.cli import main
from mannerforge.errors import (
    ConfigError,
    DuplicatePrediction,
    MalformedRecord,
    MissingPrediction,
    UnknownIndex,
    UnknownSplit,
)
from mannerforge.forge import (
    ForgeConfig,
    SplitSpec,
    forge_dataset,
    read_dataset,
)
from mannerforge.harness import (
    PredictionRecord,
    _percent,
    dataset_stats,
    evaluate,
    exact_match,
    read_predictions,
    semantically_valid,
)

from conftest import corrupt_line

CAUTIOUS_SEQ = (
    "turn_left turn_left turn_right turn_right turn_left walk "
    "turn_left turn_right turn_right turn_left walk "
    "turn_left turn_left turn_right turn_right turn_left walk "
    "turn_left turn_right turn_right turn_left walk"
).split()


SPLITS = (
    SplitSpec(kind="random", name="random", test_fraction=0.8),
    SplitSpec(kind="verb_adverb_holdout", name="pull_spin", verb="pull", surface="while spinning"),
)


def write_corpus(num_examples, out):
    """Forge num_examples with SPLITS into `out`; the dataset read back."""
    cfg = ForgeConfig(seed=29, num_examples=num_examples, extra_adverbs=0, splits=SPLITS)
    forge_dataset(cfg, str(out))
    return read_dataset(str(out))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return write_corpus(1250, tmp_path_factory.mktemp("ds"))


@pytest.fixture
def corrupted(tmp_path):
    """A dataset whose record of one random-split test index, not tested by
    pull_spin, is not JSON; gold predictions for it, that index, and its path."""
    written = write_corpus(300, tmp_path)
    splits = written.splits
    victim = min(set(splits["random"].test) - set(splits["pull_spin"].test))
    gold = gold_predictions(written)  # decoded before the line is corrupted
    corrupt_line(tmp_path, victim + 1)
    return gold, victim, tmp_path


def gold_predictions(dataset):
    return [PredictionRecord(ex.index, ex.target) for ex in dataset.examples]


class TestExactMatch:
    def test_identity(self):
        assert exact_match(CAUTIOUS_SEQ, CAUTIOUS_SEQ)

    def test_length_mismatch(self):
        assert not exact_match(("walk",), ("walk", "walk"))

    def test_single_token_perturbation(self):
        flipped = list(CAUTIOUS_SEQ)
        flipped[0] = "turn_right"
        assert not exact_match(flipped, CAUTIOUS_SEQ)


class TestPercentFormatting:
    def test_two_decimals(self):
        assert _percent(999, 1000) == "99.90"
        assert _percent(1000, 1000) == "100.00"
        assert _percent(0, 7) == "0.00"

    def test_round_half_even(self):
        assert _percent(1, 800) == "0.12"   # 0.125 rounds to even neighbour
        assert _percent(3, 800) == "0.38"   # 0.375 rounds up to the even 8
        assert _percent(1, 8) == "12.50"


class TestEvaluate:
    def test_gold_predictions_score_100(self, dataset):
        report = evaluate(dataset, gold_predictions(dataset))
        for name, metrics in report.splits.items():
            if metrics.n:
                assert metrics.exact_match_percent == "100.00"
                assert metrics.semantic_valid_percent == "100.00"

    def test_split_without_a_test_side_scores_nothing(self, tmp_path):
        # A type_subset split drops registry adverbs from train and tests no example.
        spec = SplitSpec(kind="type_subset", name="no_detour",
                         allowed_types=("spinning_type", "cautiously_type", "zigzag_type"))
        forge_dataset(ForgeConfig(seed=29, num_examples=80, extra_adverbs=6, splits=(spec,)), str(tmp_path))
        written = read_dataset(str(tmp_path))
        assert written.splits["no_detour"].test == ()
        metrics = evaluate(written, gold_predictions(written)).splits["no_detour"]
        assert (metrics.n, metrics.matched, metrics.semantically_valid) == (0, 0, 0)
        assert metrics.exact_match_percent == metrics.semantic_valid_percent == "0.00"

    def test_one_corrupted_record_in_1000(self, dataset):
        assert len(dataset.splits["random"].test) == 1000
        predictions = gold_predictions(dataset)
        victim = dataset.splits["random"].test[0]
        predictions = [
            PredictionRecord(p.index, ("walk", "walk", "walk") if p.index == victim else p.prediction)
            for p in predictions
        ]
        report = evaluate(dataset, predictions, split_names=["random"])
        assert report.splits["random"].exact_match_percent == "99.90"

    def test_missing_prediction(self, dataset):
        preds = gold_predictions(dataset)[:-200]
        with pytest.raises(MissingPrediction):
            evaluate(dataset, preds)

    def test_duplicate_prediction(self, dataset):
        preds = gold_predictions(dataset)
        with pytest.raises(DuplicatePrediction):
            evaluate(dataset, preds + [preds[0]])

    def test_unknown_index(self, dataset):
        preds = gold_predictions(dataset) + [PredictionRecord(10 ** 9, ("walk",))]
        with pytest.raises(UnknownIndex):
            evaluate(dataset, preds)

    def test_negative_index_is_unknown(self, dataset):
        preds = gold_predictions(dataset) + [PredictionRecord(-1, ("walk",))]
        with pytest.raises(UnknownIndex, match="-1"):
            evaluate(dataset, preds)

    def test_unknown_split(self, dataset):
        with pytest.raises(UnknownSplit, match="known splits: pull_spin, random"):
            evaluate(dataset, gold_predictions(dataset), split_names=["random", "nope"])

    def test_order_invariance(self, dataset):
        preds = gold_predictions(dataset)
        shuffled = preds[:]
        random.Random(1).shuffle(shuffled)
        a = evaluate(dataset, preds)
        b = evaluate(dataset, shuffled)
        assert a.splits == b.splits
        assert a.dataset_digest == b.dataset_digest

    def test_semantic_validity_strictly_weaker(self, dataset):
        # A redundant turn pair keeps the trajectory but breaks exact match.
        walk_examples = [ex for ex in dataset.examples if ex.verb == "walk" and ex.target]
        ex = walk_examples[0]
        padded = ("turn_left", "turn_right") + ex.target
        assert not exact_match(padded, ex.target)
        assert semantically_valid(ex, padded)
        # and exact match always implies semantic validity on forge output
        for sample in dataset.examples[:100]:
            assert semantically_valid(sample, sample.target)

    def test_semantic_check_raises_a_config_error(self, dataset, monkeypatch):
        # An executor error makes a prediction invalid; a ConfigError is a broken world
        # invariant, which no prediction causes, so it is not scored as one.
        ex = dataset.examples[0]
        assert not semantically_valid(ex, ("North",))  # AlloSymbolPresent

        def broken_executor(world, actions):
            raise ConfigError("two objects share cell (1, 1)")

        monkeypatch.setattr(harness_module, "execute", broken_executor)
        with pytest.raises(ConfigError):
            semantically_valid(ex, ex.target)

    def test_report_digests_are_stable(self, dataset):
        a = evaluate(dataset, gold_predictions(dataset))
        b = evaluate(dataset, gold_predictions(dataset))
        assert a == b

    def test_predictions_digest_follows_its_definition(self, dataset, tmp_path):
        # sha256 over each record's json.dumps({"index": i, "prediction": p},
        # sort_keys=True), in file order, whatever the tokens hold.
        odd = [[], ["jump"], ['say "hi"'], ["back\\slash", "walk"], ["très", "☃"], ["walk", "Walk", "walk"]]
        records = [{"index": ex.index, "prediction": list(ex.target)} for ex in dataset.examples]
        for record, prediction in zip(records, odd):
            record["prediction"] = prediction
        random.Random(3).shuffle(records)
        path = tmp_path / "preds.ndrec"
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
        report = evaluate(dataset, read_predictions(str(path)))
        expected = hashlib.sha256()
        for record in records:
            expected.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        assert report.predictions_digest == expected.hexdigest()


class TestBadRecords:
    def test_evaluate_decodes_each_tested_record(self, corrupted):
        predictions, victim, path = corrupted
        with pytest.raises(MalformedRecord) as err:
            evaluate(read_dataset(str(path)), predictions, split_names=["random"])
        assert err.value.line == victim + 1

    def test_evaluate_skips_untested_records(self, corrupted):
        # A record that no evaluated split tests is hashed but never decoded.
        predictions, _, path = corrupted
        report = evaluate(read_dataset(str(path)), predictions, split_names=["pull_spin"])
        assert report.splits["pull_spin"].n > 0
        assert report.splits["pull_spin"].exact_match_percent == "100.00"

    def test_stats_decodes_every_record(self, corrupted, capsys):
        _, victim, path = corrupted
        assert main(["stats", "--dataset", str(path)]) == 1
        assert f"error[MalformedRecord]: {path / 'examples.ndrec'}:{victim + 1}:" in capsys.readouterr().err


class TestPredictionIO:
    def test_read_predictions(self, tmp_path):
        path = tmp_path / "preds.ndrec"
        path.write_text(
            '{"index": 0, "prediction": ["walk"]}\n'
            '{"index": 1, "prediction": ["turn_left", "walk"]}\n'
        )
        records = read_predictions(str(path))
        assert records == [
            PredictionRecord(0, ("walk",)),
            PredictionRecord(1, ("turn_left", "walk")),
        ]

    def test_read_predictions_shares_vocabulary_strings(self, tmp_path):
        path = tmp_path / "preds.ndrec"
        path.write_text(
            '{"index": 0, "prediction": ["walk", "turn_left"]}\n'
            '{"index": 1, "prediction": ["walk", "jump", "Walk"]}\n'
        )
        first, second = read_predictions(str(path))
        assert first.prediction[0] is second.prediction[0] == "walk"
        assert second.prediction[1:] == ("jump", "Walk")  # outside the vocabulary, kept as read

    def test_malformed_prediction_line(self, tmp_path):
        path = tmp_path / "preds.ndrec"
        path.write_text('{"index": 0, "prediction": ["walk"]}\n{"index": 1}\n')
        with pytest.raises(MalformedRecord) as err:
            read_predictions(str(path))
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "record",
        [
            '{"index": 1, "prediction": "walk walk"}',
            '{"index": 1, "prediction": ["walk", 2]}',
            '{"index": 3.7, "prediction": ["walk"]}',
            '{"index": true, "prediction": ["walk"]}',
            '{"index": "1", "prediction": ["walk"]}',
        ],
    )
    def test_mistyped_prediction_line(self, tmp_path, record):
        path = tmp_path / "preds.ndrec"
        path.write_text('{"index": 0, "prediction": ["walk"]}\n' + record + "\n")
        with pytest.raises(MalformedRecord) as err:
            read_predictions(str(path))
        assert err.value.line == 2


    @pytest.mark.parametrize("prediction", ["[null]", '[["walk"]]', '{"walk": 1}', '"walk walk"', '["walk", 2]'])
    def test_prediction_that_is_no_list_of_strings(self, tmp_path, prediction):
        path = tmp_path / "preds.ndrec"
        path.write_text('{"index": 0, "prediction": ["walk"]}\n{"index": 1, "prediction": ' + prediction + "}\n")
        with pytest.raises(MalformedRecord) as err:
            read_predictions(str(path))
        assert str(err.value) == f"{path}:2: prediction must be a list of strings"

    @pytest.mark.parametrize("record, shown", [('"x"', "'x'"), ("[1]", "[1]"), ("7", "7"), ("null", "None")])
    def test_prediction_line_that_is_no_object(self, tmp_path, record, shown):
        path = tmp_path / "preds.ndrec"
        path.write_text('{"index": 0, "prediction": ["walk"]}\n' + record + "\n")
        with pytest.raises(MalformedRecord) as err:
            read_predictions(str(path))
        assert str(err.value) == f"{path}:2: prediction record must be an object, not {shown}"

    def test_prediction_line_missing_a_key(self, tmp_path):
        path = tmp_path / "preds.ndrec"
        path.write_text('{"index": 1}\n')
        with pytest.raises(MalformedRecord) as err:
            read_predictions(str(path))
        assert str(err.value) == f"{path}:1: missing key 'prediction'"

    def test_prediction_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "preds.ndrec"
        path.write_bytes(b'{"index": 0, "prediction": ["walk"]}\n\n{"index": 1, "prediction": ["w\xe9lk"]}\n')
        with pytest.raises(MalformedRecord) as err:
            read_predictions(str(path))
        assert err.value.line == 3
        assert "'utf-8' codec can't decode byte 0xe9" in str(err.value)

    @pytest.mark.parametrize(
        "record, key",
        [
            ('{"index": 1, "prediction": ["walk"], "extra": 5}', "extra"),
            ('{"score": 1, "index": 1, "prediction": ["walk"], "extra": 5}', "extra"),
            ('{"index": 1, "Prediction": ["walk"], "prediction": ["walk"]}', "Prediction"),
        ],
    )
    def test_prediction_line_takes_no_other_key(self, tmp_path, record, key):
        path = tmp_path / "preds.ndrec"
        path.write_text('{"index": 0, "prediction": ["walk"]}\n' + record + "\n")
        with pytest.raises(MalformedRecord) as err:
            read_predictions(str(path))
        assert err.value.line == 2
        assert str(err.value) == f"{path}:2: unknown key {key!r}"


class TestStats:
    def test_stats_shape(self, dataset):
        stats = dataset_stats(dataset)
        assert stats["num_examples"] == 1250
        assert stats["adverb_surfaces"] == 4
        assert set(stats["verbs"]) <= {"walk", "push", "pull"}
        assert stats["splits"]["random"]["test"] == 1000
        assert stats["target_length"]["max"] >= stats["target_length"]["min"]
        json.dumps(stats)  # must be serializable as-is
