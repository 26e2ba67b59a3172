"""End-to-end command-line pipeline checks.

A module-scoped fixture runs every stage once on the synthetic corpus
with a small config; individual tests assert on the artifacts and on
exit codes, determinism, and evaluation output.
"""

import json
from pathlib import Path

import pytest

from latentsum.cli import main
from latentsum.corpus import load_corpus

SMALL_CONFIG = {
    "seed": 13,
    "d": 8,
    "extractive_epochs": 2,
    "compression_epochs": 2,
    "latent_epochs": 1,
    "batch_size": 8,
    "min_count": 1,
    "max_decode_len": 12,
}


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """All stages, run once: corpus -> labels/pairs -> three trainings ->
    summaries -> baseline."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "root": root,
        "config": root / "config.json",
        "corpus": root / "corpus",
        "labels": root / "labels.jsonl",
        "pairs": root / "pairs.jsonl",
        "val_pairs": root / "val_pairs.jsonl",
        "vocab": root / "vocab.json",
        "extractive": root / "extractive.ckpt",
        "ext_metrics": root / "ext_metrics.json",
        "compression": root / "compression.ckpt",
        "comp_metrics": root / "comp_metrics.json",
        "latent": root / "latent.ckpt",
        "trace": root / "trace.jsonl",
        "latent_metrics": root / "latent_metrics.json",
        "summaries": root / "summaries.jsonl",
        "lead3": root / "lead3.jsonl",
    }
    paths["config"].write_text(json.dumps(SMALL_CONFIG))
    cfg = ["--config", paths["config"]]
    assert run(cfg + ["make-toy", "--out", paths["corpus"]]) == 0
    assert run(cfg + ["make-labels", "--corpus", paths["corpus"],
                      "--out", paths["labels"]]) == 0
    assert run(cfg + ["make-pairs", "--corpus", paths["corpus"],
                      "--out", paths["pairs"]]) == 0
    assert run(cfg + ["make-pairs", "--corpus", paths["corpus"], "--split", "valid",
                      "--out", paths["val_pairs"]]) == 0
    assert run(cfg + ["train-extractive", "--corpus", paths["corpus"],
                      "--labels", paths["labels"], "--vocab", paths["vocab"],
                      "--checkpoint", paths["extractive"],
                      "--metrics", paths["ext_metrics"]]) == 0
    assert run(cfg + ["train-compression", "--pairs", paths["pairs"],
                      "--val-pairs", paths["val_pairs"], "--vocab", paths["vocab"],
                      "--checkpoint", paths["compression"],
                      "--metrics", paths["comp_metrics"]]) == 0
    assert run(cfg + ["train-latent", "--corpus", paths["corpus"],
                      "--checkpoint", paths["extractive"],
                      "--compression", paths["compression"],
                      "--vocab", paths["vocab"], "--out", paths["latent"],
                      "--trace", paths["trace"],
                      "--metrics", paths["latent_metrics"]]) == 0
    assert run(cfg + ["summarize", "--corpus", paths["corpus"],
                      "--checkpoint", paths["latent"], "--vocab", paths["vocab"],
                      "--out", paths["summaries"]]) == 0
    assert run(cfg + ["lead3", "--corpus", paths["corpus"],
                      "--out", paths["lead3"]]) == 0
    return paths


def read_rows(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


class TestArtifacts:
    def test_all_outputs_exist(self, pipeline):
        for key in ("labels", "pairs", "vocab", "extractive", "compression",
                    "latent", "trace", "summaries", "lead3"):
            assert pipeline[key].exists(), key

    def test_summary_rows_shape(self, pipeline):
        rows = read_rows(pipeline["summaries"])
        test_docs = load_corpus(pipeline["corpus"], "test")
        assert len(rows) == len(test_docs)
        for row in rows:
            assert set(row) == {"id", "summary"}
            assert 1 <= len(row["summary"]) <= 3
            assert all(isinstance(s, str) and s for s in row["summary"])

    def test_summaries_are_verbatim_document_sentences(self, pipeline):
        originals = {
            doc.id: {s.text() for s in doc.sentences}
            for doc, _ in load_corpus(pipeline["corpus"], "test")
        }
        for row in read_rows(pipeline["summaries"]):
            for sentence in row["summary"]:
                assert sentence in originals[row["id"]]

    def test_trace_rows_schema(self, pipeline):
        rows = read_rows(pipeline["trace"])
        train_size = len(load_corpus(pipeline["corpus"], "train"))
        assert len(rows) == SMALL_CONFIG["latent_epochs"] * train_size
        for row in rows:
            assert set(row) == {"epoch", "doc_id", "r_p", "r_r", "r", "baseline_mse"}
            assert 0.0 <= row["r"] <= 1.0

    def test_labels_cover_corpus(self, pipeline):
        rows = read_rows(pipeline["labels"])
        train = load_corpus(pipeline["corpus"], "train")
        assert {r["id"] for r in rows} == {doc.id for doc, _ in train}
        lengths = {doc.id: len(doc.sentences) for doc, _ in train}
        for row in rows:
            assert len(row["labels"]) == lengths[row["id"]]
            assert set(row["labels"]) <= {0, 1}

    def test_metrics_files_parse(self, pipeline):
        ext = json.loads(pipeline["ext_metrics"].read_text())
        assert [m["epoch"] for m in ext] == list(range(1, len(ext) + 1))
        comp = json.loads(pipeline["comp_metrics"].read_text())
        assert all("train_ppl" in m and "val_ppl" in m for m in comp)
        lat = json.loads(pipeline["latent_metrics"].read_text())
        assert all("mean_reward" in m for m in lat)


class TestDeterminism:
    def test_make_toy_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "corpus2"
        assert run(["--config", pipeline["config"], "make-toy", "--out", again]) == 0
        for split in ("train", "valid", "test"):
            assert (again / f"{split}.jsonl").read_bytes() == \
                (pipeline["corpus"] / f"{split}.jsonl").read_bytes()

    def test_label_stage_rerun_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "labels2.jsonl"
        assert run(["--config", pipeline["config"], "make-labels",
                    "--corpus", pipeline["corpus"], "--out", again]) == 0
        assert again.read_bytes() == pipeline["labels"].read_bytes()

    def test_extractive_training_rerun_byte_identical(self, pipeline, tmp_path):
        vocab2 = tmp_path / "vocab2.json"
        ckpt2 = tmp_path / "ext2.ckpt"
        metrics2 = tmp_path / "m2.json"
        assert run(["--config", pipeline["config"], "train-extractive",
                    "--corpus", pipeline["corpus"], "--labels", pipeline["labels"],
                    "--vocab", vocab2, "--checkpoint", ckpt2,
                    "--metrics", metrics2]) == 0
        assert vocab2.read_bytes() == pipeline["vocab"].read_bytes()
        assert ckpt2.read_bytes() == pipeline["extractive"].read_bytes()
        assert metrics2.read_bytes() == pipeline["ext_metrics"].read_bytes()

    def test_latent_training_rerun_byte_identical(self, pipeline, tmp_path):
        out2 = tmp_path / "lat2.ckpt"
        trace2 = tmp_path / "trace2.jsonl"
        metrics2 = tmp_path / "lm2.json"
        assert run(["--config", pipeline["config"], "train-latent",
                    "--corpus", pipeline["corpus"],
                    "--checkpoint", pipeline["extractive"],
                    "--compression", pipeline["compression"],
                    "--vocab", pipeline["vocab"], "--out", out2,
                    "--trace", trace2, "--metrics", metrics2]) == 0
        assert trace2.read_bytes() == pipeline["trace"].read_bytes()
        assert out2.read_bytes() == pipeline["latent"].read_bytes()
        assert metrics2.read_bytes() == pipeline["latent_metrics"].read_bytes()

    def test_seed_override_changes_the_corpus(self, pipeline, tmp_path):
        other = tmp_path / "corpus_seed7"
        assert run(["--config", pipeline["config"], "--seed", "7",
                    "make-toy", "--out", other]) == 0
        assert (other / "train.jsonl").read_bytes() != \
            (pipeline["corpus"] / "train.jsonl").read_bytes()


# RunConfig keys that nothing read, with the values every older checkpoint
# recorded for them in its "run" block
REMOVED_RUN_KEYS = {
    "normalized_score": True,
    "corpus": "data/toy",
    "vocab": "out/vocab.json",
    "checkpoint_dir": "out/checkpoints",
    "log_dir": "out/logs",
}


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_such_knob": 1}))
        assert run(["--config", bad, "make-toy", "--out", tmp_path / "c"]) == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(REMOVED_RUN_KEYS))
    def test_removed_config_key_is_config_error(self, tmp_path, capsys, key):
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, key: REMOVED_RUN_KEYS[key]}))
        assert run(["--config", bad, "make-toy", "--out", tmp_path / "c"]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_is_numeric_error(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "extractive_lr": 1e39}))
        assert run(["--config", cfg, "train-extractive", "--corpus", pipeline["corpus"],
                    "--labels", pipeline["labels"], "--vocab", tmp_path / "vocab.json",
                    "--checkpoint", tmp_path / "ext.ckpt",
                    "--metrics", tmp_path / "m.json"]) == 5
        err = capsys.readouterr().err
        assert "error[numeric]" in err and "non-finite" in err
        assert not (tmp_path / "ext.ckpt").exists()

    def test_wrong_config_type_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"d": "three hundred"}))
        assert run(["--config", bad, "make-toy", "--out", tmp_path / "c"]) == 2

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        assert run(["make-labels", "--corpus", tmp_path / "nope",
                    "--out", tmp_path / "l.jsonl"]) == 3
        assert "error[data]" in capsys.readouterr().err

    def test_missing_checkpoint_is_checkpoint_error(self, pipeline, tmp_path, capsys):
        assert run(["--config", pipeline["config"], "summarize",
                    "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                    "--checkpoint", tmp_path / "ghost.ckpt",
                    "--out", tmp_path / "s.jsonl"]) == 4
        assert "error[checkpoint]" in capsys.readouterr().err

    def test_compress_without_scorer_is_data_error(self, pipeline, tmp_path):
        assert run(["--config", pipeline["config"], "summarize",
                    "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                    "--checkpoint", pipeline["latent"], "--compress",
                    "--out", tmp_path / "s.jsonl"]) == 3


def gold_as_generated(corpus, split, out_path):
    rows = [
        {"id": doc.id, "summary": [s.text() for s in summary.sentences]}
        for doc, summary in load_corpus(corpus, split)
    ]
    out_path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    return rows


class TestEvaluate:
    def _table_lines(self, capsys):
        out = capsys.readouterr().out
        return [l for l in out.splitlines() if l and not l.startswith("-")]

    def test_gold_against_itself_scores_one(self, pipeline, tmp_path, capsys):
        gen = tmp_path / "gold.jsonl"
        gold_as_generated(pipeline["corpus"], "test", gen)
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"oracle={gen}"]) == 0
        lines = self._table_lines(capsys)
        assert lines[0].split()[0] == "system"
        cells = lines[1].split()
        assert cells[0] == "oracle"
        assert all(float(c) == 1.0 for c in cells[1:])

    def test_row_order_invariance(self, pipeline, tmp_path, capsys):
        gen = tmp_path / "gold.jsonl"
        gold_as_generated(pipeline["corpus"], "test", gen)
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"sys={gen}"]) == 0
        first = capsys.readouterr().out
        reversed_file = tmp_path / "reversed.jsonl"
        reversed_file.write_text(
            "".join(reversed(gen.read_text().splitlines(keepends=True)))
        )
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"sys={reversed_file}"]) == 0
        assert capsys.readouterr().out == first

    def test_multiple_systems_and_bare_path_naming(self, pipeline, tmp_path, capsys):
        gen = tmp_path / "mygen.jsonl"
        gold_as_generated(pipeline["corpus"], "test", gen)
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"a={pipeline['summaries']}",
                    "--generated", str(gen)]) == 0
        lines = self._table_lines(capsys)
        assert lines[1].split()[0] == "a"
        assert lines[2].split()[0] == "mygen"

    def test_table_written_to_file_matches_stdout(self, pipeline, tmp_path, capsys):
        gen = tmp_path / "gold.jsonl"
        gold_as_generated(pipeline["corpus"], "test", gen)
        table_file = tmp_path / "table.txt"
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"sys={gen}", "--out", table_file]) == 0
        out = capsys.readouterr().out
        assert table_file.read_text() in out

    def test_missing_document_id_is_data_error(self, pipeline, tmp_path):
        gen = tmp_path / "partial.jsonl"
        rows = gold_as_generated(pipeline["corpus"], "test", gen)
        gen.write_text(json.dumps(rows[0], sort_keys=True) + "\n")
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"sys={gen}"]) == 3


class TestLeadBaseline:
    def test_lead3_takes_first_three(self, pipeline):
        docs = {doc.id: doc for doc, _ in load_corpus(pipeline["corpus"], "test")}
        for row in read_rows(pipeline["lead3"]):
            doc = docs[row["id"]]
            expected = [s.text() for s in doc.sentences[:3]]
            assert row["summary"] == expected

    def test_lead3_clamps_short_documents(self, tmp_path):
        corpus = tmp_path / "mini"
        corpus.mkdir()
        (corpus / "test.jsonl").write_text(json.dumps({
            "id": "tiny",
            "document": ["one sentence here .", "and a second ."],
            "summary": ["one sentence ."],
        }) + "\n")
        out = tmp_path / "lead.jsonl"
        assert run(["lead3", "--corpus", corpus, "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows[0]["summary"]) == 2


class TestOlderCheckpoints:
    def test_removed_run_keys_still_load_and_summarize(self, pipeline, tmp_path):
        old = {}
        for key in ("latent", "compression"):
            payload = json.loads(pipeline[key].read_text())
            payload["config"]["run"].update(REMOVED_RUN_KEYS)
            old[key] = tmp_path / f"old_{key}.ckpt"
            old[key].write_text(json.dumps(payload))
        outs = []
        for ckpts in (pipeline, old):
            out = tmp_path / f"summaries_{len(outs)}.jsonl"
            assert run(["--config", pipeline["config"], "summarize",
                        "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                        "--checkpoint", ckpts["latent"], "--compress",
                        "--compression", ckpts["compression"], "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCompressedSummaries:
    def test_compress_flag_changes_output_shape(self, pipeline, tmp_path):
        out = tmp_path / "compressed.jsonl"
        assert run(["--config", pipeline["config"], "summarize",
                    "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                    "--checkpoint", pipeline["latent"], "--compress",
                    "--compression", pipeline["compression"], "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows) == len(read_rows(pipeline["summaries"]))
        for row in rows:
            assert all(isinstance(s, str) and s for s in row["summary"])
