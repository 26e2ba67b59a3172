"""Tokenization, data model invariants, vocabulary, and JSONL loading."""

import json

import numpy as np
import pytest

from latentsum.corpus import (
    BOS,
    EOS,
    PAD,
    SPECIAL_TOKENS,
    UNK,
    Document,
    Sentence,
    SummarySet,
    Vocabulary,
    build_vocab,
    encode_records,
    load_corpus,
    load_vocab,
    tokenize,
)
from latentsum.errors import DataError

from conftest import doc_from, summary_from


_PUNCT = ".,!?;:"


def peeling_tokenize(raw):
    """Oracle: peel one terminal punctuation mark at a time off each chunk,
    keeping at least one character, then emit the marks in order."""
    tokens = []
    for chunk in raw.lower().split():
        tail = []
        while len(chunk) > 1 and chunk[-1] in _PUNCT:
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.append(chunk)
        tokens.extend(reversed(tail))
    return tuple(tokens)


class TestTokenize:
    def test_lowercase_and_terminal_period(self):
        assert tokenize("The cat sat.").tokens == ("the", "cat", "sat", ".")

    def test_interior_punctuation_split(self):
        assert tokenize("Hello,  world!").tokens == ("hello", ",", "world", "!")

    def test_whitespace_only_rejected(self):
        with pytest.raises(DataError):
            tokenize("   ")

    def test_lone_punctuation_token_survives(self):
        # a chunk that IS punctuation must not be peeled into nothing
        assert tokenize("wait . go").tokens == ("wait", ".", "go")

    def test_no_empty_tokens(self):
        for raw in ("a.", "a!?", "x,y", "A  B"):
            assert all(tok for tok in tokenize(raw).tokens)

    @pytest.mark.parametrize("raw", [
        "...", "!", "a.,!", ",a", ".,hi.", "x,y.", "a . ,", "?!?! b", ":;",
    ])
    def test_edge_chunks_match_peeling_oracle(self, raw):
        assert tokenize(raw).tokens == peeling_tokenize(raw)

    def test_random_strings_match_peeling_oracle(self):
        rng = np.random.default_rng(808)
        alphabet = list("abcXY   ") + list(_PUNCT)
        for _ in range(3000):
            raw = "".join(rng.choice(alphabet, size=int(rng.integers(1, 25))))
            if raw.strip():
                assert tokenize(raw).tokens == peeling_tokenize(raw), raw


class TestDataModel:
    def test_sentence_requires_tokens(self):
        with pytest.raises(DataError):
            Sentence(tokens=())

    def test_sentence_ids_length_must_match(self):
        with pytest.raises(DataError):
            Sentence(tokens=("a", "b"), ids=(1,))

    def test_document_requires_sentences_and_id(self):
        with pytest.raises(DataError):
            Document(id="d", sentences=())
        with pytest.raises(DataError):
            Document(id="", sentences=(Sentence(tokens=("a",)),))

    def test_summary_requires_sentences(self):
        with pytest.raises(DataError):
            SummarySet(sentences=())

    def test_text_joins_tokens(self):
        assert Sentence(tokens=("a", "b", ".")).text() == "a b ."


class TestVocabulary:
    def _records(self):
        doc = doc_from(["cat cat cat sat", "dog ran"], "d1")
        summary = summary_from(["cat sat"])
        return [(doc, summary)]

    def test_specials_fixed_order(self):
        vocab = build_vocab(self._records(), min_count=1)
        assert (PAD, UNK, BOS, EOS) == (0, 1, 2, 3)
        for idx, token in enumerate(SPECIAL_TOKENS):
            assert vocab.id_to_token[idx] == token

    def test_min_count_filters(self):
        vocab = build_vocab(self._records(), min_count=2)
        assert "cat" in vocab.token_to_id
        assert "dog" not in vocab.token_to_id

    def test_ordering_frequency_then_lexicographic(self):
        vocab = build_vocab(self._records(), min_count=1)
        tokens = vocab.id_to_token[len(SPECIAL_TOKENS):]
        counts = list(vocab.counts)
        assert counts == sorted(counts, reverse=True)
        # within equal counts, lexicographic
        for (a, ca), (b, cb) in zip(zip(tokens, counts), zip(tokens[1:], counts[1:])):
            if ca == cb:
                assert a < b

    def test_unknown_token_encodes_to_unk(self):
        vocab = build_vocab(self._records(), min_count=2)
        assert vocab.encode(("zyx",)) == (UNK,)

    def test_encode_decode_round_trip(self):
        vocab = build_vocab(self._records(), min_count=1)
        tokens = ("cat", "sat", "dog")
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_serialization_round_trip_and_determinism(self, tmp_path):
        records = self._records()
        one = build_vocab(records, min_count=1)
        two = build_vocab(records, min_count=1)
        assert one.to_json() == two.to_json()
        assert one.content_hash() == two.content_hash()
        path = tmp_path / "vocab.json"
        path.write_text(one.to_json())
        loaded = load_vocab(path)
        assert loaded.id_to_token == one.id_to_token
        assert loaded.content_hash() == one.content_hash()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(DataError):
            Vocabulary.from_json("not json at all {")

    @pytest.mark.parametrize("tokens,named", [
        ([["a", 3], ["a", 2]], "'a'"),
        ([["a", 3], ["<unk>", 1]], "'<unk>'"),
        ([["a", 3], ["b", -5]], "'b'"),
    ])
    def test_from_json_rejects_a_non_bijection(self, tokens, named):
        text = json.dumps({"specials": list(SPECIAL_TOKENS), "tokens": tokens})
        with pytest.raises(DataError, match=named):
            Vocabulary.from_json(text)

    @pytest.mark.parametrize("tokens,named", [
        ([["a", 3], [1, 2]], "1"),
        ([["a", 3], [None, 2]], "None"),
        ([["a", 3], [["b"], 2]], r"\['b'\]"),
        ([["a", 3], ["x", True]], "'x'"),
        ([["a", 3], ["x", 2.0]], "'x'"),
        ([["a", 3], ["x", "2"]], "'x'"),
    ])
    def test_from_json_rejects_non_string_tokens_and_non_int_counts(self, tokens, named):
        text = json.dumps({"specials": list(SPECIAL_TOKENS), "tokens": tokens})
        with pytest.raises(DataError, match=named):
            Vocabulary.from_json(text)


class TestLoadCorpus:
    def _write(self, tmp_path, lines, name="train.jsonl"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_single_record_round_trip(self, tmp_path):
        path = self._write(tmp_path, [json.dumps(
            {"id": "d1", "document": ["The cat sat."], "summary": ["Cat sat."]}
        )])
        records = load_corpus(path)
        assert len(records) == 1
        doc, summary = records[0]
        assert doc.id == "d1"
        assert doc.sentences[0].tokens == ("the", "cat", "sat", ".")
        assert summary.sentences[0].tokens == ("cat", "sat", ".")

    def test_order_preserved(self, tmp_path):
        rows = [json.dumps({"id": f"d{i}", "document": ["a b"], "summary": ["a"]})
                for i in range(3)]
        path = self._write(tmp_path, rows)
        assert [doc.id for doc, _ in load_corpus(path)] == ["d0", "d1", "d2"]

    def test_malformed_json_names_line(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"id": "d1", "document": ["a"], "summary": ["a"]}),
            "{broken",
        ])
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_empty_document_names_id_and_line(self, tmp_path):
        path = self._write(tmp_path, [json.dumps(
            {"id": "bad1", "document": [], "summary": ["a"]}
        )])
        with pytest.raises(DataError, match="bad1"):
            load_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        row = json.dumps({"id": "dup", "document": ["a"], "summary": ["a"]})
        path = self._write(tmp_path, [row, row])
        with pytest.raises(DataError, match="dup"):
            load_corpus(path)

    def test_directory_resolves_split(self, tmp_path):
        self._write(tmp_path, [json.dumps(
            {"id": "v1", "document": ["a b"], "summary": ["a"]}
        )], name="valid.jsonl")
        records = load_corpus(tmp_path, split="valid")
        assert records[0][0].id == "v1"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_corpus(tmp_path / "nope.jsonl")


class TestEncodeRecords:
    def test_ids_attached_everywhere(self, tmp_path):
        doc = doc_from(["cat sat", "dog ran"], "d1")
        summary = summary_from(["cat sat"])
        vocab = build_vocab([(doc, summary)], min_count=1)
        encoded = encode_records([(doc, summary)], vocab)
        enc_doc, enc_summary = encoded[0]
        for sentence in enc_doc.sentences + enc_summary.sentences:
            assert sentence.ids is not None
            assert len(sentence.ids) == len(sentence.tokens)
            assert all(0 <= i < len(vocab) for i in sentence.ids)
