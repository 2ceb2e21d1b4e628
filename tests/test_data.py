"""Vocab, readers, batcher, and synthetic-corpus tests."""

import numpy as np
import pytest

from seqrig.data import (ES, UNK, DataError, FeatureReader, PlainTextReader,
                         SrcBatcher, Vocab, gen_synthetic, gen_synthetic_features,
                         feature_prototypes, write_vocab)


class TestVocab:
    def test_file_layout_ids_start_after_reserved(self, tmp_path):
        path = tmp_path / "v"
        path.write_text("a\nb\n")
        vocab = Vocab.from_file(path)
        assert vocab.to_id("<s>") == 0 and vocab.to_id("</s>") == 1
        assert vocab.to_id("<unk>") == 2
        assert vocab.to_id("a") == 3 and vocab.to_id("b") == 4

    def test_empty_file_gives_reserved_only(self, tmp_path):
        path = tmp_path / "v"
        path.write_text("")
        assert len(Vocab.from_file(path)) == 3

    def test_duplicate_token_names_line(self, tmp_path):
        path = tmp_path / "v"
        path.write_text("a\nb\na\n")
        with pytest.raises(DataError, match=":3"):
            Vocab.from_file(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "v"
        path.write_text("x\ny\nz\n")
        vocab = Vocab.from_file(path)
        for i in range(len(vocab)):
            assert vocab.to_id(vocab.to_token(i)) == i

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            Vocab.from_file("/nonexistent/vocab.txt")


class TestPlainTextReader:
    @pytest.fixture
    def vocab(self, tmp_path):
        path = tmp_path / "v"
        path.write_text("a\nb\n")
        return Vocab.from_file(path)

    def test_direct_mapping_and_target_eos(self, tmp_path, vocab):
        corpus = tmp_path / "c"
        corpus.write_text("a b\n")
        reader = PlainTextReader(vocab)
        assert reader.read(corpus) == [[3, 4]]
        assert reader.read(corpus, add_eos=True) == [[3, 4, ES]]

    def test_oov_maps_to_unk(self, tmp_path, vocab):
        corpus = tmp_path / "c"
        corpus.write_text("a zzz\n")
        assert PlainTextReader(vocab).read(corpus) == [[3, UNK]]

    def test_empty_line_gives_empty_sequence(self, tmp_path, vocab):
        corpus = tmp_path / "c"
        corpus.write_text("a\n\nb\n")
        assert PlainTextReader(vocab).read(corpus) == [[3], [], [4]]

    def test_missing_file(self, vocab):
        with pytest.raises(FileNotFoundError):
            PlainTextReader(vocab).read("/nonexistent/corpus")

    def test_reading_twice_gives_the_same_corpus(self, tmp_path, vocab):
        corpus = tmp_path / "c"
        corpus.write_text("a b\nb a a\n")
        reader = PlainTextReader(vocab)
        assert reader.read(corpus) == reader.read(corpus)


class TestFeatureReader:
    def test_documented_container(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("utt u1 2 3\n1 2 3\n4 5 6\n")
        mats = FeatureReader().read(path)
        assert len(mats) == 1
        np.testing.assert_array_equal(mats[0], [[1, 2, 3], [4, 5, 6]])

    def test_zero_utterances(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("")
        assert FeatureReader().read(path) == []

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("utt u1 2 3\n1 2 3\n4 5\n")
        with pytest.raises(DataError, match=":3"):
            FeatureReader().read(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, bad):
        path = tmp_path / "f"
        path.write_text(f"utt u1 1 2\n1 2\nutt u2 3 2\n1 2\n3 {bad}\n5 6\n")
        with pytest.raises(DataError, match=r"f:5: non-finite"):
            FeatureReader().read(path)

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("utt u1 2 2\n1 2\nabc 4\n")
        with pytest.raises(DataError, match=r"f:3: non-numeric"):
            FeatureReader().read(path)

    @pytest.mark.parametrize("header", ["utt u2 -1 2", "utt u2 2 0", "utt u2 1 -3"])
    def test_negative_frame_count_or_empty_dim_reports_line(self, tmp_path, header):
        path = tmp_path / "f"
        path.write_text(f"utt u1 1 2\n1 2\n{header}\n1 2\n")
        with pytest.raises(DataError, match=r"f:3: header needs T >= 0 and d >= 1"):
            FeatureReader().read(path)

    def test_zero_frames_stay_legal(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("utt u1 0 2\nutt u2 1 2\n1 2\n")
        mats = FeatureReader().read(path)
        assert [m.shape for m in mats] == [(0, 2), (1, 2)]

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("utterance u1 2 3\n")
        with pytest.raises(DataError, match="header"):
            FeatureReader().read(path)


class TestSrcBatcher:
    def make(self, lengths, batch_size):
        src = [[3] * n for n in lengths]
        trg = [[3] * n + [ES] for n in lengths]
        return SrcBatcher(batch_size).make_batches(src, trg)

    def test_sort_and_chunk_rule(self):
        batches = self.make([5, 2, 9, 2], 2)
        got = [tuple(int(m.sum()) for m in b.src_mask) for b in batches]
        assert got == [(2, 2), (5, 9)]

    def test_single_batch_when_larger_than_corpus(self):
        assert len(self.make([3, 1, 2], 10)) == 1

    def test_masks_mark_exactly_the_padding(self):
        for batch in self.make([5, 2, 9, 2], 2):
            for row, ids in zip(batch.src_mask, batch.src):
                n = int(row.sum())
                assert np.all(row[:n] == 1.0) and np.all(row[n:] == 0.0)

    def test_partition_covers_corpus_exactly_once(self):
        batches = self.make([4, 1, 3, 2, 5, 1, 2], 3)
        order = sorted(i for b in batches for i in b.order)
        assert order == list(range(7))

    def test_batches_are_consecutive_runs_of_sorted_lengths(self):
        lengths = [7, 1, 4, 4, 2, 9, 3, 3, 8, 1]
        batches = self.make(lengths, 3)
        flattened = [int(m.sum()) for b in batches for m in b.src_mask]
        assert flattened == sorted(lengths)

    def test_stable_ties_keep_corpus_order(self):
        batches = self.make([2, 2, 2], 3)
        assert batches[0].order == [0, 1, 2]

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="empty"):
            SrcBatcher(2).make_batches([], [])

    def test_empty_sources_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="empty source"):
            batches = SrcBatcher(4).make_batches([[3], []], [[3, ES], [3, ES]])
        assert sum(b.size for b in batches) == 1

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            SrcBatcher(0)

    def test_shuffle_is_seed_deterministic(self):
        batches = self.make([1, 2, 3, 4, 5, 6, 7, 8], 2)
        a = SrcBatcher.shuffled(batches, np.random.default_rng(5))
        b = SrcBatcher.shuffled(batches, np.random.default_rng(5))
        assert [x.order for x in a] == [x.order for x in b]

    def test_feature_batches(self):
        src = [np.ones((4, 3)), np.ones((2, 3))]
        trg = [[3, ES], [4, ES]]
        batch = SrcBatcher(2).make_batches(src, trg)[0]
        assert batch.src.shape == (2, 4, 3)
        assert batch.src_mask[0].tolist() == [1, 1, 0, 0]  # shorter one first


class TestSynthetic:
    def test_copy_task_definition(self, tmp_path):
        paths = gen_synthetic("copy", 8, (1, 4), 20, 0, tmp_path)
        src = paths["src"].read_text().splitlines()
        trg = paths["trg"].read_text().splitlines()
        assert src == trg and len(src) == 20

    def test_reverse_task_definition(self, tmp_path):
        paths = gen_synthetic("reverse", 8, (1, 4), 20, 0, tmp_path)
        for s, t in zip(paths["src"].read_text().splitlines(),
                        paths["trg"].read_text().splitlines()):
            assert t.split() == s.split()[::-1]

    def test_sum_coded_task_definition(self, tmp_path):
        paths = gen_synthetic("sum-coded", 8, (1, 4), 20, 0, tmp_path)
        for s, t in zip(paths["src"].read_text().splitlines(),
                        paths["trg"].read_text().splitlines()):
            idxs = [int(tok[1:]) for tok in s.split()]
            assert t == f"w{sum(idxs) % 5}"

    def test_same_seed_byte_identical(self, tmp_path):
        a = gen_synthetic("copy", 10, (1, 6), 30, 7, tmp_path / "a")
        b = gen_synthetic("copy", 10, (1, 6), 30, 7, tmp_path / "b")
        assert a["src"].read_bytes() == b["src"].read_bytes()
        assert a["trg"].read_bytes() == b["trg"].read_bytes()

    def test_invalid_ranges_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            gen_synthetic("copy", 3, (1, 4), 5, 0, tmp_path)
        with pytest.raises(ValueError):
            gen_synthetic("copy", 8, (4, 1), 5, 0, tmp_path)
        with pytest.raises(ValueError):
            gen_synthetic("nope", 8, (1, 4), 5, 0, tmp_path)

    def test_vocab_file_matches_generator(self, tmp_path):
        write_vocab(8, tmp_path / "vocab.txt")
        vocab = Vocab.from_file(tmp_path / "vocab.txt")
        assert len(vocab) == 8

    def test_feature_corpus_reads_back(self, tmp_path):
        protos = feature_prototypes(8, 3, seed=0)
        paths = gen_synthetic_features(8, (1, 3), 10, 0, tmp_path, prototypes=protos,
                                       feat_dim=3, frames_per_token=2, noise=0.0)
        mats = FeatureReader(feat_dim=3).read(paths["src"])
        trg = paths["trg"].read_text().splitlines()
        assert len(mats) == 10
        for mat, line in zip(mats, trg):
            tokens = line.split()
            assert mat.shape == (2 * len(tokens), 3)
            # zero noise: frames equal the prototypes exactly (text precision)
            np.testing.assert_allclose(mat[0], protos[int(tokens[0][1:])], atol=1e-6)

    def test_feature_corpus_deterministic(self, tmp_path):
        a = gen_synthetic_features(8, (1, 3), 5, 3, tmp_path / "a")
        b = gen_synthetic_features(8, (1, 3), 5, 3, tmp_path / "b")
        assert a["src"].read_bytes() == b["src"].read_bytes()
