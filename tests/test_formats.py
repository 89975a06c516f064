"""File format round trips, atomicity, model checkpointing."""

import json
import os
import re
import stat
import struct

import numpy as np
import pytest

from asrfuse.a2a import A2aConfig, MdnHead
from asrfuse.combine import FrameScoreStream, Hypothesis, NBestList
from asrfuse.features import FeatureSequence
from asrfuse.errors import ValidationError
from asrfuse.formats import (
    atomic_write,
    dump_json,
    read_afm1,
    read_fss1,
    read_mdl1,
    read_nbest,
    read_transcripts_tsv,
    staged,
    write_afm1,
    write_fss1,
    write_mdl1,
    write_nbest,
    write_transcripts_tsv,
)
from asrfuse.models import (
    load_mdn_checkpoint,
    load_ssl_checkpoint,
    save_mdn_checkpoint,
    save_ssl_checkpoint,
)
from asrfuse.numcore import Adam, derive_rng, make_rng
from asrfuse.ssl_objectives.trainers import SslConfig, build_ssl_model
from oracles import fss1_bytes


class TestAfm1:
    def test_round_trip_byte_identical(self, tmp_path):
        seq = FeatureSequence(make_rng(0).normal(size=(7, 5)), 20.0, label="SSL")
        p1, p2 = tmp_path / "a.afm1", tmp_path / "b.afm1"
        write_afm1(p1, seq)
        loaded = read_afm1(p1, label="SSL")
        write_afm1(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.frame_period_ms == 20.0
        assert loaded.frames.shape == (7, 5)

    def test_frames_of_any_memory_layout_are_written_row_major(self, tmp_path):
        frames = make_rng(0).normal(size=(5, 7))
        for name, layout in [("c.afm1", frames), ("f.afm1", np.asfortranarray(frames)),
                             ("strided.afm1", np.repeat(frames, 2, axis=1)[:, ::2])]:
            write_afm1(tmp_path / name, FeatureSequence(layout, 10.0))
            assert read_afm1(tmp_path / name).frames.tolist() == \
                frames.astype(np.float32).tolist()

    def test_header_layout(self, tmp_path):
        seq = FeatureSequence(np.zeros((3, 2)), 10.0)
        path = tmp_path / "x.afm1"
        write_afm1(path, seq)
        raw = path.read_bytes()
        assert raw[:4] == b"AFM1"
        rows, cols, period = struct.unpack("<IIf", raw[4:16])
        assert (rows, cols, period) == (3, 2, 10.0)
        assert len(raw) == 16 + 4 * 6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.afm1"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_afm1(path)

    def test_truncated_rejected(self, tmp_path):
        seq = FeatureSequence(np.zeros((3, 2)), 10.0)
        path = tmp_path / "x.afm1"
        write_afm1(path, seq)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            read_afm1(path)


class TestFss1:
    def test_round_trip(self, tmp_path):
        stream = FrameScoreStream("utt7", ["a", "b", "<blk>"],
                                  -make_rng(1).random((4, 3)), 10.0)
        p1, p2 = tmp_path / "utt7.fss1", tmp_path / "again.fss1"
        write_fss1(p1, stream)
        loaded = read_fss1(p1)
        assert loaded.utt_id == "utt7"  # from the file name
        assert loaded.tokens == stream.tokens
        write_fss1(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unicode_inventory(self, tmp_path):
        stream = FrameScoreStream("u", ["你", "好"], np.zeros((1, 2)), 10.0)
        path = tmp_path / "u.fss1"
        write_fss1(path, stream)
        assert read_fss1(path).tokens == ["你", "好"]

    @pytest.mark.parametrize("token", ["a\tb", "a\rb", "a\nb"])
    def test_token_that_would_break_a_transcript_tsv_rejected(self, tmp_path, token):
        path = tmp_path / "u.fss1"
        path.write_bytes(fss1_bytes(["x", token], np.zeros((1, 2))))
        with pytest.raises(ValueError, match="u.fss1: FSS1 inventory token .* holds a tab, "
                                             "CR or LF"):
            read_fss1(path)


class TestNbest:
    def test_round_trip(self, tmp_path):
        lists = [
            NBestList("u1", [Hypothesis("hello there", ["hello", "there"],
                                        {"ctc": 1.5, "tdnn": 2.0}),
                             Hypothesis("hello bear", ["hello", "bear"],
                                        {"ctc": 2.5, "tdnn": 1.0})]),
            NBestList("u2", [Hypothesis("bye", ["bye"], {"ctc": 0.5, "tdnn": 0.1})]),
        ]
        path = tmp_path / "nbest.jsonl"
        write_nbest(path, lists)
        loaded = read_nbest(path)
        assert [nb.utt_id for nb in loaded] == ["u1", "u2"]
        assert loaded[0].hyps[1].scores == {"ctc": 2.5, "tdnn": 1.0}
        path2 = tmp_path / "nbest2.jsonl"
        write_nbest(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_invalid_json_line_flagged(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        good = '{"utt_id": "u", "hyps": [{"text": "a", "tokens": ["a"], "scores": {"s": 1.0}}]}'
        path.write_text(good + "\nnot json\n")
        with pytest.raises(ValueError, match="broken.jsonl:2"):
            read_nbest(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"1.0"', "1e999999",
                                       "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "string", "overflow", "huge-int"])
    def test_non_finite_score_flagged(self, tmp_path, value):
        path = tmp_path / "bad.jsonl"
        good = '{"utt_id": "u", "hyps": [{"text": "a", "tokens": ["a"], "scores": {"s": 1.0}}]}'
        path.write_text(good + "\n" + good.replace("1.0", value).replace('"u"', '"v"') + "\n")
        with pytest.raises(ValueError, match="bad.jsonl:2: hypothesis 0 score 's'"):
            read_nbest(path)


    def test_repeated_utt_id_flagged(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        good = '{"utt_id": "u", "hyps": [{"text": "a", "tokens": ["a"], "scores": {"s": 1.0}}]}'
        path.write_text(good + "\n" + good.replace('"u"', '"v"') + "\n" + good + "\n")
        with pytest.raises(ValueError, match="dup.jsonl:3: duplicate utt_id 'u'"):
            read_nbest(path)

    @pytest.mark.parametrize("key", ["utt_id", "hyps", "text", "tokens", "scores"])
    def test_missing_key_flagged(self, tmp_path, key):
        path = tmp_path / "short.jsonl"
        record = {"utt_id": "u", "hyps": [{"text": "a", "tokens": ["a"], "scores": {"s": 1.0}}]}
        broken = {"utt_id": "v", "hyps": [dict(record["hyps"][0])]}
        (broken if key in broken else broken["hyps"][0]).pop(key)
        path.write_text(json.dumps(record) + "\n" + json.dumps(broken) + "\n")
        with pytest.raises(ValueError, match=f"short.jsonl:2: missing key '{key}'"):
            read_nbest(path)


    @pytest.mark.parametrize("line, message", [
        ('["u"]', "an entry must be a JSON object"),
        ('{"utt_id": "u", "hyps": [1]}', "malformed record"),
        ('{"utt_id": "u", "hyps": [{"text": "a", "tokens": 1, "scores": {}}]}',
         "malformed record"),
        ('{"utt_id": ["u"], "hyps": []}', "utt_id must be a string"),
        ('{"utt_id": "u\\tv", "hyps": []}', "utt_id .* holds a tab, CR or LF"),
        ('{"utt_id": "u\\rv", "hyps": []}', "utt_id .* holds a tab, CR or LF"),
        ('{"utt_id": "u", "hyps": [{"text": "a\\nb", "tokens": ["a"], "scores": {}}]}',
         "hypothesis 0 text .* holds a tab, CR or LF"),
    ], ids=["list", "hyp-not-object", "tokens-not-list", "utt-id-not-string", "utt-id-tab",
            "utt-id-cr", "text-lf"])
    def test_malformed_record_flagged(self, tmp_path, line, message):
        path = tmp_path / "odd.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=f"odd.jsonl:1: {message}"):
            read_nbest(path)


class TestLoneSurrogates:
    """JSON can spell a UTF-16 surrogate as an escape that a strict UTF-8
    decode never sees; a lone one gives a string that no file can hold."""

    GOOD = '{"utt_id": "u", "hyps": [{"text": "a", "tokens": ["a"], "scores": {"s": 1.0}}]}'

    @pytest.mark.parametrize("old, new, what", [
        ('"text": "a"', '"text": "a\\ud800"', "'a\\ud800'"),
        ('["a"]', '["\\uDFFF"]', "'\\udfff'"),
        ('{"s": 1.0}', '{"s\\udc80": 1.0}', "'s\\udc80'"),
        ('"utt_id": "u"', '"utt_id": "\\ude00\\ud83d"', "'\\ude00\\ud83d'"),
    ], ids=["text", "token", "score-name", "reversed-pair"])
    def test_nbest_reader_names_the_line(self, tmp_path, old, new, what):
        path = tmp_path / "nbest.jsonl"
        path.write_text(self.GOOD.replace('"u"', '"v"') + "\n" + self.GOOD.replace(old, new)
                        + "\n")
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}:2: invalid JSON: string {what} holds a lone UTF-16 surrogate, "
                "which UTF-8 cannot encode")):
            read_nbest(path)

    def test_fss1_inventory_and_mdl1_header_rejected(self, tmp_path):
        # each escape replaces a string of its own length, so no length field changes
        fss1 = tmp_path / "u1.fss1"
        write_fss1(fss1, FrameScoreStream("u1", ["a", "bbbbbb"], np.zeros((1, 2))))
        fss1.write_bytes(fss1.read_bytes().replace(b'"bbbbbb"', b'"\\ud9ff"'))
        with pytest.raises(ValidationError, match=re.escape(
                f"{fss1}: invalid FSS1 inventory: string '\\ud9ff' holds a lone")):
            read_fss1(fss1)
        mdl1 = tmp_path / "m.mdl1"
        write_mdl1(mdl1, "k", {"note": "abcdef"}, 0, [])
        mdl1.write_bytes(mdl1.read_bytes().replace(b'"abcdef"', b'"\\ud800"'))
        with pytest.raises(ValidationError, match=re.escape(
                f"{mdl1}: invalid MDL1 header: string '\\ud800' holds a lone")):
            read_mdl1(mdl1)

    def test_surrogate_pair_reads_and_round_trips(self, tmp_path):
        path = tmp_path / "nbest.jsonl"
        path.write_text(self.GOOD.replace('"text": "a"', '"text": "a\\ud83d\\ude00"')
                        .replace('["a"]', '["\\uD83D\\uDE00"]') + "\n")
        (nb,) = read_nbest(path)
        assert (nb.hyps[0].text, nb.hyps[0].tokens) == ("a\U0001F600", ["\U0001F600"])
        write_nbest(tmp_path / "again.jsonl", [nb])
        (again,) = read_nbest(tmp_path / "again.jsonl")
        assert again.hyps[0] == nb.hyps[0]
        assert "\U0001F600".encode("utf-8") in (tmp_path / "again.jsonl").read_bytes()


class TestWritersApplyTheirReadersRules:
    """A writer rejects what its reader would, naming the file and the
    utterance, and leaves no file behind."""

    def test_afm1_feature_beyond_float32_rejected(self, tmp_path):
        path = tmp_path / "u7.afm1"
        frames = np.zeros((3, 2))
        frames[2, 1] = 4e38
        with pytest.raises(ValidationError,
                           match=re.escape(f"{path}: feature 4e+38 in frame 2 does not fit float32")):
            write_afm1(path, FeatureSequence(frames, 10.0))
        assert list(tmp_path.iterdir()) == []

    def test_fss1_score_beyond_float32_rejected(self, tmp_path):
        path = tmp_path / "out.fss1"
        stream = FrameScoreStream("u3", ["a", "b"], np.array([[-1.0, -2.0], [-1e39, 0.0]]))
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: u3: score -1e+39 in frame 1 does not fit float32")):
            write_fss1(path, stream)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [float("-inf"), float("nan"), True, 10**400],
                             ids=["-inf", "nan", "bool", "huge-int"])
    def test_nbest_score_the_reader_rejects(self, tmp_path, value):
        path = tmp_path / "out.jsonl"
        lists = [NBestList(u, [Hypothesis("a", ["a"], {"ctc": 1.0}),
                               Hypothesis("b", ["b"], {"ctc": value if u == "u2" else 0.0})])
                 for u in ("u1", "u2")]
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: u2: hypothesis 1 score 'ctc' is not a finite number: {value!r}")):
            write_nbest(path, lists)
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def refuse_temp_files(monkeypatch):
        """Fail a write that gets as far as creating its temp file."""
        def atomic_write(*args, **kwargs):
            raise AssertionError("the writer created a temp file before it checked its input")

        monkeypatch.setattr("asrfuse.formats.atomic_write", atomic_write)

    @pytest.mark.parametrize("utt_id, hyp, message", [
        ("u2", Hypothesis("a\tb", ["a"], {"ctc": 0.0}),
         "u2: hypothesis 1 text 'a\\tb' holds a tab, CR or LF"),
        ("u2", Hypothesis("a", [1], {"ctc": 0.0}),
         "u2: malformed record: hypothesis 1 tokens must be a list of strings, got [1]"),
        ("u2", Hypothesis(None, [], {"ctc": 0.0}),
         "u2: malformed record: hypothesis 1 text must be a string, got None"),
        ("u\r2", Hypothesis("a", ["a"], {"ctc": 0.0}), "utt_id 'u\\r2' holds a tab, CR or LF"),
        ("u1", Hypothesis("a", ["a"], {"ctc": 0.0}), "duplicate utt_id 'u1'"),
        ("u2", Hypothesis("a\ud800", ["a"], {"ctc": 0.0}),
         "u2: hypothesis 1 text 'a\\ud800' holds a lone UTF-16 surrogate"),
        ("u\udfff", Hypothesis("a", ["a"], {"ctc": 0.0}),
         "utt_id 'u\\udfff' holds a lone UTF-16 surrogate"),
    ], ids=["text-tab", "int-tokens", "text-not-string", "utt-id-cr", "utt-id-repeated",
            "text-surrogate", "utt-id-surrogate"])
    def test_nbest_hypothesis_or_utt_id_the_reader_rejects(self, tmp_path, monkeypatch, utt_id,
                                                            hyp, message):
        path = tmp_path / "out.jsonl"
        lists = [NBestList("u1", [Hypothesis("a", ["a"], {"ctc": 1.0})]),
                 NBestList(utt_id, [Hypothesis("b", ["b"], {"ctc": 1.0}), hyp])]
        self.refuse_temp_files(monkeypatch)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            write_nbest(path, lists)

    @pytest.mark.parametrize("token, message", [
        ("a\tb", "FSS1 inventory token 'a\\tb' holds a tab, CR or LF"),
        ("a\nb", "FSS1 inventory token 'a\\nb' holds a tab, CR or LF"),
        (7, "FSS1 inventory must be a list of strings"),
        ("\udc80", "FSS1 inventory token '\\udc80' holds a lone UTF-16 surrogate"),
    ], ids=["tab", "lf", "int", "surrogate"])
    def test_fss1_inventory_the_reader_rejects(self, tmp_path, monkeypatch, token, message):
        path = tmp_path / "out.fss1"
        self.refuse_temp_files(monkeypatch)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: u3: {message}")):
            write_fss1(path, FrameScoreStream("u3", ["a", token], np.zeros((1, 2))))

    @pytest.mark.parametrize("row, message", [
        (("u2", "a\tb", {}), "u2: text cell 'a\\tb' holds a tab, CR or LF"),
        (("u\n2", "a", {}), "utt_id 'u\\n2' holds a tab, CR or LF"),
        (("u2", "a", {"seen": "x\ry"}), "u2: seen cell 'x\\ry' holds a tab, CR or LF"),
        (("u2", "a", {"se\ten": "x"}), "TSV column name 'se\\ten' holds a tab, CR or LF"),
        (("u2", "a", {"text": "x"}), "TSV header names column 'text' twice"),
        (("u1", "a", {}), "duplicate utt_id 'u1'"),
        (("u2", "a", {"seen": "\ud800"}),
         "u2: seen cell '\\ud800' holds a lone UTF-16 surrogate"),
    ], ids=["text-tab", "utt-id-lf", "cell-cr", "column-tab", "column-twice", "utt-id-repeated",
            "cell-surrogate"])
    def test_transcripts_tsv_row_the_reader_rejects(self, tmp_path, monkeypatch, row, message):
        path = tmp_path / "out.tsv"
        self.refuse_temp_files(monkeypatch)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            write_transcripts_tsv(path, [("u1", "a", {"seen": "y"}), row])

    def test_numpy_float_scores_written_as_numbers(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_nbest(path, [NBestList("u1", [Hypothesis("a", ["a"], {"ctc": np.float64(0.5)})])])
        assert read_nbest(path)[0].hyps[0].scores == {"ctc": 0.5}

    def test_json_is_rfc_8259(self):
        assert dump_json("report", {"a": 1.5}) == '{"a": 1.5}'
        with pytest.raises(ValidationError, match="^report: Out of range float"):
            dump_json("report", {"a": float("nan")})


class TestTsv:
    def test_round_trip_with_metadata(self, tmp_path):
        rows = [
            ("u1", "hello world", {"speaker": "s1", "intelligibility": "VL"}),
            ("u2", "bye", {"speaker": "s2", "intelligibility": "H"}),
        ]
        path = tmp_path / "ref.tsv"
        write_transcripts_tsv(path, rows)
        texts, meta = read_transcripts_tsv(path)
        assert texts == {"u1": "hello world", "u2": "bye"}
        assert meta["u1"] == {"speaker": "s1", "intelligibility": "VL"}

    def test_duplicate_utt_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("utt_id\ttext\nu1\ta\nu1\tb\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_transcripts_tsv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\ttext\nu1\ta\n")
        with pytest.raises(ValueError, match="header"):
            read_transcripts_tsv(path)

    @pytest.mark.parametrize("header, column", [
        ("utt_id\ttext\tseen\tseen", "seen"),
        ("utt_id\ttext\ttext", "text"),
        ("utt_id\ttext\tutt_id", "utt_id"),
    ], ids=["metadata", "text", "utt_id"])
    def test_header_that_names_a_column_twice_rejected(self, tmp_path, header, column):
        # a dict of the metadata cells kept only the last column of a name
        path = tmp_path / "twice.tsv"
        cells = "\t".join(["u1", "a"] + ["x"] * (header.count("\t") - 1))
        path.write_text(f"{header}\n{cells}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: TSV header names column "
                                                       f"'{column}' twice")):
            read_transcripts_tsv(path)


class TestMdl1:
    def test_round_trip(self, tmp_path):
        rng = make_rng(2)
        named = [("w", rng.normal(size=(3, 4))), ("b", rng.normal(size=4)),
                 ("scalar", np.array(2.5))]
        path = tmp_path / "m.mdl1"
        write_mdl1(path, "ssl", {"config": {"d": 4}}, 123, named)
        header, arrays = read_mdl1(path)
        assert header["kind"] == "ssl" and header["seed"] == 123
        for name, a in named:
            np.testing.assert_array_equal(arrays[name], a)

    def test_deterministic_bytes(self, tmp_path):
        named = [("w", np.arange(6.0).reshape(2, 3))]
        p1, p2 = tmp_path / "a.mdl1", tmp_path / "b.mdl1"
        write_mdl1(p1, "ssl", {"x": 1, "a": 2}, 0, named)
        write_mdl1(p2, "ssl", {"a": 2, "x": 1}, 0, named)
        assert p1.read_bytes() == p2.read_bytes()


class TestStaged:
    def test_files_appear_together_when_the_block_ends(self, tmp_path):
        seq = FeatureSequence(np.ones((2, 3)), 10.0)
        with staged() as stage:
            for name in ("a.afm1", "b.afm1"):
                write_afm1(tmp_path / name, seq, stage=stage)
            assert [p.name for p in tmp_path.iterdir() if not p.name.startswith(".tmp-")] == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.afm1", "b.afm1"]
        assert read_afm1(tmp_path / "b.afm1").frames.tolist() == seq.frames.tolist()

    def test_a_failing_block_removes_every_temp_and_keeps_the_targets(self, tmp_path):
        (tmp_path / "a.afm1").write_bytes(b"old")
        stream = FrameScoreStream("b", ["x"], np.array([[1e39]]))
        with pytest.raises(ValidationError, match="does not fit float32"):
            with staged() as stage:
                write_afm1(tmp_path / "a.afm1", FeatureSequence(np.ones((2, 3)), 10.0),
                           stage=stage)
                write_fss1(tmp_path / "b.fss1", stream, stage=stage)
        assert [(p.name, p.read_bytes()) for p in tmp_path.iterdir()] == [("a.afm1", b"old")]


class TestAtomicWrite:
    def test_no_partial_file_on_error(self, tmp_path):
        target = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write(b"partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_write(target, "w") as fh:
            fh.write("new")
        assert target.read_text() == "new"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_file_mode_follows_the_umask(self, tmp_path, umask):
        stream = FrameScoreStream("u1", ["a", "b"], np.zeros((2, 2)))
        old = os.umask(umask)
        try:
            write_fss1(tmp_path / "u1.fss1", stream)
            write_mdl1(tmp_path / "m.mdl1", "ssl", {}, 0, [("w", np.zeros(2))])
            (tmp_path / "plain").write_bytes(b"")
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["u1.fss1", "m.mdl1", "plain"], 0o666 & ~umask)


class TestModelCheckpoints:
    def test_ssl_checkpoint_round_trip(self, tmp_path):
        cfg = SslConfig(objective="hubert", d_in=4, n_blocks=2, d_model=8, n_heads=2,
                        d_ff=16, num_codebooks=1, entries=3, code_dim=4)
        model = build_ssl_model(cfg, seed=5)
        path = tmp_path / "hubert.mdl1"
        # the books are NaN until fitted, so a checkpoint saved before does not load
        save_ssl_checkpoint(path, model, seed=5, epochs_completed=0)
        with pytest.raises(ValueError, match="blob kmeans.g0 holds non-finite values"):
            load_ssl_checkpoint(path)
        model.pseudo_labeler.fit(make_rng(0).normal(size=(20, 4)), seed=1)
        save_ssl_checkpoint(path, model, seed=5, epochs_completed=0)
        loaded, header, optimizer = load_ssl_checkpoint(path)
        assert header.epochs_completed == 0
        assert optimizer is None
        for (n1, p1), (n2, p2) in zip(model.named_parameters(),
                                      loaded.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        np.testing.assert_array_equal(loaded.pseudo_labeler.codebooks[0],
                                      model.pseudo_labeler.codebooks[0])

    def test_data2vec_teacher_persisted(self, tmp_path):
        cfg = SslConfig(objective="data2vec", d_in=3, n_blocks=2, d_model=8,
                        n_heads=2, d_ff=16, top_k=1)
        model = build_ssl_model(cfg, seed=6)
        model.teacher.parameters()[0].data[...] = 42.0
        path = tmp_path / "d2v.mdl1"
        save_ssl_checkpoint(path, model, seed=6, epochs_completed=3)
        loaded, _, _ = load_ssl_checkpoint(path)
        np.testing.assert_array_equal(loaded.teacher.parameters()[0].data,
                                      model.teacher.parameters()[0].data)

    def test_mdn_checkpoint_round_trip(self, tmp_path):
        head = MdnHead(A2aConfig(4, 2, mixtures=3, hidden=8), derive_rng(7, 0))
        optimizer = Adam(head.parameters())
        for p in head.parameters():
            p.grad = make_rng(2).normal(size=p.data.shape)
        optimizer.step(0.01)
        path = tmp_path / "mdn.mdl1"
        save_mdn_checkpoint(path, head, seed=7, epochs_completed=2, optimizer=optimizer)
        loaded, header, resumed = load_mdn_checkpoint(path)
        assert loaded.cfg.mixtures == 3
        frames = make_rng(1).normal(size=(5, 4))
        np.testing.assert_array_equal(loaded.forward(frames).means.data,
                                      head.forward(frames).means.data)
        # the resumed Adam steps the loaded head's own arrays, from the file's state
        assert all(a is b for a, b in zip(resumed.params, loaded.parameters(), strict=True))
        assert resumed.step_count == 1
        for value, saved in zip(resumed.state_arrays().values(),
                                optimizer.state_arrays().values(), strict=True):
            np.testing.assert_array_equal(value, saved)

    def test_wrong_kind_rejected(self, tmp_path):
        head = MdnHead(A2aConfig(2, 1, mixtures=1, hidden=4), derive_rng(8, 0))
        path = tmp_path / "mdn.mdl1"
        save_mdn_checkpoint(path, head, seed=8, epochs_completed=0)
        with pytest.raises(ValueError, match="not an SSL model"):
            load_ssl_checkpoint(path)
