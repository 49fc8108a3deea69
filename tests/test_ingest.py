import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from hanspam import ingest
from hanspam.ingest import (
    HAM,
    SPAM,
    EmptyCorpusError,
    LayoutError,
    RawEmail,
    corpus_stats,
    load_corpus,
    parse_email,
    split_sentences,
    to_document,
    tokenize,
)


class TestParseEmail:
    def test_header_body_split(self):
        email = parse_email(b"Subject: hi\n\nHello world")
        assert email.body_text == "Hello world"
        assert email.headers["subject"] == "hi"

    def test_html_body_stripped(self):
        email = parse_email(b"Content-Type: text/html\n\n<p>buy <b>now</b></p>")
        assert email.body_text == "buy now"

    def test_html_detected_without_content_type(self):
        email = parse_email(b"X-Note: 1\n\n<html><body>win <i>cash</i></body></html>")
        assert email.body_text == "win cash"

    def test_headerless_text_is_all_body(self):
        email = parse_email(b"just a note\nwith two lines")
        assert email.body_text == "just a note\nwith two lines"
        assert email.headers == {}

    def test_undecodable_bytes_flagged_not_dropped(self):
        # bytes that are not UTF-8 are read as Latin-1, every byte kept, and flagged
        latin = parse_email(b"Subject: x\n\nhi \xff\xfe there")
        assert latin.had_decode_errors is True
        assert latin.body_text == "hi \u00ff\u00fe there"
        utf8 = parse_email("Subject: x\n\nhi \u00ff\u00fe there".encode("utf-8"))
        assert utf8.had_decode_errors is False
        assert utf8.body_text == latin.body_text
        hard = parse_email("héllo".encode("utf-16"))
        assert hard.had_decode_errors is True and hard.body_text

    def test_continuation_headers(self):
        email = parse_email(b"Subject: one\n  two\nFrom: a@b\n\nbody")
        assert email.headers["subject"] == "one two"


class TestSentencesAndTokens:
    def test_two_sentences(self):
        sentences = split_sentences("Hi there. Buy now!")
        assert len(sentences) == 2
        assert tokenize(sentences[0]) == ["hi", "there"]

    def test_empty_text(self):
        assert split_sentences("") == []

    def test_blank_line_splits(self):
        assert split_sentences("alpha beta\n\ngamma") == ["alpha beta", "gamma"]

    def test_url_and_emoticon_preserved(self):
        sentences = split_sentences("visit http://x.com :)")
        assert len(sentences) == 1
        assert tokenize(sentences[0]) == ["visit", "http://x.com", ":)"]

    def test_lowercasing(self):
        assert tokenize("Hello WORLD") == ["hello", "world"]

    def test_punctuation_not_tokenized(self):
        assert tokenize("well, then: (done)") == ["well", "then", "done"]

    def test_time_of_day_is_not_an_emoticon(self):
        assert tokenize("meet at 10:30 ok") == ["meet", "at", "10", "30", "ok"]

    def test_emoji_codepoint(self):
        assert tokenize("nice \U0001F600 day") == ["nice", "\U0001F600", "day"]

    @given(st.text(alphabet="abc XY.", max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_tokens_are_substrings_of_lowercased_text(self, text):
        lowered = text.lower()
        for sentence in split_sentences(text):
            for token in tokenize(sentence):
                assert token in lowered
                assert token

    @given(st.lists(st.sampled_from(["spam", "ham", "offer", "x9"]), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_token_count_never_exceeds_whitespace_tokens_on_clean_text(self, words):
        text = " ".join(words)
        produced = sum(len(tokenize(s)) for s in split_sentences(text))
        assert produced <= len(text.split())


class TestToDocument:
    def test_truncation_keeps_label_and_order(self):
        body = "\n\n".join(f"s{i} word extra filler tail" for i in range(40))
        email = RawEmail("p", {}, body, SPAM)
        doc = to_document(email, s_max=5, t_max=2)
        assert doc.label == SPAM
        assert doc.truncated_sentences and doc.truncated_tokens
        assert len(doc.sentences) == 5
        assert all(len(s) == 2 for s in doc.sentences)
        assert [s[0] for s in doc.sentences] == ["s0", "s1", "s2", "s3", "s4"]

    def test_subject_flag(self):
        email = RawEmail("p", {"subject": "Free prize"}, "call me", HAM)
        assert to_document(email).sentences == [["call", "me"]]
        with_subject = to_document(email, include_subject=True)
        assert with_subject.sentences[0] == ["free", "prize"]

    def test_empty_body_yields_empty_document(self):
        doc = to_document(RawEmail("p", {}, "", HAM))
        assert doc.empty


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class TestLoadCorpus:
    def test_merged_layout(self, tmp_path):
        _write(tmp_path / "ham" / "a.txt", "Subject: a\n\nhello there")
        _write(tmp_path / "spam" / "b.txt", "Subject: b\n\nbuy now")
        load = load_corpus(tmp_path, "merged")
        total, spam, ham = load.counts()
        assert (total, spam, ham) == (2, 1, 1)
        labels = {e.source_path.split("/")[-1]: e.label for e in load.emails}
        assert labels == {"a.txt": HAM, "b.txt": SPAM}

    def test_missing_class_dir_is_layout_error(self, tmp_path):
        _write(tmp_path / "ham" / "a.txt", "x")
        with pytest.raises(LayoutError, match="spam"):
            load_corpus(tmp_path, "merged")

    def test_empty_dir_is_empty_corpus_error(self, tmp_path):
        (tmp_path / "nothing").mkdir()
        with pytest.raises(EmptyCorpusError):
            load_corpus(tmp_path, "merged")

    def test_unknown_layout(self, tmp_path):
        with pytest.raises(LayoutError, match="unknown layout"):
            load_corpus(tmp_path, "nope")

    def test_lingspam_layout_groups_and_labels(self, tmp_path):
        _write(tmp_path / "part1" / "spmsga1.txt", "Subject: s\n\nwin cash")
        _write(tmp_path / "part1" / "3-1msg1.txt", "Subject: h\n\nlinguistics talk")
        _write(tmp_path / "part2" / "spmsgb7.txt", "Subject: s\n\nwin more")
        load = load_corpus(tmp_path, "lingspam")
        assert load.counts() == (3, 2, 1)
        groups = {e.source_path.split("/")[-1]: e.group for e in load.emails}
        assert groups["spmsga1.txt"] == "part1"
        assert groups["spmsgb7.txt"] == "part2"

    def test_spamassassin_layout(self, tmp_path):
        _write(tmp_path / "easy_ham" / "1", "a b")
        _write(tmp_path / "easy_ham_2" / "1", "c d")
        _write(tmp_path / "hard_ham" / "1", "e f")
        _write(tmp_path / "spam" / "1", "g h")
        _write(tmp_path / "spam_2" / "1", "i j")
        assert load_corpus(tmp_path, "spamassassin").counts() == (5, 2, 3)

    def test_genspam_layout_groups(self, tmp_path):
        for group in ("train", "test", "adapt"):
            _write(tmp_path / f"{group}_GEN" / "1.txt", "regular mail")
            _write(tmp_path / f"{group}_SPAM" / "1.txt", "buy stuff")
        load = load_corpus(tmp_path, "genspam")
        assert load.counts() == (6, 3, 3)
        assert {e.group for e in load.emails} == {"train", "test", "adapt"}

    def test_enron_layout(self, tmp_path):
        for i in (1, 2):
            _write(tmp_path / f"enron{i}" / "ham" / "1.txt", "meeting")
            _write(tmp_path / f"enron{i}" / "spam" / "1.txt", "pills")
        assert load_corpus(tmp_path, "enron").counts() == (4, 2, 2)

    def test_trec_layout(self, tmp_path):
        _write(tmp_path / "data" / "inmail.1", "Subject: a\n\nham text")
        _write(tmp_path / "data" / "inmail.2", "Subject: b\n\nspam text")
        _write(tmp_path / "full" / "index", "ham ../data/inmail.1\nspam ../data/inmail.2\n")
        assert load_corpus(tmp_path, "trec").counts() == (2, 1, 1)

    @pytest.mark.parametrize(
        "bad_line", ["phish ../data/inmail.2", "spam ../data/inmail.2 extra", "spam"],
        ids=["unknown_label", "three_fields", "one_field"],
    )
    def test_trec_index_line_must_be_spam_or_ham_path(self, tmp_path, bad_line):
        _write(tmp_path / "data" / "inmail.1", "Subject: a\n\nham text")
        _write(tmp_path / "data" / "inmail.2", "Subject: b\n\nspam text")
        # a blank line is skipped; the bad one is line 3
        _write(tmp_path / "full" / "index", f"ham ../data/inmail.1\n\n{bad_line}\n")
        with pytest.raises(LayoutError, match=f"index:3: expected 'spam PATH' or 'ham PATH', got '{bad_line}'"):
            load_corpus(tmp_path, "trec")

    @pytest.mark.skipif(
        not os.environ.get("HANSPAM_ENRON"),
        reason="set HANSPAM_ENRON to the merged Enron corpus root to run",
    )
    def test_real_enron_published_counts(self):
        load = load_corpus(os.environ["HANSPAM_ENRON"], "enron")
        total, spam, _ = load.counts()
        assert total == 33654
        assert spam == 17110


class TestCorpusStats:
    def test_hand_counts(self):
        emails = [RawEmail("1", {}, "a b", HAM), RawEmail("2", {}, "a", SPAM)]
        stats = corpus_stats(emails)
        assert stats.vocab_words == 2
        assert stats.avg_words == pytest.approx(1.5)
        assert stats.voc_words_per_email == pytest.approx(1.0)
        assert (stats.n_emails, stats.n_spam, stats.n_ham) == (2, 1, 1)

    def test_no_links_or_emoticons(self):
        stats = corpus_stats([RawEmail("1", {}, "plain words only", HAM)])
        assert stats.vocab_links == 0
        assert stats.avg_links == 0
        assert stats.vocab_emoticons == 0

    def test_links_and_emoticons_counted(self):
        emails = [
            RawEmail("1", {}, "see www.x.org and http://y.io :)", HAM),
            RawEmail("2", {}, "again www.x.org ;)", SPAM),
        ]
        stats = corpus_stats(emails)
        assert stats.vocab_links == 2
        assert stats.avg_links == pytest.approx(1.5)
        assert stats.vocab_emoticons == 2
        assert stats.avg_emoticons == pytest.approx(1.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            corpus_stats([])

    def test_order_independence(self):
        emails = [
            RawEmail(str(i), {}, f"word{i % 5} http://l{i % 3}.com tail", i % 2)
            for i in range(20)
        ]
        base = corpus_stats(emails)
        shuffled = emails[:]
        random.Random(5).shuffle(shuffled)
        assert corpus_stats(shuffled) == base


def test_stats_render_is_textual():
    emails = [RawEmail("1", {}, "a b c", HAM)]
    text = ingest.render_stats(corpus_stats(emails))
    assert "vocab words" in text and "3" in text
