"""Seeded email-like inputs: Zipf pseudo-word documents and raw email bytes.

The same ``(seed, stream)`` always yields the same documents. Lengths follow
real email (10-30 sentences of 10-50 tokens), the vocabulary is tens of
thousands of pseudo-word types drawn with Zipf-Mandelbrot frequencies, and
each class mixes in its own topic words so the label is learnable. Raw
rendering adds what ingest has to cope with: headers, HTML bodies, URLs,
emoticons, latin-1 bytes that are not valid UTF-8, and over-long messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo ka ke ki ko ku la le li lo lu "
    "ma me mi mo mu na ne ni no nu pa pe pi po ra re ri ro ru sa se si so su "
    "ta te ti to tu va ve vi vo za ze zi zo an en in on ar er ir or"
).split()
ACCENTED = ("café", "naïve", "über", "façade", "señor", "déjà", "crème", "fiancé")
EMOTICONS = (":)", ":-(", ";)", ":D", ":P")  # no '<': HTML bodies must stay parseable
TOPIC_WORDS = 400  # per class
ZIPF_S, ZIPF_Q = 1.07, 2.7  # Zipf-Mandelbrot frequency of rank r: 1 / (r + 1 + q) ** s
SIGNAL = 0.08  # share of tokens replaced by a class topic word


@dataclass(frozen=True)
class Shape:
    """Vocabulary and length ranges; the defaults are the email-like shape."""

    vocab_types: int = 50_000
    sentences: tuple[int, int] = (10, 30)
    tokens: tuple[int, int] = (10, 50)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream, 0xBE7C])))


def _stratified(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """``n`` integers in [lo, hi], one from each of n equal slices of the range, shuffled."""
    q = (rng.permutation(n) + rng.random(n)) / n
    return lo + np.floor(q * (hi - lo + 1)).astype(np.intp)


class EmailGenerator:
    """Pseudo-word lexicon plus class topics, fixed by ``seed``."""

    def __init__(self, seed: int, shape: Shape = Shape()):
        self.seed = seed
        self.shape = shape
        rng = _rng(seed, 0)
        n_words = shape.vocab_types + 2 * TOPIC_WORDS
        words: dict[str, None] = {}
        while len(words) < n_words:
            n_syl = rng.integers(1, 5, size=n_words)
            picks = rng.integers(0, len(SYLLABLES), size=(n_words, 4))
            for k, row in zip(n_syl, picks):
                words.setdefault("".join(SYLLABLES[i] for i in row[:k]))
                if len(words) == n_words:
                    break
        lexicon = np.array(list(words), dtype=object)
        self.words = lexicon[: shape.vocab_types]
        self.topics = (
            lexicon[shape.vocab_types : shape.vocab_types + TOPIC_WORDS],  # ham
            lexicon[shape.vocab_types + TOPIC_WORDS :],  # spam
        )
        ranks = np.arange(shape.vocab_types, dtype=np.float64)
        weights = 1.0 / (ranks + 1.0 + ZIPF_Q) ** ZIPF_S
        self.cdf = np.cumsum(weights / weights.sum())

    def _sentence(self, rng: np.random.Generator, label: int, n_tok: int) -> list[str]:
        idx = np.minimum(np.searchsorted(self.cdf, rng.random(n_tok)), self.cdf.size - 1)
        toks = self.words[idx]
        planted = rng.random(n_tok) < SIGNAL
        if planted.any():
            topic = self.topics[label]
            toks[planted] = topic[rng.integers(0, topic.size, int(planted.sum()))]
        return toks.tolist()

    def documents(self, n: int, stream: int, long_share: float = 0.0) -> list[tuple[int, list[list[str]]]]:
        """``n`` labelled token documents, classes alternating then shuffled.

        Sentence counts and lengths are stratified draws from their uniform
        ranges, so the seed changes the content and order but hardly the
        amount of work. ``long_share`` of the documents get more sentences,
        or one longer sentence, than the model caps allow, so ingest has to
        truncate them.
        """
        rng = _rng(self.seed, stream)
        labels = np.arange(n) % 2
        rng.shuffle(labels)
        lo_s, hi_s = self.shape.sentences
        lo_t, hi_t = self.shape.tokens
        docs = []
        for label, n_sent in zip(labels.tolist(), _stratified(rng, n, lo_s, hi_s)):
            lengths = _stratified(rng, n_sent, lo_t, hi_t)
            if rng.random() < long_share:
                if rng.random() < 0.5:
                    n_sent = hi_s + int(rng.integers(1, 11))
                    lengths = rng.integers(lo_t, hi_t + 1, size=n_sent)
                else:
                    lengths[int(rng.integers(0, n_sent))] = hi_t + int(rng.integers(1, 21))
            docs.append((label, [self._sentence(rng, label, int(k)) for k in lengths]))
        return docs

    def raw_emails(self, n: int, stream: int) -> list[tuple[int, bytes]]:
        """``n`` labelled raw messages rendered from fresh token documents."""
        rng = _rng(self.seed, stream + 0x100)
        out = []
        for i, (label, sentences) in enumerate(self.documents(n, stream, long_share=0.1)):
            out.append((label, self._render(rng, i, stream, sentences)))
        return out

    def _render(self, rng: np.random.Generator, i: int, stream: int, sentences: list[list[str]]) -> bytes:
        pick = lambda: self.words[int(rng.integers(0, 2000))]
        latin = rng.random() < 0.1
        html = rng.random() < 0.25
        texts = []
        for toks in sentences:
            toks = list(toks)
            if rng.random() < 0.1:
                toks.insert(int(rng.integers(0, len(toks) + 1)), f"http://www.{pick()}.com/{pick()}")
            if rng.random() < 0.05:
                toks.insert(int(rng.integers(1, len(toks) + 1)), EMOTICONS[int(rng.integers(0, len(EMOTICONS)))])
            if latin and rng.random() < 0.3:
                toks.insert(int(rng.integers(0, len(toks) + 1)), ACCENTED[int(rng.integers(0, len(ACCENTED)))])
            text = " ".join(toks)
            texts.append(text[:1].upper() + text[1:] + ".!?"[int(rng.integers(0, 3))])
        paragraphs, k = [], 0
        while k < len(texts):
            step = int(rng.integers(1, 5))
            paragraphs.append(" ".join(texts[k : k + step]))
            k += step
        if html:
            body = "<html><body>\n" + "".join(f"<p>{p}</p>\n" for p in paragraphs) + "</body></html>"
            ctype = "text/html"
        else:
            body = "\n\n".join(paragraphs)
            ctype = "text/plain"
        charset = "iso-8859-1" if latin else "utf-8"
        subject = " ".join(pick() for _ in range(int(rng.integers(2, 7))))
        head = (
            f"From: {pick()}.{pick()}@{pick()}.com\n"
            f"To: {pick()}@{pick()}.org\n"
            f"Subject: {subject}\n"
            f"Message-ID: <{self.seed}.{stream}.{i}@bench.invalid>\n"
            f"Content-Type: {ctype}; charset={charset}\n"
        )
        return (head + "\n" + body + "\n").encode("latin-1" if latin else "utf-8")
