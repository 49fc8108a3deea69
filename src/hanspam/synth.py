"""Synthetic keyword-planted corpora for end-to-end checks and demos."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .ingest import EmailDocument

SPAM_KEYWORDS = ("winner", "prize", "claim", "lottery", "unsubscribe")
HAM_WORDS = (
    "meeting", "report", "tomorrow", "project", "update", "lunch", "budget",
    "review", "schedule", "please", "thanks", "draft", "notes", "team",
    "office", "call", "agenda", "quarter", "client", "invoice",
)


def make_corpus(n_docs: int = 200, seed: int = 0) -> list[EmailDocument]:
    """Separable two-class corpus, half spam: each document has 2-5 sentences
    of 3-8 words, and spam documents carry 1-3 planted keywords."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x57A7])))
    docs = []
    n_spam = int(round(n_docs * 0.5))
    labels = np.array([1] * n_spam + [0] * (n_docs - n_spam))
    rng.shuffle(labels)
    for di, label in enumerate(labels):
        n_sent = int(rng.integers(2, 6))
        sentences = []
        for _ in range(n_sent):
            n_tok = int(rng.integers(3, 9))
            sentences.append([str(rng.choice(HAM_WORDS)) for _ in range(n_tok)])
        if label == 1:
            for _ in range(int(rng.integers(1, 4))):
                si = int(rng.integers(0, n_sent))
                ti = int(rng.integers(0, len(sentences[si])))
                sentences[si][ti] = str(rng.choice(SPAM_KEYWORDS))
        docs.append(EmailDocument(label=int(label), sentences=sentences, doc_id=f"synth-{di}"))
    return docs


def write_corpus_dir(docs: list[EmailDocument], root: str | Path) -> Path:
    """Materialize documents as a merged-layout directory of email files."""
    root = Path(root)
    for sub in ("ham", "spam"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    for i, doc in enumerate(docs):
        body = "\n\n".join(" ".join(s) + "." for s in doc.sentences)
        text = f"Subject: message {i}\n\n{body}\n"
        sub = "spam" if doc.label == 1 else "ham"
        (root / sub / f"msg{i:04d}.txt").write_text(text, encoding="utf-8")
    return root
