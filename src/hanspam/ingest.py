"""Email corpus loading, body extraction, sentence/token splitting, statistics.

Corpora are directory trees with one email per file. Named layouts map each
dataset's original folder structure onto the two classes (and remember the
original grouping, e.g. ten parts or train/test/adapt, for split-faithful
evaluation). Parsing is deliberately light: split headers from body at the
first blank line, strip HTML to text, no MIME multipart decoding.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path, PurePosixPath

HAM, SPAM = 0, 1
LABEL_NAMES = {HAM: "ham", SPAM: "spam"}


class LayoutError(ValueError):
    """The directory tree does not match the named corpus layout."""


class EmptyCorpusError(ValueError):
    """No readable email was found under the corpus root."""


@dataclass
class RawEmail:
    source_path: str
    headers: dict[str, str]
    body_text: str
    label: int
    group: str | None = None  # original split membership (part1..part10, train/test/adapt)
    had_decode_errors: bool = False  # the bytes are not UTF-8 and were read as Latin-1


@dataclass
class EmailDocument:
    """Label plus ordered sentences of ordered tokens, capped at (s_max, t_max)."""

    label: int
    sentences: list[list[str]]
    doc_id: str = ""
    group: str | None = None
    truncated_sentences: bool = False
    truncated_tokens: bool = False

    @property
    def empty(self) -> bool:
        return not any(self.sentences)

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)


@dataclass
class CorpusStats:
    n_emails: int
    n_ham: int
    n_spam: int
    vocab_words: int
    vocab_links: int
    vocab_emoticons: int
    avg_words: float
    avg_links: float
    avg_emoticons: float
    voc_words_per_email: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class CorpusLoad:
    emails: list[RawEmail]
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def counts(self) -> tuple[int, int, int]:
        spam = sum(1 for e in self.emails if e.label == SPAM)
        return len(self.emails), spam, len(self.emails) - spam


# --- header/body parsing ----------------------------------------------------

_HEADER_LINE = re.compile(r"^[!-9;-~]+:")  # RFC field-name chars followed by ':'


def _decode(raw: bytes) -> tuple[str, bool]:
    """The text of ``raw`` and whether it is not UTF-8; such bytes are read as
    Latin-1, which decodes any byte string."""
    try:
        return raw.decode("utf-8"), False
    except UnicodeDecodeError:
        return raw.decode("latin-1"), True


class _TextExtractor(HTMLParser):
    _BREAKERS = {"p", "br", "div", "li", "tr", "table", "h1", "h2", "h3", "h4", "title"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag in self._BREAKERS:
            self.parts.append("\n")

    def handle_data(self, data):
        self.parts.append(data)

    def text(self) -> str:
        merged = "".join(self.parts)
        lines = [re.sub(r"[ \t]+", " ", ln).strip() for ln in merged.splitlines()]
        out: list[str] = []
        for ln in lines:
            if ln or (out and out[-1]):
                out.append(ln)
        return "\n".join(out).strip()


_HTML_HINT = re.compile(r"<\s*(html|body|head|p|br|div|a|table|font|span|img|b|i|center)\b", re.IGNORECASE)


def strip_html(text: str) -> str:
    parser = _TextExtractor()
    parser.feed(text)
    parser.close()
    return parser.text()


def parse_email(raw: bytes, source_path: str = "", label: int = HAM, group: str | None = None) -> RawEmail:
    """Split raw bytes into a header map and decoded body text.

    The header block ends at the first blank line; when the first line does
    not look like a header field, the whole content is treated as body. HTML
    bodies are reduced to their text.
    """
    text, had_errors = _decode(raw)
    text = text.replace("\r\n", "\n").replace("\r", "\n")

    headers: dict[str, str] = {}
    body = text
    first = text.split("\n", 1)[0]
    if _HEADER_LINE.match(first):
        head, _, rest = text.partition("\n\n")
        body = rest
        last_key = None
        for line in head.split("\n"):
            if line[:1] in (" ", "\t") and last_key:
                headers[last_key] += " " + line.strip()
            elif ":" in line:
                key, _, value = line.partition(":")
                last_key = key.strip().lower()
                headers[last_key] = value.strip()

    content_type = headers.get("content-type", "")
    if "text/html" in content_type.lower() or _HTML_HINT.search(body):
        body = strip_html(body)

    return RawEmail(
        source_path=source_path,
        headers=headers,
        body_text=body.strip(),
        label=label,
        group=group,
        had_decode_errors=had_errors,
    )


# --- sentence splitting and tokenization ------------------------------------

_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")
_BLANK_LINE = re.compile(r"\n\s*\n")

_URL = r"(?:https?://[^\s<>\"']+|www\.[^\s<>\"']+)"
_ASCII_EMOTICONS = (
    ":)", ":-)", ":(", ":-(", ":D", ":-D", ":P", ":-P", ":p", ":-p", ";)", ";-)",
    ":o", ":-o", ":O", ":-O", ":/", ":-/", ":\\", ":-\\", ":|", ":-|", ":*", ":-*",
    ":'(", ":'-(", ":')", "=)", "=(", "=D", "=P", "=/", "=|", "<3", "</3",
    "xD", "XD", ":3", ":S", ":-S", ":x", ":X", ":$", ">:(", ">:)",
    "o_O", "O_o", "o.O", "O.o", "^_^", "^^", "-_-", "T_T", ";_;", ":-]", ":]",
    ":[", ":-[", "8)", "8-)", "B)", "B-)",
)
_EMOJI_RANGES = (
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF),
    (0x2600, 0x26FF),
    (0x2700, 0x27BF),
)
_EMOTICON = "|".join(re.escape(e) for e in sorted(set(_ASCII_EMOTICONS), key=len, reverse=True))
_EMOJI = "|".join(rf"[\U{lo:08X}-\U{hi:08X}]" for lo, hi in _EMOJI_RANGES)
_WORD = r"[^\W_]+"  # maximal runs of letters/digits (unicode), underscore excluded
# emoticons count only when whitespace-delimited, so "10:30" never yields ":3"
_TOKEN = re.compile(
    f"({_URL})" f"|(?:(?<=\\s)|^)({_EMOTICON})(?=\\s|$)" f"|({_EMOJI})" f"|({_WORD})",
    re.IGNORECASE,
)


def split_sentences(text: str) -> list[str]:
    """Split on sentence punctuation followed by whitespace, and on blank lines."""
    sentences: list[str] = []
    for block in _BLANK_LINE.split(text):
        block = block.strip()
        if not block:
            continue
        for piece in _SENTENCE_END.split(block):
            piece = piece.strip()
            if piece:
                sentences.append(piece)
    return sentences


def tokenize(sentence: str) -> list[str]:
    """Lowercased word/digit runs with URLs and emoticons kept whole."""
    return [m.group(0) for m in _TOKEN.finditer(sentence.lower())]


def is_link(token: str) -> bool:
    return token.startswith(("http://", "https://", "www."))


_EMOTICONS_LOWER = frozenset(e.lower() for e in _ASCII_EMOTICONS)


def is_emoticon(token: str) -> bool:
    if token.lower() in _EMOTICONS_LOWER:
        return True
    if len(token) == 1:
        cp = ord(token)
        return any(lo <= cp <= hi for lo, hi in _EMOJI_RANGES)
    return False


def _text(email: RawEmail, include_subject: bool) -> str:
    """The text an email is classified by: its body, after a blank line under
    the Subject line when ``include_subject`` is set and the email has one."""
    subject = email.headers.get("subject") if include_subject else None
    return f"{subject}\n\n{email.body_text}" if subject else email.body_text


def to_document(
    email: RawEmail,
    s_max: int = 30,
    t_max: int = 50,
    include_subject: bool = False,
) -> EmailDocument:
    """Tokenized document view of one email, truncated to the configured caps."""
    text = _text(email, include_subject)
    sentence_tokens = [toks for s in split_sentences(text) if (toks := tokenize(s))]
    truncated_sentences = len(sentence_tokens) > s_max
    truncated_tokens = any(len(t) > t_max for t in sentence_tokens)
    sentence_tokens = [t[:t_max] for t in sentence_tokens[:s_max]]
    return EmailDocument(
        label=email.label,
        sentences=sentence_tokens,
        doc_id=email.source_path,
        group=email.group,
        truncated_sentences=truncated_sentences,
        truncated_tokens=truncated_tokens,
    )


# --- corpus layouts ----------------------------------------------------------

def _classify_merged(rel: PurePosixPath):
    top = rel.parts[0].lower()
    if top == "ham":
        return HAM, None
    if top == "spam":
        return SPAM, None
    return None


def _classify_lingspam(rel: PurePosixPath):
    if len(rel.parts) < 2 or not rel.parts[-2].lower().startswith("part"):
        return None
    part = rel.parts[-2].lower()
    label = SPAM if rel.name.lower().startswith("spmsg") else HAM
    return label, part


def _classify_spamassassin(rel: PurePosixPath):
    top = rel.parts[0].lower().replace("-", "_")
    if top in ("easy_ham", "easy_ham_2", "hard_ham"):
        return HAM, top
    if top in ("spam", "spam_2"):
        return SPAM, top
    return None


def _classify_genspam(rel: PurePosixPath):
    top = rel.parts[0]
    m = re.fullmatch(r"(train|test|adapt)_(GEN|SPAM)", top, re.IGNORECASE)
    if not m:
        return None
    label = SPAM if m.group(2).upper() == "SPAM" else HAM
    return label, m.group(1).lower()


def _classify_enron(rel: PurePosixPath):
    if len(rel.parts) < 3 or not rel.parts[0].lower().startswith("enron"):
        return None
    kind = rel.parts[1].lower()
    if kind not in ("ham", "spam"):
        return None
    return (SPAM if kind == "spam" else HAM), rel.parts[0].lower()


LAYOUTS = {
    "merged": _classify_merged,
    "lingspam": _classify_lingspam,
    "spamassassin": _classify_spamassassin,
    "genspam": _classify_genspam,
    "enron": _classify_enron,
}


def _trec_listing(root: Path) -> list[tuple[Path, int, None]]:
    """``(path, label, None)`` per line of ``full/index``, each ``spam PATH``
    or ``ham PATH``; blank lines are skipped, and any other line is a
    ``LayoutError`` naming it."""
    index = root / "full" / "index"
    if not index.exists():
        raise LayoutError(f"trec layout needs {index}, not found")
    labels = {name: label for label, name in LABEL_NAMES.items()}
    listing = []
    for lineno, line in enumerate(index.read_text(encoding="utf-8", errors="replace").splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2 or parts[0].lower() not in labels:
            raise LayoutError(f"{index}:{lineno}: expected 'spam PATH' or 'ham PATH', got {line.strip()!r}")
        listing.append(((root / "full" / parts[1]).resolve(), labels[parts[0].lower()], None))
    return listing


def _tree_listing(root: Path, classify) -> list[tuple[Path, int, str | None]]:
    """``(path, label, group)`` per file under ``root`` that ``classify`` places, in path order."""
    listing = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        hit = classify(PurePosixPath(path.relative_to(root).as_posix()))
        if hit is not None:
            listing.append((path, *hit))
    return listing


def load_corpus(root: str | Path, layout: str = "merged") -> CorpusLoad:
    """Read every email under ``root`` according to a named layout.

    Files that cannot be read are collected in the skip report rather than
    silently dropped. An email whose bytes are not UTF-8 is read as Latin-1
    and flagged with ``had_decode_errors``; no byte is replaced or dropped.
    The listed files must hold both classes.
    """
    root = Path(root)
    if not root.is_dir():
        raise LayoutError(f"corpus root {root} is not a directory")
    if layout == "trec":
        listing = _trec_listing(root)
    elif layout in LAYOUTS:
        listing = _tree_listing(root, LAYOUTS[layout])
    else:
        raise LayoutError(f"unknown layout {layout!r}; known: {sorted(LAYOUTS)+['trec']}")

    emails: list[RawEmail] = []
    skipped: list[tuple[str, str]] = []
    for path, label, group in listing:
        try:
            emails.append(parse_email(path.read_bytes(), str(path), label, group))
        except OSError as exc:
            skipped.append((str(path), str(exc)))
    if not emails:
        raise EmptyCorpusError(f"no readable emails under {root} for layout {layout!r}")
    missing = {HAM, SPAM} - {label for _, label, _ in listing}
    if missing:
        names = ", ".join(LABEL_NAMES[m] for m in sorted(missing))
        raise LayoutError(f"layout {layout!r} matched no files for class(es): {names}")
    return CorpusLoad(emails, skipped)


# --- superficial-feature statistics ------------------------------------------

def corpus_stats(emails: list[RawEmail], include_subject: bool = False) -> CorpusStats:
    """Vocabulary sizes and per-email averages for words, links, and emoticons."""
    if not emails:
        raise EmptyCorpusError("corpus_stats needs a non-empty corpus")
    words: Counter[str] = Counter()
    links: Counter[str] = Counter()
    emotes: Counter[str] = Counter()
    for email in emails:
        for sentence in split_sentences(_text(email, include_subject)):
            for token in tokenize(sentence):
                if is_link(token):
                    links[token] += 1
                elif is_emoticon(token):
                    emotes[token] += 1
                else:
                    words[token] += 1
    n = len(emails)
    n_spam = sum(1 for e in emails if e.label == SPAM)
    return CorpusStats(
        n_emails=n,
        n_ham=n - n_spam,
        n_spam=n_spam,
        vocab_words=len(words),
        vocab_links=len(links),
        vocab_emoticons=len(emotes),
        avg_words=sum(words.values()) / n,
        avg_links=sum(links.values()) / n,
        avg_emoticons=sum(emotes.values()) / n,
        voc_words_per_email=len(words) / n,
    )


def render_stats(stats: CorpusStats) -> str:
    rows = [
        ("emails", f"{stats.n_emails}"),
        ("ham", f"{stats.n_ham}"),
        ("spam", f"{stats.n_spam}"),
        ("vocab words", f"{stats.vocab_words}"),
        ("vocab links", f"{stats.vocab_links}"),
        ("vocab emoticons", f"{stats.vocab_emoticons}"),
        ("avg words/email", f"{stats.avg_words:.2f}"),
        ("avg links/email", f"{stats.avg_links:.2f}"),
        ("avg emoticons/email", f"{stats.avg_emoticons:.2f}"),
        ("word vocab / emails", f"{stats.voc_words_per_email:.2f}"),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
