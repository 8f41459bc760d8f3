"""Shared text machinery: normalization, tokens, n-grams, sentences, numerals.

Everything here is deterministic and dependency-free; the dedup predicate,
the retrieval tokenizer, the verifier's numeric canonicalization, and the
metric normalizers are all built from these pieces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Phrases the Summarizer uses to signal an information gap. Shared by the
# Context trigger and the gating features.
GAP_PHRASES = ("needed", "missing", "not sure", "don't have")

# Words that bring the Visual agent in. Shared by its trigger and the
# gating features.
_IMAGE_MENTION_RE = re.compile(r"image|figure", re.IGNORECASE)

_WORD_RE = re.compile(r"[a-z0-9]+")
_WORD_CHARS_RE = re.compile(r"\w+")
_SENTENCE_END_RE = re.compile(r"[.?!]+(?=\s)")

_ARTICLES = {"a", "an", "the"}

# Signed magnitude with an optional currency prefix and unit suffix.
# Word units ("5 million") are matched as a trailing word; "," grouping and
# decimals are kept inside one token so numerals never split. Digits glued
# to a word ("Firm0", "v1.2") are not numerals, and match spans carry no
# surrounding whitespace so splicing mutations back is exact.
NUMERAL_RE = re.compile(
    r"""(?<![\w.])
        (?P<sign>[-+−])?\$?
        (?P<body>\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?)
        (?P<suffix>%|\s*(?:[KkMmBb])\b|\s+(?:thousand|million|billion|percent)\b)?
    """,
    re.VERBOSE | re.IGNORECASE,
)

_UNIT_SCALE = {
    "": 1.0,
    "K": 1e3,
    "M": 1e6,
    "B": 1e9,
    "%": 1.0,
}

_UNIT_ALIASES = {
    "k": "K",
    "thousand": "K",
    "m": "M",
    "million": "M",
    "b": "B",
    "billion": "B",
    "%": "%",
    "percent": "%",
}


def normalize(text: str) -> str:
    """Lowercase and strip punctuation, collapsing whitespace.

    The result is the lowered text's runs of word characters, one space
    between each: the words left by blanking every character that is
    neither a word character nor whitespace and splitting, since `re` and
    `str.split()` agree on what is whitespace.
    """
    return " ".join(_WORD_CHARS_RE.findall(text.lower()))


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on non-alphanumerics; numerals stay intact."""
    return _WORD_RE.findall(text.lower())


def word_ngrams(words: list[str], n: int) -> set[tuple[str, ...]]:
    if len(words) < n:
        return set()
    return {tuple(words[i : i + n]) for i in range(len(words) - n + 1)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Character spans of sentences.

    A sentence ends at ./?/! followed by whitespace, so decimals like "5.2"
    are never split. The trailing fragment (with or without a terminator)
    forms the last sentence.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    for match in _SENTENCE_END_RE.finditer(text):
        end = match.end()
        if text[start:end].strip():
            spans.append((start, end))
        start = end
    if text[start:].strip():
        spans.append((start, len(text)))
    return spans


def first_sentence(text: str) -> str:
    spans = split_sentences(text)
    if not spans:
        return text.strip()
    start, end = spans[0]
    return text[start:end].strip()


@dataclass(frozen=True)
class NumericMention:
    """One numeral found in text, canonicalized.

    raw is the mantissa as written ("5", "5.2", "5,000,000"), unit one of
    ""/K/M/B/%, and value the scaled magnitude ("$5M" -> 5e6). Percent
    values are not rescaled; "42%" compares as 42 with unit '%'.
    """

    text: str
    raw: float
    unit: str
    value: float
    start: int
    end: int

    @property
    def explicit_unit(self) -> bool:
        return self.unit in ("K", "M", "B", "%")


def parse_numerals(text: str) -> list[NumericMention]:
    """All numeric mentions in reading order."""
    mentions = []
    for match in NUMERAL_RE.finditer(text):
        body = match.group("body").replace(",", "")
        raw = float(body)
        suffix = (match.group("suffix") or "").strip().lower()
        unit = _UNIT_ALIASES.get(suffix, "")
        value = raw * _UNIT_SCALE[unit]
        if match.group("sign") in ("-", "−"):
            raw, value = -raw, -value
        mentions.append(
            NumericMention(
                text=match.group(0).strip(),
                raw=raw,
                unit=unit,
                value=value,
                start=match.start(),
                end=match.end(),
            )
        )
    return mentions


def is_year_like(mention: NumericMention) -> bool:
    """Four-digit plain integers in 1900..2100 read as labels, not amounts."""
    return (
        mention.unit == ""
        and float(mention.raw).is_integer()
        and 1900 <= mention.raw <= 2100
        and "." not in mention.text
        and "," not in mention.text
    )


def canonical_numeral_token(mention: NumericMention) -> str:
    """Collision-free alphanumeric token for a numeral ("$5M" -> "5000000").

    The decimal point becomes "p" so punctuation stripping cannot merge
    distinct values (5.2 vs 52); percents keep a "pct" tag.
    """
    value = mention.value
    if float(value).is_integer():
        body = str(int(value))
    else:
        body = repr(value).replace(".", "p")
    if mention.unit == "%":
        body += "pct"
    return body


def canonicalize_numerals(text: str) -> str:
    """Replace every numeral span with its canonical token."""
    out = []
    last = 0
    for mention in parse_numerals(text):
        out.append(text[last : mention.start])
        out.append(" %s " % canonical_numeral_token(mention))
        last = mention.end
    out.append(text[last:])
    return "".join(out)


def numeral_values(text: str) -> list[float]:
    return [m.value for m in parse_numerals(text)]


def qa_normalize(text: str, strip_articles: bool = True) -> str:
    """Answer normalization for exact match.

    Lowercase, canonicalize numerals, strip punctuation and (by default)
    articles, collapse whitespace. ROUGE keeps articles: they are tokens.
    """
    canon = canonicalize_numerals(text).lower()
    stripped = re.sub(r"[^\w\s]", " ", canon)
    words = stripped.split()
    if strip_articles:
        words = [w for w in words if w not in _ARTICLES]
    return " ".join(words)


def mentions_image(text: str) -> bool:
    return _IMAGE_MENTION_RE.search(text) is not None


def count_gap_phrases(text: str) -> int:
    lowered = text.lower()
    return sum(lowered.count(p) for p in GAP_PHRASES)


def capitalized_spans(text: str) -> list[str]:
    """Maximal runs of capitalized words ("New York City" is one span)."""
    spans = []
    current: list[str] = []
    for token in re.findall(r"[A-Za-z][\w'-]*", text):
        if token[0].isupper():
            current.append(token)
        elif current:
            spans.append(" ".join(current))
            current = []
    if current:
        spans.append(" ".join(current))
    return spans
