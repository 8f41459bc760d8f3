"""Hypothesis properties of the numeral fault mutations, the JSON loaders
and the metrics' percentile.

The mutations splice text: whatever they change must stay inside one
numeral's span, and the parser must read a formatted numeral as exactly
one mention or a mutation could cut it apart. The loaders read untrusted
JSON, so any document, however malformed, may only raise ValueError. The
percentile replaces numpy's and must give its result to the bit. The
numeral parser must read what the earlier dataclass-building parser read,
mention for mention. The verifier's label rule (`verify._label_spans`)
marks a numeral only in a text that `textutil.names` says names the id,
and marks every numeral of each place where the text names it; it finds a
place exactly when `names` is true, in texts holding "İ" too.
"""

import json
import math
import random
import re
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logboard.gating import LogisticGate
from logboard.harness import _percentile, _swap_two_numerals, perturb_numeral
from logboard.log import _dedup_key, load_trace
from logboard.sources import bundle_from_dict
from logboard.textutil import is_year_like, jaccard, names, normalize, parse_numerals, words
from logboard.verify import _in_label, _label_spans

# --- numerals ----------------------------------------------------------------

UNITS = ["", "%", "K", "M", "B", "k", "m", "b", " M", " B", " thousand", " million", " billion", " percent"]


@st.composite
def formatted_numerals(draw):
    """Sign, "$", a body with or without "," grouping and decimals, a unit.

    Magnitudes run from small amounts through 2**53, where floats stop
    holding every integer, to far beyond it.
    """
    whole = draw(
        st.one_of(st.integers(0, 10**12), st.integers(2**53 - 4, 2**53 + 4), st.integers(0, 10**30))
    )
    body = f"{whole:,}" if draw(st.booleans()) else str(whole)
    decimals = draw(st.text(alphabet="0123456789", max_size=3))
    if decimals:
        body += "." + decimals
    sign = draw(st.sampled_from(["", "-", "−", "+"]))
    dollar = draw(st.sampled_from(["", "$"]))
    return sign + dollar + body + draw(st.sampled_from(UNITS))


# Fillers neither start with a unit letter nor glue onto a numeral, and every
# separator ends in a space or "(", so a numeral's span is all it is.
FILLERS = ["Revenue", "was", "rose", "to", "from", "and", "in", "sales", "(Table 1)"]
SEPARATORS = [" ", ", ", "; ", ": ", " (", ") ", ". "]


@st.composite
def numeral_texts(draw):
    pieces = draw(
        st.lists(st.one_of(formatted_numerals(), st.sampled_from(FILLERS)), min_size=1, max_size=6)
    )
    text = ""
    for piece in pieces:
        text += piece + draw(st.sampled_from(SEPARATORS))
    return text


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "Revenue", "rose to"]), formatted_numerals(), st.sampled_from(SEPARATORS + [""]))
def test_parse_numerals_reads_a_formatted_numeral_as_one_mention(before, numeral, after):
    prefix = f"{before} " if before else ""
    text = prefix + numeral + after
    (mention,) = parse_numerals(text)
    assert (mention.start, mention.end) == (len(prefix), len(prefix) + len(numeral))
    assert mention.text == numeral


@settings(max_examples=300, deadline=None)
@given(numeral_texts(), st.integers(0, 2**32))
def test_perturb_numeral_changes_exactly_one_numeral(text, seed):
    """Any perturbation changes one numeral's parsed value, or none is made.

    Years are never targets, nor values of 2**53 and up, whose one-unit
    shift a float may not hold.
    """
    before = parse_numerals(text)
    result = perturb_numeral(text, before, random.Random(seed))
    if not any(not is_year_like(m) and abs(m.value) < 2**53 for m in before):
        assert result is None
        return
    new_text, old, new = result
    after = parse_numerals(new_text)
    assert len(after) == len(before)
    changed = [i for i, (a, b) in enumerate(zip(before, after)) if a.text != b.text]
    assert len(changed) == 1
    (i,) = changed
    assert (before[i].text, after[i].text) == (old, new)
    assert after[i].value != before[i].value
    assert new_text[: before[i].start] == text[: before[i].start]
    assert new_text[after[i].end :] == text[before[i].end :]


@settings(max_examples=300, deadline=None)
@given(numeral_texts(), st.integers(0, 2**32))
def test_swap_two_numerals_keeps_the_numeral_multiset(text, seed):
    """A swap moves two numerals of different value, so both positions change value.

    Texts that differ but parse to one value ("5" and "5.0", "1,000" and
    "1000") are no swap: the label would record a corruption no value check
    can see.
    """
    mentions = parse_numerals(text)
    before = Counter(m.text for m in mentions)
    swapped = _swap_two_numerals(text, mentions, random.Random(seed))
    if len({m.value for m in mentions}) < 2:
        assert swapped is None
        return
    assert swapped != text
    after = parse_numerals(swapped)
    assert Counter(m.text for m in after) == before
    moved = [i for i, (a, b) in enumerate(zip(mentions, after)) if a.text != b.text]
    assert len(moved) == 2
    assert all(after[i].value != mentions[i].value for i in moved)


# The parser as it was before mentions became named tuples: the same pattern
# without the leading lookahead, one group() call per field, one dataclass-
# style keyword construction per mention.
REFERENCE_NUMERAL_RE = re.compile(
    r"""(?<![\w.])
        (?P<sign>[-+−])?\$?
        (?P<body>\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?)
        (?P<suffix>%|\s*(?:[KkMmBb])\b|\s+(?:thousand|million|billion|percent)\b)?
    """,
    re.VERBOSE | re.IGNORECASE,
)
REFERENCE_SCALE = {"": 1.0, "K": 1e3, "M": 1e6, "B": 1e9, "%": 1.0}
REFERENCE_ALIASES = {
    "k": "K", "thousand": "K", "m": "M", "million": "M",
    "b": "B", "billion": "B", "%": "%", "percent": "%",
}


def reference_parse_numerals(text: str) -> list[tuple]:
    out = []
    for match in REFERENCE_NUMERAL_RE.finditer(text):
        raw = float(match.group("body").replace(",", ""))
        unit = REFERENCE_ALIASES.get((match.group("suffix") or "").strip().lower(), "")
        value = raw * REFERENCE_SCALE[unit]
        if match.group("sign") in ("-", "−"):
            raw, value = -raw, -value
        out.append((match.group(0).strip(), raw, unit, value, match.start(), match.end()))
    return out


# Digits, numeral punctuation, letters (unit letters among them), "_", unit
# words, a newline, an Arabic-Indic digit (a \d the parser reads) and a
# superscript two (a digit to str.isdigit, not to \d).
NUMERAL_PIECES = st.one_of(
    st.sampled_from(list("0123456789-+−$.,% _\n٣²kKmMbBxaZ")),
    st.sampled_from([" thousand", " million", " billion", " percent", "Million", " PERCENT"]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(NUMERAL_PIECES, max_size=30).map("".join))
def test_parse_numerals_matches_the_reference_parser(text):
    assert [tuple(m) for m in parse_numerals(text)] == reference_parse_numerals(text)


# --- loaders ---------------------------------------------------------------

json_documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20,
)


@st.composite
def records(draw, fields):
    """A valid JSON object with up to two fields dropped or replaced by any JSON.

    Mostly valid records get past the first checks to the deeper ones.
    """
    record = {name: draw(valid) for name, valid in fields.items()}
    for name in draw(st.lists(st.sampled_from(sorted(fields)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del record[name]
        else:
            record[name] = draw(json_documents)
    return record


def lists_of(items):
    return st.lists(items | json_documents, max_size=3)


provenances = records(
    {
        "kind": st.sampled_from(["table", "doc", "image"]),
        "id": st.sampled_from(["t1", "p1"]),
        "row": st.integers(0, 3),
        "col": st.integers(0, 3),
        "start": st.integers(0, 9),
        "end": st.integers(0, 9),
    }
)
trace_entries = records(
    {
        "agent": st.sampled_from(["User", "TableAgent"]),
        "type": st.sampled_from(["Query", "Lookup", "Answer"]),
        "content": st.just("Revenue was $5M."),
        "step": st.integers(0, 3),
        "ts_ms": st.integers(0, 9),
        "provenance": lists_of(provenances),
    }
)
bundles = records(
    {
        "tables": lists_of(
            records(
                {
                    "id": st.sampled_from(["t1", "t2"]),
                    "header": st.just(["Year", "Revenue"]),
                    "rows": lists_of(st.lists(st.sampled_from(["2019", "$5M"]), min_size=2, max_size=2)),
                }
            )
        ),
        "passages": lists_of(records({"id": st.sampled_from(["p1", "p2"]), "text": st.just("Sales rose.")})),
        "images": lists_of(
            records({"id": st.just("i1"), "caption": st.just("chart"), "ocr_text": st.just("5.2")})
        ),
    }
)


@settings(max_examples=300, deadline=None)
@given(bundles | json_documents)
def test_bundle_from_dict_raises_only_value_error(document):
    try:
        bundle_from_dict(document)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(trace_entries | json_documents | st.text(max_size=8), min_size=1, max_size=3))
def test_load_trace_raises_only_value_error(lines):
    text = "\n".join(line if isinstance(line, str) else json.dumps(line) for line in lines)
    try:
        load_trace(text)
    except ValueError:
        pass


gate_numbers = st.floats() | st.integers(-3, 3) | st.just(10**400)
gates = records(
    {
        "weights": st.lists(gate_numbers, min_size=3, max_size=5),
        "bias": gate_numbers,
        "threshold": gate_numbers,
    }
)


@settings(max_examples=300, deadline=None)
@given(gates | json_documents)
def test_gate_from_dict_raises_only_value_error(document):
    try:
        gate = LogisticGate.from_dict(document)
    except ValueError:
        return
    assert list(gate.weights) == document["weights"]
    assert all(type(w) is float and math.isfinite(w) for w in gate.weights)


# --- metrics -----------------------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    st.floats(0, 100),
)
def test_percentile_is_numpy_linear_percentile(xs, q):
    got = _percentile(xs, q)
    expected = float(np.percentile(xs, q))
    # Two finite values whose difference overflows give nan on both sides.
    assert got == expected or (math.isnan(got) and math.isnan(expected))
    assert type(got) is float


# --- dedup -------------------------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(*[st.lists(st.sampled_from("abcde"), max_size=12)] * 2)
def test_jaccard_and_word_ngrams_equal_the_set_formulas(xs, ys):
    grams = [{tuple(w[i : i + 3]) for i in range(len(w) - 2)} for w in (xs, ys)]
    assert [_dedup_key(" ".join(w))[1] for w in (xs, ys)] == grams
    a, b = grams
    expected = len(a & b) / len(a | b) if a or b else 1.0
    assert jaccard(a, b) == expected


# --- naming an id ------------------------------------------------------------

_ASCII = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=10)
_NON_WORD = st.sampled_from(list(" .,;:()[]-/$%'\"!?"))
_ID_WORDS = st.sampled_from(["Figure", "Table", "Fig.", "T", "a", "x2"]) | st.text(
    st.sampled_from("abXY019_-. "), min_size=1, max_size=4
)
_ID_NUMERALS = st.sampled_from(["2", "12", "1.5", "2019", "-3", "$4M", "7%", "1,200"])


@st.composite
def ascii_ids(draw):
    """Ids of one to three words and at least one numeral, joined by a space,
    a hyphen, an underscore or nothing."""
    parts = draw(st.lists(_ID_WORDS, max_size=2))
    parts.insert(draw(st.integers(0, len(parts))), draw(_ID_NUMERALS))
    return draw(st.sampled_from([" ", "-", "_", ""])).join(parts)


@st.composite
def ids_and_texts(draw):
    """An id, and a text of ASCII runs among which it may be written as is,
    upper- or lowercased."""
    id_ = draw(ascii_ids())
    variants = st.sampled_from([id_, id_.upper(), id_.lower()])
    return id_, "".join(draw(st.lists(variants | _ASCII | _NON_WORD, max_size=6)))


@settings(max_examples=400, deadline=None)
@given(ids_and_texts())
@example(("Figure 2", "See Figure 2 and Figure 12."))
@example(("Table 1", "Table 12 and table 1, 2019"))
def test_a_numeral_marked_as_in_a_label_sits_in_a_text_naming_the_id(case):
    id_, text = case
    named = names(normalize(text), normalize(id_))
    spans = _label_spans(text, {id_.lower()})
    for mention in parse_numerals(text):
        if _in_label(mention, spans):
            assert named, (text, mention.text)


@settings(max_examples=400, deadline=None)
@given(ascii_ids(), _ASCII, _ASCII, _NON_WORD, _NON_WORD)
@example("Figure 2", "See", "now", " ", ".")
@example("$4M-Table", "", "", "(", ")")
def test_an_id_written_verbatim_between_non_word_characters_has_its_numerals_marked(
    id_, before, after, left, right
):
    prefix, suffix = before + left, right + after
    text = prefix + id_ + suffix
    start, end = len(prefix), len(prefix) + len(id_)
    spans = _label_spans(text, {id_.lower()})
    for mention in parse_numerals(text):
        if start <= mention.start and mention.end <= end:
            assert _in_label(mention, spans), (text, mention.text)


@st.composite
def ids_named_in_texts(draw):
    """An id, and a text that names it as `textutil.names` reads names: the
    id's words in any case, joined by runs of non-word characters, between
    non-word characters. Returns (id, text, start, end of the naming run)."""
    id_ = draw(ascii_ids())
    parts = [draw(st.sampled_from([w, w.upper()])) for w in words(id_)]
    joints = [draw(st.text(_NON_WORD, min_size=1, max_size=3)) for _ in parts[1:]]
    run = parts[0] + "".join(joint + part for joint, part in zip(joints, parts[1:]))
    prefix = draw(_ASCII) + draw(_NON_WORD)
    suffix = draw(_NON_WORD) + draw(_ASCII)
    return id_, prefix + run + suffix, len(prefix), len(prefix) + len(run)


@settings(max_examples=400, deadline=None)
@given(ids_named_in_texts())
@example(("Figure 2", "See Figure-2 now", 4, 12))
@example(("Figure 2", "See Figure  2 now", 4, 13))
@example(("Fig 2", "See Fig. 2 now", 4, 10))
def test_a_numeral_inside_a_run_naming_the_id_is_marked(case):
    id_, text, start, end = case
    assert names(normalize(text), normalize(id_))
    spans = _label_spans(text, {id_.lower()})
    for mention in parse_numerals(text):
        if start <= mention.start and mention.end <= end:
            assert _in_label(mention, spans), (text, mention.text)


# "İ" lowers to "i" and a combining dot (U+0307), which is not a word
# character: `textutil.words` reads "İstanbul" as "i" and "stanbul".
_DOTTED = "aisI\u0130\u0307 2-."


@st.composite
def dotted_ids_and_texts(draw):
    """An id and a text over a few characters, "İ" and its combining dot
    among them, in which the id may be written as is, upper- or lowercased."""
    id_ = draw(st.text(st.sampled_from(_DOTTED), min_size=1, max_size=6))
    pieces = st.sampled_from([id_, id_.upper(), id_.lower()]) | st.text(
        st.sampled_from(_DOTTED), max_size=4
    )
    return id_, "".join(draw(st.lists(pieces, max_size=5)))


@settings(max_examples=500, deadline=None)
@given(dotted_ids_and_texts())
@example(("Figure İstanbul", "Figure İstanbul shows 5 and 7."))
@example(("Figure i", "Figure İstanbul shows 5 and 7."))
@example(("İ2", "xİ2 and İ2"))
def test_label_spans_find_a_span_exactly_where_the_text_names_the_id(case):
    id_, text = case
    spans = _label_spans(text, {id_.lower()})
    assert bool(spans) == names(normalize(text), normalize(id_)), (id_, text)
    # Each span is a place in the text itself whose words are the id's.
    for start, end in spans:
        assert normalize(text[start:end]) == normalize(id_), (id_, text, start, end)
