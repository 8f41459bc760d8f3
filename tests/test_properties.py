"""Hypothesis properties of the numeral fault mutations, the JSON loaders
and the metrics' percentile.

The mutations splice text: whatever they change must stay inside one
numeral's span, and the parser must read a formatted numeral as exactly
one mention or a mutation could cut it apart. The loaders read untrusted
JSON, so any document, however malformed, may only raise ValueError. The
percentile replaces numpy's and must give its result to the bit.
"""

import json
import math
import random
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logboard.gating import LogisticGate
from logboard.harness import _percentile, _swap_two_numerals, perturb_numeral
from logboard.log import load_trace
from logboard.sources import bundle_from_dict
from logboard.textutil import is_year_like, parse_numerals

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
    result = perturb_numeral(text, random.Random(seed))
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
    swapped = _swap_two_numerals(text, random.Random(seed))
    if len({m.value for m in mentions}) < 2:
        assert swapped is None
        return
    assert swapped != text
    after = parse_numerals(swapped)
    assert Counter(m.text for m in after) == before
    moved = [i for i, (a, b) in enumerate(zip(mentions, after)) if a.text != b.text]
    assert len(moved) == 2
    assert all(after[i].value != mentions[i].value for i in moved)


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
