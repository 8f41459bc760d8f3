"""Source bundles: validation and file loading (JSON bundle, dir, CSV)."""

import json

import pytest

from logboard.sources import (
    Image,
    Passage,
    SourceBundle,
    Table,
    bundle_from_dict,
    bundle_to_dict,
    load_sources,
    load_table_csv,
)


def test_table_must_be_rectangular():
    with pytest.raises(ValueError, match="rectangular"):
        Table("t", ["a", "b"], [["1"]])


def test_duplicate_ids_rejected_per_kind():
    with pytest.raises(ValueError, match="duplicate table"):
        SourceBundle(tables=[Table("t", ["a"], []), Table("t", ["a"], [])])
    with pytest.raises(ValueError, match="duplicate passage"):
        SourceBundle(passages=[Passage("p", "x"), Passage("p", "y")])
    with pytest.raises(ValueError, match="duplicate image"):
        SourceBundle(images=[Image("i"), Image("i")])


def test_bundle_dict_roundtrip():
    bundle = SourceBundle(
        tables=[Table("t", ["h"], [["1"]])],
        passages=[Passage("p", "text")],
        images=[Image("i", caption="c", ocr_text="7 8")],
    )
    again = bundle_from_dict(bundle_to_dict(bundle))
    assert bundle_to_dict(again) == bundle_to_dict(bundle)


def test_load_bundle_file(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(
        json.dumps({"tables": [], "passages": [{"id": "p", "text": "hi"}], "images": []}),
        encoding="utf-8",
    )
    bundle = load_sources(path)
    assert bundle.passages[0].id == "p"


def test_load_table_csv(tmp_path):
    path = tmp_path / "revenue.csv"
    path.write_text("Year,Revenue\n2018,$50M\n2019,$55M\n", encoding="utf-8")
    table = load_table_csv(path)
    assert table.id == "revenue"
    assert table.header == ["Year", "Revenue"]
    assert table.rows == [["2018", "$50M"], ["2019", "$55M"]]


def test_load_sources_directory(tmp_path):
    (tmp_path / "revenue.csv").write_text("Year,Revenue\n2018,$50M\n", encoding="utf-8")
    (tmp_path / "tables_extra.json").write_text(
        json.dumps([{"id": "t2", "header": ["k"], "rows": [["v"]]}]), encoding="utf-8"
    )
    (tmp_path / "passages.json").write_text(
        json.dumps([{"id": "p1", "text": "something"}]), encoding="utf-8"
    )
    (tmp_path / "images.json").write_text(
        json.dumps([{"id": "img", "caption": "chart", "ocr_text": "5 6"}]), encoding="utf-8"
    )
    bundle = load_sources(tmp_path)
    assert {t.id for t in bundle.tables} == {"revenue", "t2"}
    assert bundle.passages[0].id == "p1"
    assert bundle.images[0].ocr_text == "5 6"


def test_load_sources_missing_path():
    with pytest.raises(FileNotFoundError):
        load_sources("/nonexistent/path")


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_table_csv(path)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"tables": [{"header": ["a"], "rows": []}]}, "table has no 'id' field"),
        ({"tables": [{"id": "t", "rows": []}]}, "table has no 'header' field"),
        ({"tables": [{"id": "t", "header": ["a"]}]}, "table has no 'rows' field"),
        ({"passages": [{"id": "p"}]}, "passage has no 'text' field"),
        ({"images": [{"caption": "c"}]}, "image has no 'id' field"),
    ],
)
def test_bundle_from_dict_names_missing_field(data, message):
    with pytest.raises(ValueError, match=message):
        bundle_from_dict(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "sources must be a JSON object, not a JSON array"),
        ({"tables": "abc"}, "sources field 'tables' must be a JSON array, not a string"),
        ({"tables": ["abc"]}, "table must be a JSON object, not a string"),
        ({"tables": [{"id": 7, "header": [], "rows": []}]}, "table field 'id' must be a string, not a number"),
        ({"tables": [{"id": "t", "header": "a", "rows": []}]}, "table field 'header' must be a JSON array"),
        ({"tables": [{"id": "t", "header": ["a"], "rows": [[1]]}]}, "table 't' row 0 item 0 must be a string"),
        ({"tables": [{"id": "t", "header": ["a"], "rows": ["a"]}]}, "table 't' row 0 must be a JSON array"),
        ({"passages": [{"id": "p", "text": None}]}, "passage field 'text' must be a string, not null"),
        ({"images": [{"id": "i", "caption": True}]}, "image field 'caption' must be a string, not a boolean"),
    ],
)
def test_bundle_from_dict_names_mistyped_field(data, message):
    with pytest.raises(ValueError, match=message):
        bundle_from_dict(data)


def test_load_sources_directory_rejects_non_array_passages(tmp_path):
    (tmp_path / "passages.json").write_text(json.dumps({"id": "p", "text": "t"}), encoding="utf-8")
    with pytest.raises(ValueError, match="passages.json must be a JSON array"):
        load_sources(tmp_path)


def test_load_sources_directory_names_missing_table_id(tmp_path):
    (tmp_path / "tables.json").write_text(
        json.dumps([{"header": ["a"], "rows": [["1"]]}]), encoding="utf-8"
    )
    with pytest.raises(ValueError, match="table has no 'id' field"):
        load_sources(tmp_path)
