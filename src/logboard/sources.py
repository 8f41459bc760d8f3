"""Evidence sources for one question: tables, passages, and image text.

Image content arrives pre-extracted (caption + OCR text); no vision model
runs here. A bundle indexes its passages when it is built: the postings of
each term, which BM25 ranking and quote anchoring read, so every question
asked of it works from the same index. Loaders accept
a single bundle JSON file or a directory of per-kind files (tables as JSON
or CSV with a header row).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import retrieval


@dataclass
class Table:
    id: str
    header: list[str]
    rows: list[list[str]]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows):
            if len(row) != len(self.header):
                raise ValueError(
                    f"table {self.id!r} is not rectangular: row {i} has "
                    f"{len(row)} cells, header has {len(self.header)}"
                )


@dataclass
class Passage:
    id: str
    text: str


@dataclass
class Image:
    id: str
    caption: str = ""
    ocr_text: str = ""


@dataclass
class SourceBundle:
    tables: list[Table] = field(default_factory=list)
    passages: list[Passage] = field(default_factory=list)
    images: list[Image] = field(default_factory=list)
    # Built from `passages` below; the passages are not changed afterwards.
    # Nor are the tables and images while a run or a `run_benchmark` call
    # reads them: its `retrieval.SourceViews` are built from them once.
    passage_index: retrieval.CorpusIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for kind, items in (("table", self.tables), ("image", self.images)):
            seen = set()
            for item in items:
                if item.id in seen:
                    raise ValueError(f"duplicate {kind} id: {item.id!r}")
                seen.add(item.id)
        # Refuses a duplicate passage id.
        self.passage_index = retrieval.index(self.passages)


JSON_NUMBER = (int, float)  # the `expected` of json_value for any JSON number
_TYPE_NAMES = {
    dict: "a JSON object",
    list: "a JSON array",
    str: "a string",
    int: "an integer",
    bool: "a boolean",
    JSON_NUMBER: "a number",
}
_REQUIRED = object()


def _json_type_name(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    return _TYPE_NAMES.get(type(value), type(value).__name__)


def json_value(value, expected: type, what: str):
    """Return a parsed JSON value if it has the expected type (or JSON_NUMBER).

    Raises ValueError naming `what` and both types otherwise; a boolean is
    not an integer or a number here.
    """
    # The exact-type test is the cheap common case; bool subclasses int.
    if type(value) is not expected and (isinstance(value, bool) or not isinstance(value, expected)):
        raise ValueError(
            f"{what} must be {_TYPE_NAMES[expected]}, not {_json_type_name(value)}"
        )
    return value


def json_field(record: dict, name: str, kind: str, expected: type = str, default=_REQUIRED):
    """record[name], type-checked; ValueError names a missing or mistyped field."""
    value = record.get(name, _REQUIRED)
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise ValueError(f"{kind} has no {name!r} field")
        return default
    return json_value(value, expected, f"{kind} field {name!r}")


def json_strings(value, what: str) -> list[str]:
    """A JSON array of strings, copied; ValueError names `what` otherwise."""
    # One pass over the item types is the common case; only a wrong array
    # is walked item by item to name the first bad one.
    if type(value) is not list or not set(map(type, value)) <= {str}:
        for i, item in enumerate(json_value(value, list, what)):
            json_value(item, str, f"{what} item {i}")
    return list(value)


def _table_from_dict(t) -> Table:
    json_value(t, dict, "table")
    table_id = json_field(t, "id", "table")
    header = json_strings(json_field(t, "header", "table", list), "table field 'header'")
    rows = [
        json_strings(row, f"table {table_id!r} row {i}")
        for i, row in enumerate(json_field(t, "rows", "table", list))
    ]
    return Table(id=table_id, header=header, rows=rows)


def _passage_from_dict(p) -> Passage:
    json_value(p, dict, "passage")
    return Passage(id=json_field(p, "id", "passage"), text=json_field(p, "text", "passage"))


def _image_from_dict(i) -> Image:
    json_value(i, dict, "image")
    return Image(
        id=json_field(i, "id", "image"),
        caption=json_field(i, "caption", "image", str, ""),
        ocr_text=json_field(i, "ocr_text", "image", str, ""),
    )


def bundle_from_dict(data) -> SourceBundle:
    """Build a bundle from parsed JSON, raising ValueError on a wrong shape."""
    json_value(data, dict, "sources")
    return SourceBundle(
        tables=[_table_from_dict(t) for t in json_field(data, "tables", "sources", list, [])],
        passages=[
            _passage_from_dict(p) for p in json_field(data, "passages", "sources", list, [])
        ],
        images=[_image_from_dict(i) for i in json_field(data, "images", "sources", list, [])],
    )


def bundle_to_dict(bundle: SourceBundle) -> dict:
    return {
        "tables": [
            {"id": t.id, "header": t.header, "rows": t.rows} for t in bundle.tables
        ],
        "passages": [{"id": p.id, "text": p.text} for p in bundle.passages],
        "images": [
            {"id": i.id, "caption": i.caption, "ocr_text": i.ocr_text}
            for i in bundle.images
        ],
    }


def load_table_csv(path: Path) -> Table:
    """CSV with a header row; the file stem names the table. A leading
    UTF-8 byte-order mark is dropped, as in the JSON files."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"empty CSV table: {path}")
    return Table(id=path.stem, header=rows[0], rows=rows[1:])


def load_sources(path: str | Path) -> SourceBundle:
    """Load a SourceBundle from a bundle JSON file or a directory.

    Directory layout: *.csv and tables*.json become tables, passages*.json
    an array of {"id","text"}, images*.json an array of image records.
    Files are UTF-8, with or without a leading byte-order mark.
    """
    path = Path(path)
    if path.is_file():
        with open(path, encoding="utf-8-sig") as fh:
            return bundle_from_dict(json.load(fh))
    if not path.is_dir():
        raise FileNotFoundError(f"sources path does not exist: {path}")
    tables: list[Table] = []
    passages: list[Passage] = []
    images: list[Image] = []
    for child in sorted(path.iterdir()):
        if child.suffix == ".csv":
            tables.append(load_table_csv(child))
        elif child.suffix == ".json":
            with open(child, encoding="utf-8-sig") as fh:
                data = json.load(fh)
            name = child.stem.lower()
            if name.startswith("table"):
                items = data if isinstance(data, list) else [data]
                tables.extend(_table_from_dict(t) for t in items)
            elif name.startswith("passage"):
                passages.extend(_passage_from_dict(p) for p in json_value(data, list, child.name))
            elif name.startswith("image"):
                images.extend(_image_from_dict(i) for i in json_value(data, list, child.name))
    return SourceBundle(tables=tables, passages=passages, images=images)
