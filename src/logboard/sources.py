"""Evidence sources for one question: tables, passages, and image text.

Image content arrives pre-extracted (caption + OCR text); no vision model
runs here. Loaders accept a single bundle JSON file or a directory of
per-kind files (tables as JSON or CSV with a header row).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path


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

    def __post_init__(self) -> None:
        for kind, items in (
            ("table", self.tables),
            ("passage", self.passages),
            ("image", self.images),
        ):
            seen = set()
            for item in items:
                if item.id in seen:
                    raise ValueError(f"duplicate {kind} id: {item.id!r}")
                seen.add(item.id)

    def passage_by_id(self, passage_id: str) -> Passage | None:
        for passage in self.passages:
            if passage.id == passage_id:
                return passage
        return None


def _field(item: dict, name: str, kind: str):
    try:
        return item[name]
    except KeyError:
        raise ValueError(f"{kind} has no {name!r} field") from None


def _table_from_dict(t: dict) -> Table:
    return Table(
        id=_field(t, "id", "table"),
        header=list(_field(t, "header", "table")),
        rows=[list(r) for r in _field(t, "rows", "table")],
    )


def _passage_from_dict(p: dict) -> Passage:
    return Passage(id=_field(p, "id", "passage"), text=_field(p, "text", "passage"))


def _image_from_dict(i: dict) -> Image:
    return Image(id=_field(i, "id", "image"), caption=i.get("caption", ""),
                 ocr_text=i.get("ocr_text", ""))


def bundle_from_dict(data: dict) -> SourceBundle:
    return SourceBundle(
        tables=[_table_from_dict(t) for t in data.get("tables", [])],
        passages=[_passage_from_dict(p) for p in data.get("passages", [])],
        images=[_image_from_dict(i) for i in data.get("images", [])],
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


def load_table_csv(path: Path, table_id: str | None = None) -> Table:
    """CSV with a header row; the file stem names the table unless given."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"empty CSV table: {path}")
    return Table(id=table_id or path.stem, header=rows[0], rows=rows[1:])


def load_sources(path: str | Path) -> SourceBundle:
    """Load a SourceBundle from a bundle JSON file or a directory.

    Directory layout: *.csv and tables*.json become tables, passages*.json
    an array of {"id","text"}, images*.json an array of image records.
    """
    path = Path(path)
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
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
            with open(child, encoding="utf-8") as fh:
                data = json.load(fh)
            name = child.stem.lower()
            if name.startswith("table"):
                items = data if isinstance(data, list) else [data]
                tables.extend(_table_from_dict(t) for t in items)
            elif name.startswith("passage"):
                passages.extend(_passage_from_dict(p) for p in data)
            elif name.startswith("image"):
                images.extend(_image_from_dict(i) for i in data)
    return SourceBundle(tables=tables, passages=passages, images=images)
