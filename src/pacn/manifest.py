"""Dataset manifests: tab-separated clip listings with a closed label set."""

from __future__ import annotations

import io
from dataclasses import dataclass

from .augment import MIX_DEVICE_ID
from .errors import IngestionError, read_text

SCENE_LABELS = (
    "airport",
    "bus",
    "metro",
    "metro_station",
    "park",
    "public_square",
    "shopping_mall",
    "street_pedestrian",
    "street_traffic",
    "tram",
)
LABEL_INDEX = {name: i for i, name in enumerate(SCENE_LABELS)}

COLUMNS = ("filename", "scene_label", "device_id", "city")


@dataclass
class ManifestRow:
    filename: str
    scene_label: str
    device_id: str
    city: str

    @property
    def label_index(self) -> int:
        return LABEL_INDEX[self.scene_label]


def parse_manifest(path) -> list[ManifestRow]:
    # universal newlines: "\r\n" and "\r" end a line as "\n" does
    lines = io.StringIO(read_text(path), newline=None).readlines()
    header = lines[0].rstrip("\n") if lines else ""
    if tuple(header.split("\t")) != COLUMNS:
        raise IngestionError(f"{path}:1: expected header "
                             f"{chr(9).join(COLUMNS)!r}, got {header!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(COLUMNS):
            raise IngestionError(f"{path}:{lineno}: expected "
                                 f"{len(COLUMNS)} tab-separated fields, "
                                 f"got {len(fields)}")
        filename, label, device, city = fields
        if label not in LABEL_INDEX:
            raise IngestionError(f"{path}:{lineno}: unknown scene label "
                                 f"{label!r}")
        if device == MIX_DEVICE_ID:
            raise IngestionError(f"{path}:{lineno}: device id {device!r} is "
                                 "reserved for audio-mixed clips")
        rows.append(ManifestRow(filename, label, device, city))
    return rows


def write_manifest(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\t".join(COLUMNS) + "\n")
        for r in rows:
            fh.write(f"{r.filename}\t{r.scene_label}\t{r.device_id}\t{r.city}\n")
