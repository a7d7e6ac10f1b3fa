import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacn.augment import MIX_DEVICE_ID
from pacn.errors import IngestionError, PacnError
from pacn.manifest import (COLUMNS, LABEL_INDEX, SCENE_LABELS, ManifestRow,
                           parse_manifest, write_manifest)


def make_rows():
    return [
        ManifestRow("audio/a0.wav", "airport", "a", "barcelona"),
        ManifestRow("audio/tr3.wav", "tram", "s1", "helsinki"),
        ManifestRow("clips/x.wav", "metro_station", "b", "lyon"),
    ]


class TestLabelSet:
    def test_ten_labels_sorted(self):
        assert len(SCENE_LABELS) == 10
        assert list(SCENE_LABELS) == sorted(SCENE_LABELS)

    def test_index_mapping(self):
        assert LABEL_INDEX["airport"] == 0
        assert LABEL_INDEX["tram"] == 9
        assert ManifestRow("f.wav", "metro", "a", "paris").label_index == 2

    def test_every_label_distinct(self):
        assert len(set(SCENE_LABELS)) == 10


class TestRoundtrip:
    def test_rows_survive(self, tmp_path):
        path = tmp_path / "m.tsv"
        rows = make_rows()
        write_manifest(path, rows)
        assert parse_manifest(path) == rows

    def test_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_manifest(a, make_rows())
        write_manifest(b, parse_manifest(a))
        assert a.read_bytes() == b.read_bytes()

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("\t".join(COLUMNS) + "\n")
        assert parse_manifest(path) == []

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends_read_as_lf(self, tmp_path, end):
        path = tmp_path / "m.tsv"
        lines = ["\t".join(COLUMNS)] + ["\t".join(vars(r).values())
                                        for r in make_rows()]
        path.write_bytes(end.join(lines).encode() + end.encode())
        assert parse_manifest(path) == make_rows()

    @given(tuples=st.lists(
        st.tuples(
            st.text(alphabet=st.characters(blacklist_characters="\t\n\r",
                                           blacklist_categories=("Cs",)),
                    min_size=1, max_size=30),
            st.sampled_from(SCENE_LABELS),
            st.text(alphabet="abcs123", min_size=1, max_size=4),
            st.sampled_from(["lisbon", "milan", "prague"]),
        ), min_size=0, max_size=8))
    def test_arbitrary_fields_roundtrip(self, tuples, tmp_path_factory):
        path = tmp_path_factory.mktemp("m") / "m.tsv"
        rows = [ManifestRow(*t) for t in tuples]
        write_manifest(path, rows)
        assert parse_manifest(path) == rows


class TestErrors:
    def test_unknown_label_named_with_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("\t".join(COLUMNS) + "\n"
                        "a.wav\tairport\ta\tparis\n"
                        "b.wav\tcathedral\ta\tparis\n")
        with pytest.raises(IngestionError, match=r"3.*cathedral|cathedral.*3"):
            parse_manifest(path)

    def test_field_count_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("\t".join(COLUMNS) + "\n"
                        "a.wav\tairport\ta\n")
        with pytest.raises(IngestionError, match=r":2"):
            parse_manifest(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("file,label,dev,city\n")
        with pytest.raises(IngestionError, match="header"):
            parse_manifest(path)

    def test_extra_column_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("\t".join(COLUMNS) + "\n"
                        "a.wav\tbus\ta\tparis\textra\n")
        with pytest.raises(IngestionError, match=r":2"):
            parse_manifest(path)

    def test_mix_device_rejected_with_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("\t".join(COLUMNS) + "\n"
                        "a.wav\tbus\ta\tparis\n"
                        f"b.wav\tbus\t{MIX_DEVICE_ID}\tparis\n")
        with pytest.raises(IngestionError, match=r":3: .*'mix'.*reserved"):
            parse_manifest(path)

    def test_non_utf8_row_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(("\t".join(COLUMNS) + "\n").encode()
                         + b"a\xff.wav\tbus\ta\tparis\n")
        with pytest.raises(IngestionError, match="UTF-8") as info:
            parse_manifest(path)
        assert str(path) in str(info.value)

    def test_non_utf8_byte_named_by_its_offset_in_the_file(self, tmp_path):
        # past the first 8 KiB a chunked text decoder counts from its chunk
        head = ("\t".join(COLUMNS) + "\n"
                + "a.wav\tbus\ta\tparis\n" * 600).encode()
        path = tmp_path / "m.tsv"
        path.write_bytes(head + b"a\xff.wav\tbus\ta\tparis\n")
        with pytest.raises(IngestionError, match=f"byte {len(head) + 1}:"):
            parse_manifest(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cut_or_flip_parses_or_raises_pacn_error(self, tmp_path_factory,
                                                     data):
        path = tmp_path_factory.mktemp("m") / "m.tsv"
        write_manifest(path, make_rows())
        raw = path.read_bytes()
        if data.draw(st.booleans(), label="cut"):
            raw = raw[:data.draw(st.integers(0, len(raw)), label="length")]
        else:
            pos = data.draw(st.integers(0, len(raw) - 1), label="offset")
            flip = data.draw(st.integers(1, 255), label="xor")
            raw = raw[:pos] + bytes([raw[pos] ^ flip]) + raw[pos + 1:]
        path.write_bytes(raw)
        try:
            rows = parse_manifest(path)
        except PacnError:
            return
        assert all(r.scene_label in LABEL_INDEX for r in rows)
