"""Corruption-matrix tests for the durable fetch cursors.

A cursor that cannot be trusted must raise the typed
:class:`~repro.atlas.connectors.CursorError` — never parse into a
half-valid resume point that skips or duplicates data.  The frame's
byte-level matrix (truncation and a bit flip at every byte, ...) runs in
``tests/test_binfmt.py`` for every format; this file covers what is
cursor-specific (foreign magic, stale versions, trailing garbage,
mistyped payloads, foreign windows).
"""

import pytest

from repro.atlas.connectors import (
    CURSOR_VERSION,
    CursorError,
    FetchCursor,
    cursor_key,
    load_cursor,
    save_cursor,
)
from repro.atlas.connectors.cursors import MAGIC
from repro.binfmt import HEADER as _HEADER


def sample_cursor() -> FetchCursor:
    """A representative mid-pagination cursor."""
    return FetchCursor(
        key="https://atlas.example/api/v2/measurements/7/results/?x=1",
        next_url="https://atlas.example/api/v2/.../?page=3",
        pages_fetched=2,
        records_written=951,
        output_bytes=180224,
        completed=False,
    )


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        path = tmp_path / "fetch.cursor"
        cursor = sample_cursor()
        written = save_cursor(path, cursor)
        assert written == path.stat().st_size
        assert load_cursor(path) == cursor

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "fetch.cursor"
        save_cursor(path, sample_cursor())
        save_cursor(path, sample_cursor())  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["fetch.cursor"]

    def test_expected_key_accepts_matching_window(self, tmp_path):
        path = tmp_path / "fetch.cursor"
        cursor = sample_cursor()
        save_cursor(path, cursor)
        assert load_cursor(path, expected_key=cursor.key) == cursor

    def test_cursor_key_is_canonical(self):
        a = cursor_key("ep", b=2, a=1)
        b = cursor_key("ep", a=1, b=2)
        assert a == b == "ep?a=1&b=2"
        assert cursor_key("ep") == "ep"
        assert cursor_key("ep", stop=100) != cursor_key("ep", stop=200)


class TestCorruptionMatrix:
    """Every damaged file raises CursorError with a telling message."""

    def saved(self, tmp_path):
        path = tmp_path / "fetch.cursor"
        save_cursor(path, sample_cursor())
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CursorError, match="cannot read"):
            load_cursor(tmp_path / "absent.cursor")

    def test_foreign_magic(self, tmp_path):
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(b"RPROBINC" + raw[len(MAGIC):])
        with pytest.raises(CursorError, match="bad magic"):
            load_cursor(path)

    def test_stale_version(self, tmp_path):
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        _, length, digest = _HEADER.unpack_from(raw, len(MAGIC))
        doctored = (
            MAGIC
            + _HEADER.pack(CURSOR_VERSION + 1, length, digest)
            + raw[len(MAGIC) + _HEADER.size:]
        )
        path.write_bytes(doctored)
        with pytest.raises(CursorError, match="version"):
            load_cursor(path)

    def test_trailing_bytes(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00garbage")
        with pytest.raises(CursorError, match="trailing bytes"):
            load_cursor(path)

    def test_digest_over_wrong_payload(self, tmp_path):
        # Swap in a *valid JSON* payload without re-digesting: the
        # digest check must catch semantic tampering, not just noise.
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        _, length, digest = _HEADER.unpack_from(raw, len(MAGIC))
        payload = bytearray(raw[len(MAGIC) + _HEADER.size:])
        assert b"951" in payload
        tampered = bytes(payload).replace(b"951", b"159")
        path.write_bytes(
            MAGIC + _HEADER.pack(CURSOR_VERSION, len(tampered), digest)
            + tampered
        )
        with pytest.raises(CursorError, match="digest mismatch"):
            load_cursor(path)

    def test_not_even_a_struct(self, tmp_path):
        path = tmp_path / "fetch.cursor"
        path.write_bytes(b"{}")  # shorter than the header
        with pytest.raises(CursorError, match="truncated"):
            load_cursor(path)

    def rewrap(self, path, payload: bytes) -> None:
        """Write *payload* with a correct header and digest around it."""
        import hashlib

        digest = hashlib.blake2b(payload, digest_size=16).digest()
        path.write_bytes(
            MAGIC + _HEADER.pack(CURSOR_VERSION, len(payload), digest)
            + payload
        )

    def test_undecodable_payload(self, tmp_path):
        path = tmp_path / "fetch.cursor"
        self.rewrap(path, b"\xff\xfe not json")
        with pytest.raises(CursorError, match="undecodable"):
            load_cursor(path)

    def test_wrong_field_set(self, tmp_path):
        path = tmp_path / "fetch.cursor"
        self.rewrap(path, b'{"key": "x", "bogus": 1}')
        with pytest.raises(CursorError, match="wrong fields"):
            load_cursor(path)

    def test_mistyped_field(self, tmp_path):
        path = tmp_path / "fetch.cursor"
        self.rewrap(
            path,
            b'{"key": "x", "next_url": "", "pages_fetched": "2", '
            b'"records_written": 0, "output_bytes": 0, "completed": false}',
        )
        with pytest.raises(CursorError, match="pages_fetched"):
            load_cursor(path)

    def test_bool_int_confusion_rejected(self, tmp_path):
        # bool is an int subclass in Python; the loader must still
        # reject `completed: 1` and `pages_fetched: true`.
        path = tmp_path / "fetch.cursor"
        self.rewrap(
            path,
            b'{"key": "x", "next_url": "", "pages_fetched": true, '
            b'"records_written": 0, "output_bytes": 0, "completed": false}',
        )
        with pytest.raises(CursorError, match="pages_fetched"):
            load_cursor(path)
        self.rewrap(
            path,
            b'{"key": "x", "next_url": "", "pages_fetched": 0, '
            b'"records_written": 0, "output_bytes": 0, "completed": 1}',
        )
        with pytest.raises(CursorError, match="completed"):
            load_cursor(path)

    def test_negative_counter_rejected(self, tmp_path):
        path = tmp_path / "fetch.cursor"
        self.rewrap(
            path,
            b'{"key": "x", "next_url": "", "pages_fetched": 0, '
            b'"records_written": 0, "output_bytes": -1, "completed": false}',
        )
        with pytest.raises(CursorError, match="negative"):
            load_cursor(path)

    def test_foreign_window_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        with pytest.raises(CursorError, match="different window"):
            load_cursor(path, expected_key="some-other-window")
