"""Fuzz tests of the readers of untrusted files.

Whatever bytes a reader is handed, it either returns or raises
``DataError``; any other exception is a bug.
"""
import pytest

from stackseg import DataError
from stackseg.data import parse_manifest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# pieces of well-formed manifests, so the fuzzer reaches every branch,
# mixed with arbitrary bytes
PIECES = [b"num_classes = 3", b"a.ppm", b"\t", b"b.pgm", b"=", b"#", b" ",
          b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\xc3", b"\xc3\xa4",
          b"\xe2\x80\xa8", b"\x85", b"\x0b"]
MANIFESTS = st.one_of(
    st.binary(max_size=200),
    st.lists(st.one_of(st.sampled_from(PIECES), st.binary(max_size=4)),
             max_size=40).map(b"".join),
)


@FUZZ
@given(blob=MANIFESTS)
def test_parse_manifest_returns_or_raises_data_error(tmp_path, blob):
    path = tmp_path / "manifest.txt"
    path.write_bytes(blob)
    try:
        meta, rows = parse_manifest(path)
    except DataError:
        return
    assert all(isinstance(k, str) and isinstance(v, str)
               for k, v in meta.items())
    for image, label in rows:
        assert image and "\0" not in image
        assert label is None or (label and "\0" not in label)
