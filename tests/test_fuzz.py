"""Fuzz properties of the public entry points: any input gives a result or a
typed ScdmiError, never a bare exception or a warning.

Every test here turns every warning into an error, not only the numpy
RuntimeWarnings that Tier-1 already fails on.
"""

import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from scdmi.engine import RasterImage
from scdmi.errors import InvalidImage
from scdmi.ppm import read_ppm

pytestmark = pytest.mark.filterwarnings("error")

# the one file each example writes and reads back; the fixture outlives the examples
FUZZ_SETTINGS = settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])

SEPARATORS = [b" ", b"\n", b"\t", b"\r\n", b"  \n", b"\n# comment\n", b" #\n", b"#", b""]
NUMBERS = st.one_of(
    st.integers(-2, 6),
    st.sampled_from([255, 256, 0, 65535, 2**31, 2**63, 10**30]),
    st.integers(),
).map(lambda n: str(n).encode())
ODD_TOKENS = st.sampled_from([b"", b"+3", b"3.0", b"0x3", b"1e1", b"1_0", b"\xd9\xa3", b"-0", b"nan", b"3#", b"\x00"])
TOKENS = st.one_of(NUMBERS, NUMBERS, ODD_TOKENS)


@st.composite
def mutated_p6(draw) -> bytes:
    """A valid P6 file of at most 4x4 pixels in which the magic number, each
    header token, each separator and the pixel bytes are replaced by a mutant
    in one draw of four; the file is then cut short in one draw of four, and
    overwritten at one place in another."""

    def mostly(valid, mutants):
        return draw(mutants) if draw(st.integers(0, 3)) == 0 else valid

    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    magic = mostly(b"P6", st.sampled_from([b"P5", b"P66", b"p6", b"P", b""]))
    tokens = [mostly(str(n).encode(), TOKENS) for n in (width, height, 255)]
    seps = [mostly(b"\n", st.sampled_from(SEPARATORS)) for _ in range(4)]
    header = magic + b"".join(sep + token for sep, token in zip(seps, tokens)) + seps[3]
    need = 3 * width * height
    data = header + mostly(draw(st.binary(min_size=need, max_size=need)), st.binary(max_size=200))
    action = draw(st.integers(0, 3))
    if action == 0:
        return data[: draw(st.integers(0, len(data)))]
    if action == 1:
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at + 1 :]
    return data


def _read_or_typed_error(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        img = read_ppm(path)
    except InvalidImage:
        return
    assert isinstance(img, RasterImage) and img.mask.all()
    assert ((img.channels >= 0.0) & (img.channels <= 1.0)).all()


@FUZZ_SETTINGS
@given(st.binary(max_size=128))
def test_read_ppm_on_arbitrary_bytes(tmp_path, data):
    _read_or_typed_error(tmp_path / "fuzz.ppm", data)


@FUZZ_SETTINGS
@given(mutated_p6())
def test_read_ppm_on_mutated_p6_files(tmp_path, data):
    _read_or_typed_error(tmp_path / "fuzz.ppm", data)


def test_mutated_p6_files_include_readable_ones(tmp_path):
    # the mutations do not stop at the header checks: some files read back as images
    path = tmp_path / "found.ppm"

    def readable(data):
        path.write_bytes(data)
        try:
            return read_ppm(path).width > 0
        except InvalidImage:
            return False

    find(mutated_p6(), readable, settings=settings(max_examples=500, database=None))
