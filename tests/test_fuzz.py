"""Fuzz properties of the public entry points: any input gives a result or a
typed ScdmiError, never a bare exception or a warning.

Every test here turns every warning into an error, not only the numpy
RuntimeWarnings that Tier-1 already fails on. The one exception is the
DeprecationWarning that hypothesis's own report hook raises on a failing
example (mypy_extensions.TypedDict): as an error it would end the session
with an INTERNALERROR, before the falsifying example and the other tests
are reported. The filter must come after "error" to take precedence.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from scdmi.bench import baseline_rows, descriptor_rows
from scdmi.engine import RasterImage, scdmi50
from scdmi.errors import InvalidImage, InvalidTransform, ScdmiError
from scdmi.oracle import brute_force_features
from scdmi.ppm import read_ppm
from scdmi.synthetic import CHANNEL_HI, CHANNEL_LO, blob_image, disk_masked_image
from scdmi.transforms import ColorAffine, ShapeAffine, sample_color_affine, sample_shape_affine, upsample_nearest

pytestmark = [
    pytest.mark.filterwarnings("error"),
    pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"),
]

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


# sampler arguments: usable numbers and ordered pairs, also every float, huge
# and negative integers, and values that are not real numbers or not pairs
USABLE_PAIRS = st.tuples(st.floats(0.1, 1.0), st.floats(1.0, 10.0))
ARGUMENTS = st.one_of(
    st.floats(1.0, 10.0),
    st.floats(1.0, 10.0),
    st.floats(),
    st.integers(-3, 3),
    st.sampled_from([1e-300, 2.0**1023, 10**400, np.float64(2.0), np.int64(3)]),
    st.sampled_from(["1", b"2", None, 1j, [1.0], (), np.array([1.0, 2.0])]),
)
PAIRS = st.one_of(USABLE_PAIRS, USABLE_PAIRS, USABLE_PAIRS, st.tuples(ARGUMENTS, ARGUMENTS), st.lists(ARGUMENTS, max_size=3), ARGUMENTS)
SEEDS = st.one_of(st.integers(0, 2**70), st.integers(0, 2**70), ARGUMENTS)
# (seed, det_range, max_condition, src_size) and (seed, max_condition, offset_range), in signature order
SHAPE_ARGS = st.tuples(SEEDS, PAIRS, ARGUMENTS, st.one_of(st.none(), PAIRS))
COLOR_ARGS = st.tuples(SEEDS, ARGUMENTS, PAIRS)


def _map_or_typed_error(sample, kind, args) -> bool:
    """True where ``sample(*args)`` returns a finite map of ``kind``, False
    where it raises InvalidTransform."""
    try:
        t = sample(*args)
    except InvalidTransform:
        return False
    assert isinstance(t, kind)
    assert np.isfinite(t.matrix).all() and np.isfinite(t.offset).all()
    return True


@settings(max_examples=300)
@given(SHAPE_ARGS)
def test_shape_sampler_on_arbitrary_arguments(args):
    _map_or_typed_error(sample_shape_affine, ShapeAffine, args)


@settings(max_examples=300)
@given(COLOR_ARGS)
def test_color_sampler_on_arbitrary_arguments(args):
    _map_or_typed_error(sample_color_affine, ColorAffine, args)


def test_sampler_arguments_include_usable_ones():
    # the draws do not stop at the argument checks: some calls return maps
    for sample, kind, strategy in ((sample_shape_affine, ShapeAffine, SHAPE_ARGS), (sample_color_affine, ColorAffine, COLOR_ARGS)):
        maps = []

        @settings(max_examples=300, database=None, derandomize=True)
        @given(strategy)
        def call(args):
            maps.append(_map_or_typed_error(sample, kind, args))

        call()
        assert any(maps), sample.__name__


# generator arguments: small usable sizes and counts, and values that are not
# non-negative integers; extents over every float, and values that are not real numbers
JUNK = st.sampled_from(["8", b"8", None, 1j, [8], (), 8.5, np.float64(8.0), True, False, np.bool_(True)])
SIZES = st.one_of(st.integers(-2, 12), st.integers(-2, 12), st.sampled_from([np.int64(5), np.uint8(3)]), JUNK)
BLOB_COUNTS = st.one_of(st.integers(-2, 8), st.integers(-2, 8), st.sampled_from([np.int64(2)]), JUNK)
EXTENTS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(),
    st.integers(-2, 3),
    st.sampled_from([2.0**1022, 2.0**1023, 1e200, 10**400, np.float64(0.3), np.float32(0.25)]),
    JUNK,
)
GENERATOR_SEEDS = st.one_of(st.integers(0, 2**70), st.integers(0, 2**70), st.sampled_from([-1, 1.5, "1", None]))


def _image_or_typed_error(make, seed, size, n_blobs, extent) -> bool:
    """True where ``make`` returns a blob image in channel range, False where it raises InvalidImage."""
    extent_name = "spread" if make is blob_image else "radius_frac"
    try:
        img = make(seed, size=size, n_blobs=n_blobs, **{extent_name: extent})
    except InvalidImage:
        return False
    assert isinstance(img, RasterImage) and img.width == img.height == size
    if make is blob_image:
        assert img.mask.all()
    slack = 1e-12
    assert ((img.channels >= CHANNEL_LO - slack) & (img.channels <= CHANNEL_HI + slack)).all()
    return True


@settings(max_examples=300)
@given(st.sampled_from([blob_image, disk_masked_image]), GENERATOR_SEEDS, SIZES, BLOB_COUNTS, EXTENTS)
def test_generators_on_arbitrary_arguments(make, seed, size, n_blobs, extent):
    _image_or_typed_error(make, seed, size, n_blobs, extent)


def test_generator_arguments_include_usable_ones():
    # the draws do not stop at the argument checks: some calls of each generator return images
    for make in (blob_image, disk_masked_image):
        images = []

        @settings(max_examples=300, database=None, derandomize=True)
        @given(GENERATOR_SEEDS, SIZES, BLOB_COUNTS, EXTENTS)
        def call(seed, size, n_blobs, extent):
            images.append(_image_or_typed_error(make, seed, size, n_blobs, extent))

        call()
        assert any(images), make.__name__


# small images: sides 1 to 8 under a random mask, with channel entries in [0, 1]
# or anywhere in the float range and at its edges
UNIT = st.floats(0.0, 1.0)
EDGES = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324, 2.0**-1022, -0.0])
ENTRIES = st.one_of(UNIT, UNIT, EDGES, st.floats())


@st.composite
def small_images(draw, max_domain: int = 64) -> RasterImage:
    """A RasterImage of sides 1 to 8 whose entries are all in [0, 1] in one
    draw of two, and otherwise drawn from ENTRIES, under a full or random mask
    that keeps at most ``max_domain`` pixels, the first in raster order."""
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    channels = draw(arrays(np.float64, (3, h, w), elements=draw(st.sampled_from([UNIT, ENTRIES]))))
    mask = draw(st.one_of(st.just(np.ones((h, w), dtype=bool)), arrays(np.bool_, (h, w))))
    mask.flat[np.flatnonzero(mask)[max_domain:]] = False
    return RasterImage(channels, mask)


def _typed(call, *args):
    """``call(*args)``, or None where it raises a ScdmiError."""
    try:
        return call(*args)
    except ScdmiError:
        return None


def _finite_where_valid(values, valid) -> bool:
    """Whether any entry is valid; asserts that no valid entry is non-finite."""
    assert values.shape == valid.shape and valid.dtype == bool
    assert np.isfinite(values[valid]).all()
    return bool(valid.any())


@settings(max_examples=100)
@given(
    arrays(np.float64, array_shapes(min_dims=1, max_dims=4, max_side=8), elements=ENTRIES),
    st.one_of(st.none(), arrays(st.sampled_from([np.bool_, np.int8, np.float64]), array_shapes(max_dims=3, max_side=8))),
)
def test_raster_image_on_arbitrary_arrays(channels, mask):
    for make, array in ((RasterImage, channels), (RasterImage.from_array, np.moveaxis(channels, 0, -1))):
        img = _typed(make, array, mask)
        if img is not None:
            assert img.channels.dtype == np.float64 and img.channels.flags.c_contiguous
            assert img.channels.shape == (3, img.height, img.width) and img.mask.shape == (img.height, img.width)
            assert img.mask.dtype == bool


def _features(img) -> bool:
    """scdmi50, descriptor_rows and baseline_rows of ``img``, each returning or
    raising a ScdmiError; whether scdmi50 gives a valid entry."""
    fv = _typed(scdmi50, img)
    rows = _typed(descriptor_rows, img)
    for row in (_typed(baseline_rows, img) or {}).values():
        assert row.dtype == np.float64
    for values, valid in (rows or {}).values():
        _finite_where_valid(values, valid)
    return fv is not None and _finite_where_valid(fv.values, fv.valid)


@settings(max_examples=100)
@given(small_images())
def test_features_on_arbitrary_small_images(img):
    _features(img)


@settings(max_examples=60)
@given(small_images(max_domain=30))
def test_oracle_on_arbitrary_small_domains(img):
    fv = _typed(brute_force_features, img)
    if fv is not None:
        _finite_where_valid(fv.values, fv.valid)


@settings(max_examples=100)
@given(small_images(), st.one_of(st.integers(-2, 3), st.sampled_from([np.int64(2), np.uint8(1)]), JUNK))
def test_upsample_on_arbitrary_images_and_factors(img, factor):
    big = _typed(upsample_nearest, img, factor)
    if big is not None:
        assert (big.height, big.width) == (factor * img.height, factor * img.width)
        assert np.array_equal(big.channels[:, ::factor, ::factor], img.channels, equal_nan=True)
        assert np.array_equal(big.mask[factor - 1 :: factor, factor - 1 :: factor], img.mask)


def test_small_images_include_valid_features():
    # the draws do not stop at the checks: some images give valid scdmi50 entries
    found = []

    @settings(max_examples=50, database=None, derandomize=True)
    @given(small_images())
    def call(img):
        found.append(_features(img))

    call()
    assert any(found)
