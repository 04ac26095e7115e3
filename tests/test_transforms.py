import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scdmi
import scdmi.bench as bench_mod
import scdmi.transforms as transforms_mod
from scdmi.bench import featurize, invariance_report, retrieval_class
from scdmi.cli import main
from scdmi.engine import RasterImage, scdmi50
from scdmi.errors import InvalidImage, InvalidTransform, ScdmiError, Singular
from scdmi.synthetic import blob_image, disk_masked_image
from scdmi.transforms import (
    ColorAffine,
    ShapeAffine,
    apply_color_affine,
    apply_shape_affine,
    relative_deviation,
    sample_color_affine,
    sample_shape_affine,
    upsample_nearest,
)


def random_image(seed, h=16, w=16):
    rng = np.random.default_rng(seed)
    return RasterImage.from_array(rng.uniform(0.0, 1.0, size=(h, w, 3)))


def two_index_warp(img, t):
    """The bilinear warp with one two-index gather per tap and plane."""
    w_in, h_in = img.width, img.height
    a = t.matrix
    det = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    gx = np.arange(w_in, dtype=np.float64)[None, :] - t.offset[0]
    gy = np.arange(h_in, dtype=np.float64)[:, None] - t.offset[1]
    sx = inv[0, 0] * gx + inv[0, 1] * gy
    sy = inv[1, 0] * gx + inv[1, 1] * gy
    x0f = np.floor(sx)
    y0f = np.floor(sy)
    fx = sx - x0f
    fy = sy - y0f
    x0 = x0f.astype(np.int64)
    y0 = y0f.astype(np.int64)
    x1 = x0 + (fx > 0)
    y1 = y0 + (fy > 0)
    inb = (x0 >= 0) & (x1 <= w_in - 1) & (y0 >= 0) & (y1 <= h_in - 1)
    x0c = np.clip(x0, 0, w_in - 1)
    x1c = np.clip(x1, 0, w_in - 1)
    y0c = np.clip(y0, 0, h_in - 1)
    y1c = np.clip(y1, 0, h_in - 1)
    mask = img.mask
    out_mask = inb & mask[y0c, x0c] & mask[y0c, x1c] & mask[y1c, x0c] & mask[y1c, x1c]
    w00 = (1.0 - fx) * (1.0 - fy)
    w01 = fx * (1.0 - fy)
    w10 = (1.0 - fx) * fy
    w11 = fx * fy
    planes = []
    for plane in img.channels:
        out = (
            w00 * plane[y0c, x0c]
            + w01 * plane[y0c, x1c]
            + w10 * plane[y1c, x0c]
            + w11 * plane[y1c, x1c]
        )
        planes.append(np.where(out_mask, out, 0.0))
    return RasterImage(np.stack(planes), out_mask)


class TestWarpGatherExactness:
    """apply_shape_affine equals the two-index-gather warp bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "src,out", [((24, 24), None), ((31, 19), None), ((20, 26), (33, 15)), ((40, 36), (17, 22))]
    )
    def test_random_maps_and_partial_masks(self, seed, src, out):
        # ``out``, when given, is a frame the map fixes the center of in place of the image's own
        rng = np.random.default_rng(seed)
        w, h = src
        img = RasterImage.from_array(rng.uniform(-1.0, 2.0, size=(h, w, 3)), rng.random((h, w)) > 0.25)
        t = sample_shape_affine(seed + 50, det_range=(0.5, 2.0), max_condition=3.0, src_size=out or src)
        # a random shift moves part of the domain out of frame
        t = ShapeAffine(t.matrix, t.offset + rng.uniform(-4.0, 4.0, size=2))
        assert 0 < self.assert_same_warp(img, t) < img.mask.size

    @staticmethod
    def assert_same_warp(img, t):
        """Asserts that both warps give the same planes and mask, bit for
        bit, and returns the number of masked output pixels."""
        got = apply_shape_affine(img, t)
        ref = two_index_warp(img, t)
        for a, b in zip((*got.channels, got.mask), (*ref.channels, ref.mask)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b)
        return int(ref.mask.sum())

    @pytest.mark.parametrize("size", [11, 48, 96])
    @pytest.mark.parametrize(
        "det_range, max_condition", [((0.65, 1.55), 2.0), ((0.7, 1.45), 1.8)], ids=["classification", "retrieval"]
    )
    def test_bench_disks(self, size, det_range, max_condition):
        # the bench's base images and its two protocols' sampler ranges
        for seed in range(4):
            img = disk_masked_image(seed, size=size, radius_frac=0.26)
            t = sample_shape_affine(
                2 * seed + 1, det_range=det_range, max_condition=max_condition, src_size=(size, size)
            )
            assert self.assert_same_warp(img, t) > 0

    @pytest.mark.parametrize("edge", ["left", "right", "top", "bottom"])
    def test_masks_touching_each_frame_edge(self, edge):
        h, w = 18, 23
        rng = np.random.default_rng(7)
        img = RasterImage.from_array(rng.uniform(0.0, 1.0, size=(h, w, 3)), np.zeros((h, w), dtype=bool))
        rows, cols = {
            "left": (slice(4, 14), slice(0, 6)),
            "right": (slice(4, 14), slice(w - 6, w)),
            "top": (slice(0, 6), slice(5, 17)),
            "bottom": (slice(h - 6, h), slice(5, 17)),
        }[edge]
        img.mask[rows, cols] = True
        maps = [ShapeAffine(np.eye(2), np.array(shift)) for shift in ([0.0, 0.0], [1.0, -1.0], [-0.5, 0.25])]
        maps += [sample_shape_affine(s, det_range=(0.8, 1.25), max_condition=1.5, src_size=(w, h)) for s in range(4)]
        counts = [self.assert_same_warp(img, t) for t in maps]
        # the identity keeps every masked pixel, taps on the frame edge included
        assert counts[0] == img.mask.sum() and all(counts)

    @pytest.mark.parametrize("domain", ["single-pixel", "empty", "all-true"])
    def test_degenerate_masks(self, domain):
        rng = np.random.default_rng(3)
        img = RasterImage.from_array(rng.uniform(0.0, 1.0, size=(13, 16, 3)), np.zeros((13, 16), dtype=bool))
        if domain == "single-pixel":
            img.mask[5, 9] = True
        elif domain == "all-true":
            img.mask[:] = True
        maps = [ShapeAffine.identity(), ShapeAffine(np.eye(2), np.array([-3.0, 2.0]))]
        maps += [sample_shape_affine(s, src_size=(16, 13)) for s in range(3)]
        counts = [self.assert_same_warp(img, t) for t in maps]
        # a single pixel survives only grid-exact maps; the integer shift moves 3 of 16 columns and 2 of 13 rows out
        expected = {"single-pixel": [1, 1], "empty": [0, 0], "all-true": [13 * 16, 11 * 13]}[domain]
        assert counts[:2] == expected
        if domain == "all-true":
            assert all(counts)

    @pytest.mark.parametrize("h, w", [(7, 30), (45, 12), (1, 9), (9, 1)])
    def test_non_square_frames(self, h, w):
        rng = np.random.default_rng(h * w)
        img = RasterImage.from_array(rng.uniform(-1.0, 2.0, size=(h, w, 3)), rng.random((h, w)) > 0.2)
        for s in range(4):
            self.assert_same_warp(img, sample_shape_affine(s, max_condition=2.0, src_size=(w, h)))
        self.assert_same_warp(img, ShapeAffine(np.eye(2), np.array([1.0, 0.0])))

    @pytest.mark.parametrize("shift", [(0.5, 0.0), (0.0, -0.5), (-0.4, 0.6), (1.5, 0.0), (0.0, 2.0), (-3.0, -3.0)])
    def test_maps_moving_the_footprint_out_of_frame(self, shift):
        # a shift by a fraction of the frame crops the transported disk; by more than the frame, it leaves none
        size = 40
        img = disk_masked_image(5, size=size, radius_frac=0.3)
        for s in range(3):
            t = sample_shape_affine(s, det_range=(0.7, 1.4), max_condition=1.8, src_size=(size, size))
            whole = self.assert_same_warp(img, t)
            count = self.assert_same_warp(img, ShapeAffine(t.matrix, t.offset + size * np.array(shift)))
            assert count == 0 if max(map(abs, shift)) > 1.2 else 0 < count < whole

    @pytest.mark.parametrize("protocol", ["classification", "retrieval"])
    def test_bench_outputs_match_two_index_warp(self, tmp_path, monkeypatch, protocol):
        # the bench's forked workers inherit the patched warp
        args = ["bench", "--synthetic", "--protocol", protocol, "--classes", "2", "--transforms", "2",
                "--size", "48", "--seed", "1"]
        assert main([*args, "--out", str(tmp_path / "warp")]) == 0
        monkeypatch.setattr(bench_mod, "apply_shape_affine", two_index_warp)
        assert main([*args, "--out", str(tmp_path / "ref")]) == 0

        def outputs(folder: Path) -> dict[str, bytes]:
            return {p.relative_to(folder).as_posix(): p.read_bytes() for p in sorted(folder.rglob("*")) if p.is_file()}

        got, ref = outputs(tmp_path / "warp"), outputs(tmp_path / "ref")
        names = {"accuracy.csv", "pr_curves.csv", "dataset_manifest.csv"}
        assert names < set(ref) and sum(name.endswith(".ppm") for name in ref) >= 2 * 3
        assert got.keys() == ref.keys()
        for name in ref:
            assert got[name] == ref[name], name


class TestShapeAffine:
    def test_singular_matrix_rejected(self):
        with pytest.raises(Singular):
            ShapeAffine(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_identity_is_bit_identical(self):
        img = random_image(0)
        out = apply_shape_affine(img, ShapeAffine.identity())
        assert np.array_equal(out.channels[0], img.channels[0])
        assert np.array_equal(out.channels[1], img.channels[1])
        assert np.array_equal(out.channels[2], img.channels[2])
        assert np.array_equal(out.mask, img.mask)

    def test_integer_translation_is_exact_shift(self):
        img = random_image(1)
        img.mask[:] = False
        img.mask[2:10, 3:11] = True
        out = apply_shape_affine(img, ShapeAffine(np.eye(2), np.array([4.0, 2.0])))
        assert np.array_equal(out.channels[0, 4:12, 7:15], img.channels[0, 2:10, 3:11])
        assert np.array_equal(out.mask[4:12, 7:15], img.mask[2:10, 3:11])
        assert out.mask.sum() == img.mask.sum()

    def test_quarter_turn_is_exact_permutation(self):
        img = random_image(2, 9, 9)
        c = (9 - 1) / 2.0
        rot = ShapeAffine(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([2 * c, 0.0]))
        out = apply_shape_affine(img, rot)
        assert out.mask.all()
        assert sorted(out.channels[0].ravel()) == sorted(img.channels[0].ravel())
        # (x, y) -> (c - (y - c), x): column of output = W-1-y
        assert np.array_equal(out.channels[0, :, 8 - 3], img.channels[0, 3, :])

    def test_mask_soundness_under_poison(self):
        # unmasked pixels carry sentinels; they must never leak through taps
        img = random_image(3, 24, 24)
        img.mask[:] = False
        img.mask[6:18, 6:18] = True
        for plane in img.channels:
            plane[~img.mask] = 1e12
        t = sample_shape_affine(99, det_range=(0.8, 1.2), max_condition=2.0, src_size=(24, 24))
        out = apply_shape_affine(img, t)
        assert np.abs(out.channels[0, out.mask]).max() < 1e6
        assert np.all(out.channels[0, ~out.mask] == 0.0)

    def test_out_size(self):
        # the output has the input's frame: a map that halves the image leaves the rest of it masked
        img = random_image(4, 8, 12)
        out = apply_shape_affine(img, ShapeAffine(0.5 * np.eye(2)))
        assert (out.width, out.height) == (12, 8)
        assert out.mask[:4, :6].all() and np.array_equal(out.channels[0, :4, :6], img.channels[0, ::2, ::2])
        assert out.mask.sum() == 4 * 6

    @pytest.mark.parametrize(
        "matrix, offset",
        [
            (np.eye(2), [1e300, 0.0]),  # source x of -1e300, past int64
            (np.eye(2), [0.0, -1e300]),
            (0.01 * np.eye(2), [1e307, 0.0]),  # source x overflows to -inf
            (0.01 * np.array([[1.0, 1.0], [-1.0, 1.0]]), [-1e307, 1e307]),  # source y is inf - inf = nan
        ],
    )
    def test_huge_offsets_warp_out_of_frame(self, matrix, offset):
        # every source tap is far off the frame: an empty mask and zero
        # channels, with no numpy warning on the way
        out = apply_shape_affine(random_image(0, 6, 7), ShapeAffine(np.array(matrix), np.array(offset)))
        assert out.mask.shape == (6, 7) and not out.mask.any()
        assert not any(plane.any() for plane in out.channels)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps, singular", [(2.0**-52, True), (2.0**-40, False)], ids=["singular", "warps"])
    def test_huge_entries_with_finite_determinant(self, eps, singular):
        # the entries' products overflow although the determinant is finite,
        # so the map forms determinant and inverse on the matrix scaled by a
        # power of two; with eps = 2^-52 the scaled determinant cancels to 0
        # (numpy's LU determinant reads 1.56e304) and the map is a typed
        # Singular, never a numpy warning, both when it is built and when a
        # matrix set after construction is applied
        matrix = np.array([[1e160, 1e160], [1e160 * (1.0 - eps), 1e160]])
        img = random_image(0, 6, 6)
        if singular:
            with pytest.raises(Singular):
                ShapeAffine(matrix)
            t = ShapeAffine.identity()
            t.matrix = matrix
            with pytest.raises(Singular):
                apply_shape_affine(img, t)
            return
        t = ShapeAffine(matrix)
        # source (x, y) is about 1e-160 (x - y, y - (1 - eps) x): only the
        # diagonal reads inside the frame, all from pixel (0, 0)
        out = apply_shape_affine(img, t)
        diagonal = np.eye(6, dtype=bool)
        assert np.array_equal(out.mask, diagonal)
        for plane, source in zip(out.channels, img.channels):
            assert np.all(plane[diagonal] == source[0, 0]) and not plane[~diagonal].any()


class TestColorAffine:
    def test_identity(self):
        img = random_image(5)
        out = apply_color_affine(img, ColorAffine.identity())
        assert np.array_equal(out.channels[0], img.channels[0])

    def test_diagonal_doubling_unclamped(self):
        img = random_image(6)
        out = apply_color_affine(img, ColorAffine(2.0 * np.eye(3)), clamp=False)
        assert np.array_equal(out.channels[0], 2.0 * img.channels[0])
        assert np.array_equal(out.channels[2], 2.0 * img.channels[2])

    def test_channel_swap_permutes_planes(self):
        img = random_image(7)
        perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        out = apply_color_affine(img, ColorAffine(perm))
        assert np.array_equal(out.channels[0], img.channels[1])
        assert np.array_equal(out.channels[1], img.channels[2])
        assert np.array_equal(out.channels[2], img.channels[0])

    def test_map_does_not_depend_on_source_layout(self):
        # an (H, W, 3) array and the stack of its planes make one image,
        # stored C-contiguous either way, so the map's einsum rounds alike
        rgb = np.random.default_rng(12).uniform(size=(30, 30, 3))
        stacked = RasterImage(np.stack([rgb[:, :, c] for c in range(3)]), np.ones((30, 30), bool))
        t = sample_color_affine(9)
        a = apply_color_affine(RasterImage.from_array(rgb), t)
        assert np.array_equal(a.channels, apply_color_affine(stacked, t).channels)

    def test_clamp_flag(self):
        img = random_image(8)
        out = apply_color_affine(img, ColorAffine(3.0 * np.eye(3)), clamp=True)
        assert out.channels[0].max() <= 1.0

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            ColorAffine(np.zeros((3, 3)))


class TestTransformValidation:
    """Both affine maps reject a wrong shape or a non-finite entry with a typed
    error, before any determinant is formed, and a determinant that
    overflows."""

    @pytest.mark.parametrize("cls, n", [(ShapeAffine, 2), (ColorAffine, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entries_rejected(self, cls, n, bad):
        matrix = np.eye(n)
        matrix[0, n - 1] = bad
        offset = np.zeros(n)
        offset[-1] = bad
        for args in ((matrix, np.zeros(n)), (np.eye(n), offset)):
            with pytest.raises(InvalidTransform, match="finite"):
                cls(*args)

    @pytest.mark.parametrize("cls, n", [(ShapeAffine, 2), (ColorAffine, 3)])
    def test_wrong_shapes_rejected(self, cls, n):
        for args in ((np.eye(n + 1), np.zeros(n)), (np.eye(n), np.zeros(n + 1)), (np.ones(n), np.zeros(n))):
            with pytest.raises(InvalidTransform, match=f"{n}x{n} matrix"):
                cls(*args)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ShapeAffine("x"),
            lambda: ShapeAffine([[1, 0], [0]]),
            lambda: ColorAffine(np.eye(3), ["a", "b", "c"]),
        ],
        ids=["string-matrix", "ragged-matrix", "string-offset"],
    )
    def test_unconvertible_entries_rejected(self, make):
        # numpy's conversion raised a bare ValueError
        with pytest.raises(InvalidTransform, match="numeric matrix and offset"):
            make()

    @pytest.mark.parametrize("cls, n, scale", [(ShapeAffine, 2, 1e200), (ColorAffine, 3, 1e120)])
    def test_overflowing_determinant_rejected(self, cls, n, scale):
        # finite entries whose determinant overflows to inf (1e400, 1e360)
        with pytest.raises(InvalidTransform, match="determinant"):
            cls(scale * np.eye(n))

    @pytest.mark.parametrize("apply, kind", [(apply_shape_affine, ShapeAffine), (apply_color_affine, ColorAffine)])
    def test_apply_needs_an_image_and_its_map(self, apply, kind):
        # both raised a bare AttributeError
        img = RasterImage.from_array(np.zeros((4, 4, 3)))
        other = ColorAffine if kind is ShapeAffine else ShapeAffine
        for t in (other.identity(), kind.identity().matrix, None):
            with pytest.raises(InvalidTransform, match=f"^expected a {kind.__name__}, got "):
                apply(img, t)
        with pytest.raises(InvalidImage, match="^expected a RasterImage, got ndarray$"):
            apply(img.channels, kind.identity())

    def test_inverse_of_a_huge_entry(self):
        # adjugate / det overflowed with a RuntimeWarning before the scale came out
        inverse = transforms_mod._shape_inverse(ShapeAffine(np.diag([1e308, 1.0])).matrix)
        assert inverse.tolist() == [[1e-308, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1e-300, 0.0], [0.0, 1e300]],
            [[2.3818559283406154e132, 2.564867655552452e-187], [-2.6797898306577906e-204, -5.611967046087744e-100]],
            [[3.94501837e-142, 6.34453196e226], [0.0, -7.82365407e193]],
        ],
        ids=["diagonal", "row-spans-2^1060", "row-spans-2^1220"],
    )
    def test_entries_that_span_the_float_range(self, matrix):
        # one power of two for the whole matrix flushed its smallest entries:
        # the first and third maps, of determinant 1 and -3e52, were Singular,
        # and the second's inverse lost one entry to 0 and 16 bits of another
        inverse = transforms_mod._shape_inverse(ShapeAffine(matrix).matrix)
        (a, b), (c, d) = [[Fraction(v) for v in row] for row in matrix]
        det = a * d - b * c
        for got, exact in zip(inverse.ravel().tolist(), [d / det, -b / det, -c / det, a / det]):
            assert abs(Fraction(got) - exact) <= abs(exact) * Fraction(2.0**-52)

    def test_inverse_that_overflows_is_singular(self):
        # determinant 1e-6, but 1 / 1e-309 is no float
        with pytest.raises(Singular, match="no finite inverse"):
            ShapeAffine(np.diag([1e303, 1e-309]))

    @pytest.mark.parametrize(
        "matrix",
        [[[-4.2e-313, 2.0e-318], [-3.1e-313, 0.0]], [[0.0, -4.4e25], [3.66e-312, 2.36e-253]]],
        ids=["subnormal-entries", "lu-divides-by-zero"],
    )
    def test_tiny_entries_are_singular(self, matrix):
        # 2.0 ** 1036 raised a bare OverflowError, and LAPACK's LU a divide-by-zero RuntimeWarning
        with pytest.raises(Singular):
            ShapeAffine(matrix)

    def test_typed_and_exported(self):
        assert issubclass(InvalidTransform, ScdmiError) and issubclass(InvalidTransform, ValueError)
        assert scdmi.InvalidTransform is InvalidTransform
        # a singular map stays Singular, not InvalidTransform
        with pytest.raises(Singular) as info:
            ShapeAffine(np.zeros((2, 2)))
        assert not isinstance(info.value, InvalidTransform)


class TestSamplers:
    def test_shape_sampler_deterministic(self):
        a = sample_shape_affine(42, (0.5, 2.0), 3.0)
        b = sample_shape_affine(42, (0.5, 2.0), 3.0)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.offset, b.offset)

    def test_pure_rotation_case(self):
        t = sample_shape_affine(7, det_range=(1.0, 1.0), max_condition=1.0)
        assert np.linalg.det(t.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(t.matrix.T @ t.matrix, np.eye(2), atol=1e-12)

    def test_shape_dets_within_range(self):
        for seed in range(1000):
            t = sample_shape_affine(seed, det_range=(0.5, 2.0), max_condition=3.0)
            det = float(np.linalg.det(t.matrix))
            assert 0.5 - 1e-9 <= det <= 2.0 + 1e-9
            svals = np.linalg.svd(t.matrix, compute_uv=False)
            assert svals[0] / svals[1] <= 3.0 + 1e-9

    def test_color_sampler_deterministic_and_positive(self):
        a = sample_color_affine(13)
        b = sample_color_affine(13)
        assert np.array_equal(a.matrix, b.matrix)
        for seed in range(1000):
            t = sample_color_affine(seed)
            assert np.linalg.det(t.matrix) >= 1e-6

    def test_color_condition_one_is_scalar_identity(self):
        t = sample_color_affine(3, max_condition=1.0, offset_range=(0.0, 0.0))
        lam = t.matrix[0, 0]
        assert lam > 0
        assert np.allclose(t.matrix, lam * np.eye(3), atol=1e-12)
        assert np.all(t.offset == 0.0)
        # an empty offset range is valid, a reversed one is not
        with pytest.raises(ValueError, match="offset_range"):
            sample_color_affine(3, max_condition=1.0, offset_range=(1.0, -1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"det_range": (1.0, math.inf)},
            {"det_range": (0.5, math.nan)},
            {"max_condition": math.inf},
            {"max_condition": math.nan},
        ],
    )
    def test_shape_sampler_rejects_nonfinite_bounds(self, kwargs):
        # numpy's uniform draw raised a bare OverflowError on an infinite range
        with pytest.raises(ValueError, match="det_range|max_condition"):
            sample_shape_affine(0, **kwargs)

    @pytest.mark.parametrize(
        "sample, kwargs, rule",
        [
            (sample_shape_affine, {"det_range": (2.0, 1.0)}, "0 < low <= high < inf, got (2.0, 1.0)"),
            (sample_shape_affine, {"det_range": (0.0, 1.0)}, "0 < low <= high < inf"),
            (sample_shape_affine, {"det_range": (1e308, 1e308), "max_condition": 1e308},
             "high * max_condition must be at most 2**1023"),
            (sample_shape_affine, {"det_range": (1.0, 2.0**1023), "max_condition": 2.0},
             "high * max_condition must be at most 2**1023"),
            (sample_shape_affine, {"max_condition": 0.5}, "max_condition must be finite and >= 1, got 0.5"),
            (sample_color_affine, {"max_condition": 0.5}, "max_condition must be finite and >= 1, got 0.5"),
            (sample_color_affine, {"offset_range": (1.0, -1.0)}, "low <= high and a finite high - low"),
        ],
        ids=["det-reversed", "det-zero", "overflow", "overflow-at-bound", "condition-below-one",
             "color-condition-below-one", "offset-reversed"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid_ranges_raise_invalid_transform(self, sample, kwargs, rule):
        # a bare ValueError or a numpy RuntimeWarning before; the message states the rule
        with pytest.raises(InvalidTransform, match=re.escape(rule)):
            sample(0, **kwargs)

    def test_arguments_that_draw_a_singular_map(self):
        # det_range (1e-9, 1e-9) passes the argument checks, and every map it draws is singular
        with pytest.raises(InvalidTransform, match="the sampler's arguments drew a singular map") as info:
            sample_shape_affine(0, det_range=(1e-9, 1e-9))
        assert not isinstance(info.value, Singular)

    def test_largest_allowed_singular_value_samples_a_finite_map(self):
        # high * max_condition at 2**1023 exactly: the draws may round above it, and stay finite
        t = sample_shape_affine(0, det_range=(2.0**1022, 2.0**1022), max_condition=2.0, src_size=(8, 8))
        assert np.isfinite(t.matrix).all() and np.isfinite(t.offset).all()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_condition": math.inf},
            {"max_condition": math.nan},
            {"offset_range": (0.0, math.inf)},
            {"offset_range": (-math.inf, 0.0)},
            {"offset_range": (math.nan, 0.0)},
            {"offset_range": (-1e308, 1e308)},
        ],
    )
    def test_color_sampler_rejects_nonfinite_bounds(self, kwargs):
        # an infinite range, or finite bounds whose width overflows, is not drawn from
        with pytest.raises(ValueError, match="offset_range|max_condition"):
            sample_color_affine(0, **kwargs)


class TestFeatureInvariance:
    def test_color_exactness_on_masked_image(self):
        img = disk_masked_image(1, size=64, radius_frac=0.4)
        base = scdmi50(img)
        for seed in range(3):
            ct = sample_color_affine(seed + 100, max_condition=6.0, offset_range=(-0.3, 0.3))
            fv = scdmi50(apply_color_affine(img, ct))
            devs, both = relative_deviation(base.values, fv.values), base.valid & fv.valid
            assert both.any()
            assert devs[both].max() <= 1e-9

    def test_composition_consistency(self):
        img = disk_masked_image(2, size=64, radius_frac=0.28)
        st_ = sample_shape_affine(5, det_range=(0.8, 1.3), max_condition=1.6, src_size=(64, 64))
        ct = sample_color_affine(6, max_condition=4.0)
        ab = scdmi50(apply_color_affine(apply_shape_affine(img, st_), ct))
        ba = scdmi50(apply_shape_affine(apply_color_affine(img, ct), st_))
        devs, both = relative_deviation(ab.values, ba.values), ab.valid & ba.valid
        assert both.any()
        assert devs[both].max() <= 1e-9

    def test_upsample_nearest_replicates(self):
        img = random_image(9, 6, 6)
        big = upsample_nearest(img, 2)
        assert big.width == 12 and big.height == 12
        assert np.array_equal(big.channels[0, ::2, ::2], img.channels[0])
        assert np.array_equal(big.channels[0, 1::2, 1::2], img.channels[0])


class TestInputBounds:
    @pytest.mark.parametrize("make", [blob_image, disk_masked_image])
    @pytest.mark.parametrize("size", [0, -1, -7])
    def test_image_size_below_one_is_typed(self, make, size):
        # numpy would raise a bare ValueError: a zero-size reduction at 0, negative dimensions below
        with pytest.raises(InvalidImage, match="size must be >= 1") as info:
            make(3, size=size)
        assert isinstance(info.value, ScdmiError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda bad: blob_image(0, size=8, spread=bad), "spread"),
            (lambda bad: disk_masked_image(0, size=8, radius_frac=bad), "radius_frac"),
        ],
        ids=["spread", "radius_frac"],
    )
    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_negative_or_nonfinite_extent_is_typed(self, make, match, bad):
        # numpy's uniform draw raised a bare OverflowError, or ValueError for a negative range
        with pytest.raises(InvalidImage, match=match):
            make(bad)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"size": 8.5}, "size must be an integer"),
            ({"size": "8"}, "size must be an integer"),
            ({"size": True}, "size must be an integer"),
            ({"size": None}, "size must be an integer"),
            ({"n_blobs": 2.5}, "n_blobs must be an integer"),
            ({"n_blobs": True}, "n_blobs must be an integer"),
            ({"n_blobs": -1}, "n_blobs must be >= 0"),
        ],
        ids=["size-float", "size-string", "size-bool", "size-none", "blobs-float", "blobs-bool", "blobs-negative"],
    )
    @pytest.mark.parametrize("make", [blob_image, disk_masked_image])
    def test_non_integer_size_or_blob_count_is_typed(self, make, kwargs, match):
        # a float, string or None raised a bare TypeError; n_blobs=-1 returned a flat image
        with pytest.raises(InvalidImage, match=match):
            make(0, **{"size": 8, **kwargs})

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda bad: blob_image(0, size=8, spread=bad), "spread"),
            (lambda bad: disk_masked_image(0, size=8, radius_frac=bad), "radius_frac"),
        ],
        ids=["spread", "radius_frac"],
    )
    @pytest.mark.parametrize("bad", ["0.2", None, 1j, 2.0**1023, 10**400], ids=["string", "none", "complex", "2**1023", "10**400"])
    def test_extent_that_is_not_a_real_in_range_is_typed(self, make, match, bad):
        # a string or None raised a bare TypeError; a range past the float maximum, a bare OverflowError
        with pytest.raises(InvalidImage, match=match):
            make(bad)

    @pytest.mark.parametrize("seed", [-1, 1.5, "1"])
    def test_seed_that_default_rng_rejects_is_typed(self, seed):
        with pytest.raises(InvalidImage, match="seed"):
            blob_image(seed, size=4)

    def test_integer_like_arguments_are_taken(self):
        # numpy integers and reals are integers and reals; an extent at the bound still draws
        ref = blob_image(2, size=6, n_blobs=3, spread=0.25)
        got = blob_image(np.int64(2), size=np.int64(6), n_blobs=np.uint8(3), spread=np.float64(0.25))
        assert np.array_equal(got.channels, ref.channels)
        assert np.isfinite(blob_image(0, size=6, spread=2.0**1022).channels).all()

    def test_negative_zero_extent_is_zero(self):
        # numpy's uniform(0.0, -0.0) raised a bare ValueError: "high - low < 0"
        for make, name in ((blob_image, "spread"), (disk_masked_image, "radius_frac")):
            got, ref = make(0, size=6, n_blobs=2, **{name: -0.0}), make(0, size=6, n_blobs=2, **{name: 0.0})
            assert np.array_equal(got.channels, ref.channels) and np.array_equal(got.mask, ref.mask)

    @pytest.mark.parametrize("make", [blob_image, disk_masked_image])
    def test_one_pixel_image(self, make):
        img = make(3, size=1)
        assert (img.width, img.height) == (1, 1) and np.isfinite(img.channels).all()

    @pytest.mark.parametrize("factor", [0, -2])
    def test_upsample_factor_below_one_is_typed(self, factor):
        with pytest.raises(InvalidTransform, match="factor must be >= 1") as info:
            upsample_nearest(random_image(0, 4, 4), factor)
        assert isinstance(info.value, ScdmiError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("factor", ["2", None, 2.5, 2.0, True, np.float64(2.0)], ids=["string", "none", "2.5", "2.0", "bool", "float64"])
    def test_upsample_factor_that_is_not_an_integer_is_typed(self, factor):
        # a string or None raised a bare TypeError, and 2.5 was taken silently
        with pytest.raises(InvalidTransform, match="factor must be an integer"):
            upsample_nearest(random_image(0, 4, 4), factor)


class TestInvarianceReport:
    """The bench's reduction of a dataset's feature rows: each item against
    its class's first item."""

    def test_identity_only_gives_zero_deviations(self):
        rows = [scdmi50(blob_image(seed, size=32)) for seed in (3, 4)]
        values = np.array([rows[0].values] * 3 + [rows[1].values] * 2)
        valid = np.array([rows[0].valid] * 3 + [rows[1].valid] * 2)
        report = invariance_report(values, valid, np.array(["a"] * 3 + ["b"] * 2))
        assert rows[0].valid.all() and rows[1].valid.all()
        assert report.n_valid.tolist() == [3] * 50
        assert np.max(report.max_rel_dev) == 0.0

    def test_csv_layout(self):
        fv = scdmi50(blob_image(4, size=32))
        report = invariance_report(np.array([fv.values] * 2), np.array([fv.valid] * 2), np.array(["a", "a"]))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "id,k,median_rel_dev,max_rel_dev,n_valid"
        assert len(lines) == 51
        assert [line.split(",")[:2] for line in lines[1:]] == [[str(i), str(k)] for k in (0, 1) for i in range(1, 26)]
        assert lines[1].split(",")[2:] == ["0.0", "0.0", "1"]

    def test_each_item_is_compared_with_its_class_first_item(self):
        # classes interleaved: b's reference is item 0, a's is item 1
        labels = np.array(["b", "a", "b", "a", "b"])
        values = np.array([[2.0, 1.0], [4.0, 0.0], [3.0, 1.0], [5.0, 1.0], [1.0, 1.0]])
        valid = np.ones(values.shape, dtype=bool)
        report = invariance_report(values, valid, labels)
        # column 0: b pairs 0.5 and 0.5, a pairs 0.25; column 1: 0, 0 and 1 / 1e-12
        assert report.median_rel_dev.tolist() == [0.5, 0.0]
        assert report.max_rel_dev.tolist() == [0.5, 1e12]
        assert report.n_valid.tolist() == [3, 3]

    def test_invalid_pairs_are_not_counted(self):
        labels = np.array(["a", "a", "a", "b", "b"])
        values = np.array([[1.0, 1.0, np.nan], [2.0, 3.0, 1.0], [np.inf, 1.5, 1.0], [1.0, 0.0, 1.0], [1.0, 5.0, 1.0]])
        valid = np.isfinite(values)
        valid[4, 1] = False  # an invalid item side
        valid[3, 2] = False  # column 2: every pair has an invalid side
        report = invariance_report(values, valid, labels)
        assert report.n_valid.tolist() == [2, 2, 0]
        assert report.median_rel_dev[:2].tolist() == [0.5, 1.25]
        assert report.max_rel_dev[:2].tolist() == [1.0, 2.0]
        assert np.isnan(report.median_rel_dev[2]) and np.isnan(report.max_rel_dev[2])
        assert report.to_csv().splitlines()[3] == "3,0,nan,nan,0"

    def test_runs_no_warp_and_no_scdmi50(self, monkeypatch):
        features = featurize([*retrieval_class(0, 2, 32, 0, False), *retrieval_class(1, 2, 32, 0, False)])
        expected = invariance_report(*features.matrices[bench_mod.DescriptorKind.SCDMI50], features.labels).to_csv()

        def refuse(*args, **kwargs):
            raise AssertionError("the report recomputed a feature row")

        for module in (bench_mod, transforms_mod, scdmi):
            monkeypatch.setattr(module, "scdmi50", refuse, raising=False)
            monkeypatch.setattr(module, "apply_shape_affine", refuse, raising=False)
        report = invariance_report(*features.matrices[bench_mod.DescriptorKind.SCDMI50], features.labels)
        assert report.to_csv() == expected

    def test_color_only_report_is_exact(self):
        # a class is its base image under channel maps alone, which are exact: the
        # retrieval layout's base view of classes 4 and 5 under its first three maps
        maps = [
            sample_color_affine(c * 731 + t, max_condition=5.0, offset_range=(-0.15, 0.15))
            for c in (4, 5)
            for t in range(3)
        ]
        bases = [disk_masked_image(c, size=64, radius_frac=0.26) for c in (4, 5)]
        items = [(f"class{i // 3}", "test", apply_color_affine(bases[i // 3], ct)) for i, ct in enumerate(maps)]
        features = featurize(items)
        report = invariance_report(*features.matrices[bench_mod.DescriptorKind.SCDMI50], features.labels)
        assert report.n_valid.min() > 0
        assert np.max(report.max_rel_dev) <= 1e-9


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
@settings(max_examples=100)
def test_relative_deviation_nonnegative(a, b):
    d = relative_deviation(np.array([a]), np.array([b]))
    assert d[0] >= 0.0
