"""Similarity kernel, morphology and ROI geometry, checked against
set-definition and hand-evaluated oracles."""

import numpy as np
import pytest

from dynafuse.imgproc import (
    SsimParams,
    StructuringElement,
    closing,
    dilate,
    erode,
    largest_component,
    opening,
    roi_resize,
    silhouette,
    ssim,
)


def erode_oracle(mask: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Set-definition erosion with zero padding, plain Python loops."""
    h, w = mask.shape
    r = se.shape[0] // 2
    out = np.zeros_like(mask, dtype=bool)
    for y in range(h):
        for x in range(w):
            ok = True
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    if not se[dy + r, dx + r]:
                        continue
                    yy, xx = y + dy, x + dx
                    if not (0 <= yy < h and 0 <= xx < w and mask[yy, xx]):
                        ok = False
                        break
                if not ok:
                    break
            out[y, x] = ok
    return out


def dilate_oracle(mask: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Set-definition dilation with zero padding, plain Python loops."""
    h, w = mask.shape
    r = se.shape[0] // 2
    out = np.zeros_like(mask, dtype=bool)
    for y in range(h):
        for x in range(w):
            hit = False
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    if not se[dy + r, dx + r]:
                        continue
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and mask[yy, xx]:
                        hit = True
                        break
                if hit:
                    break
            out[y, x] = hit
    return out


class TestSsim:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = rng.random((16, 16))
            assert abs(ssim(f, f).global_index - 1.0) <= 1e-12

    def test_constant_images_hand_value(self):
        """All variances vanish on constant images, so only the luminance
        term differs from 1: sqrt(k1 / (1 + k1)) with defaults."""
        f0 = np.zeros((20, 20))
        f1 = np.ones((20, 20))
        result = ssim(f0, f1)
        expected = np.sqrt(1e-4 / (1.0 + 1e-4))  # 0.009999500...
        assert abs(result.global_index - 0.0099995) <= 1e-6
        assert abs(result.global_index - expected) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.random((14, 17))
            b = rng.random((14, 17))
            assert abs(ssim(a, b).global_index - ssim(b, a).global_index) <= 1e-12

    def test_global_is_mean_of_local(self):
        rng = np.random.default_rng(5)
        a = rng.random((15, 15))
        b = rng.random((15, 15))
        r = ssim(a, b)
        assert r.local_map.shape == (15, 15)
        assert abs(r.global_index - r.local_map.mean()) <= 1e-9

    def test_bounded_for_default_exponents(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.random((12, 12))
            b = rng.random((12, 12))
            assert abs(ssim(a, b).global_index) <= 1.0 + 1e-6

    def test_shape_mismatch(self):
        a = np.zeros((12, 12))
        b = np.zeros((13, 12))
        with pytest.raises(ValueError, match="mismatch"):
            ssim(a, b)

    def test_multichannel_rejected(self):
        a = np.zeros((3, 12, 12))
        with pytest.raises(ValueError, match="single-channel"):
            ssim(a, a)

    def test_window_larger_than_image(self):
        a = np.zeros((8, 8))
        with pytest.raises(ValueError, match="window"):
            ssim(a, a)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SsimParams(k1=0.0)
        with pytest.raises(ValueError):
            SsimParams(alpha=-0.5)


class TestMorphology:
    def test_erode_all_ones(self):
        out = erode(np.ones((5, 5)), StructuringElement.full(3))
        expected = np.zeros((5, 5), dtype=bool)
        expected[1:4, 1:4] = True
        np.testing.assert_array_equal(out, expected)

    def test_dilate_center_pixel(self):
        mask = np.zeros((5, 5))
        mask[2, 2] = 1
        out = dilate(mask, StructuringElement.full(3))
        expected = np.zeros((5, 5), dtype=bool)
        expected[1:4, 1:4] = True
        np.testing.assert_array_equal(out, expected)

    def test_against_set_definition_oracle(self):
        """Random sparse masks agree with the brute-force definitions."""
        rng = np.random.default_rng(7)
        se = StructuringElement.full(3)
        for _ in range(15):
            mask = rng.random((9, 9)) < 0.3
            np.testing.assert_array_equal(erode(mask, se), erode_oracle(mask, se.mask))
            np.testing.assert_array_equal(dilate(mask, se), dilate_oracle(mask, se.mask))
            np.testing.assert_array_equal(
                opening(mask, se), dilate_oracle(erode_oracle(mask, se.mask), se.mask)
            )
            np.testing.assert_array_equal(
                closing(mask, se), erode_oracle(dilate_oracle(mask, se.mask), se.mask)
            )

    def test_opening_removes_isolated_pixels(self):
        mask = np.zeros((11, 11), dtype=bool)
        mask[1:5, 1:5] = True
        mask[8, 8] = True
        out = opening(mask)
        assert not out[8, 8]
        assert out[2, 2]

    def test_closing_fills_single_pixel_hole(self):
        mask = np.ones((7, 7), dtype=bool)
        mask[3, 3] = False
        assert closing(mask)[3, 3]

    def test_duality(self):
        """dilate(m) == complement(erode(complement(m))) for symmetric elements.

        Asserted away from the border: zero padding means the array
        complement is not the infinite-plane complement there.
        """
        rng = np.random.default_rng(8)
        for side in (3, 5):
            se = StructuringElement.full(side)
            r = side // 2
            for _ in range(10):
                mask = rng.random((10, 12)) < 0.4
                lhs = dilate(mask, se)[r:-r, r:-r]
                rhs = (~erode(~mask, se))[r:-r, r:-r]
                np.testing.assert_array_equal(lhs, rhs)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            erode(np.full((5, 5), 0.5))

    def test_structuring_element_validation(self):
        with pytest.raises(ValueError):
            StructuringElement(np.ones((4, 4), dtype=bool))
        with pytest.raises(ValueError):
            StructuringElement(np.zeros((3, 3), dtype=bool))


class TestSilhouette:
    def test_all_zero_frame(self):
        out = silhouette(np.zeros((8, 8)))
        assert not out.any()

    def test_speckles_removed_block_kept(self):
        depth = np.zeros((16, 16))
        depth[3:13, 3:13] = 0.6
        for y, x in [(0, 0), (1, 15), (15, 1)]:
            depth[y, x] = 0.9
        out = silhouette(depth)
        block = np.zeros((16, 16), dtype=bool)
        block[3:13, 3:13] = True
        np.testing.assert_array_equal(out, block)
        # recompute open-then-close through the set-definition oracles
        se = np.ones((3, 3), dtype=bool)
        opened = dilate_oracle(erode_oracle(depth > 0, se), se)
        closed = erode_oracle(dilate_oracle(opened, se), se)
        np.testing.assert_array_equal(out, closed)

    def test_idempotent_on_clean_blocks(self):
        mask = np.zeros((12, 12))
        mask[2:9, 4:10] = 1.0
        once = silhouette(mask)
        twice = silhouette(once.astype(float))
        np.testing.assert_array_equal(once, twice)
        np.testing.assert_array_equal(once, mask.astype(bool))


class TestLargestComponent:
    def test_bigger_block_survives(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0:3, 0:3] = True  # 9 pixels
        mask[5:7, 5:7] = True  # 4 pixels
        out = largest_component(mask)
        assert out[1, 1] and not out[5, 5]
        assert out.sum() == 9

    def test_tie_breaks_to_earliest_row_major(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[5:7, 0:2] = True  # later in scan order
        mask[0:2, 5:7] = True  # earlier first pixel (row 0)
        out = largest_component(mask)
        assert out[0, 5] and not out[5, 0]

    def test_single_pixel(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 1] = True
        np.testing.assert_array_equal(largest_component(mask), mask)

    def test_eight_connectivity(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = True  # one diagonal component
        out = largest_component(mask)
        assert out.sum() == 3

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty"):
            largest_component(np.zeros((4, 4), dtype=bool))


class TestRoiResize:
    def test_full_mask_identity(self):
        rng = np.random.default_rng(9)
        arr = rng.random((6, 6))
        f = arr[None]
        out = roi_resize(f, np.ones((6, 6), dtype=bool), side=6)
        np.testing.assert_array_equal(out[0], arr)

    def test_bilinear_hand_values(self):
        """2x2 checker upsampled to 4x4: v(y, x) = x + y - 2xy on the
        corner-aligned grid {0, 1/3, 2/3, 1}."""
        f = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        out = roi_resize(f, np.ones((2, 2), dtype=bool), side=4)
        grid = np.arange(4) / 3.0
        x, y = np.meshgrid(grid, grid)
        np.testing.assert_allclose(out[0], x + y - 2 * x * y, atol=1e-12)

    def test_corners_preserved(self):
        f = np.array([[[0.2, 0.9], [0.4, 0.7]]])
        out = roi_resize(f, np.ones((2, 2), dtype=bool), side=5)
        p = out[0]
        assert p[0, 0] == 0.2 and p[0, 4] == 0.9 and p[4, 0] == 0.4 and p[4, 4] == 0.7

    def test_constant_preserved_exactly(self):
        f = np.full((1, 5, 3), 0.37)
        mask = np.zeros((5, 3), dtype=bool)
        mask[1:4, 0:3] = True
        out = roi_resize(f, mask, side=8)
        np.testing.assert_array_equal(out[0], np.full((8, 8), 0.37))

    def test_range_never_exceeded(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            arr = rng.random((7, 5))
            f = arr[None]
            mask = np.zeros((7, 5), dtype=bool)
            mask[1:6, 1:4] = True
            out = roi_resize(f, mask, side=11)
            sub = arr[1:6, 1:4]
            # zero padding joins the range when the crop is not square
            lo = min(sub.min(), 0.0)
            assert out[0].min() >= lo - 1e-15
            assert out[0].max() <= sub.max() + 1e-15

    def test_empty_mask(self):
        f = np.zeros((1, 4, 4))
        with pytest.raises(ValueError, match="empty"):
            roi_resize(f, np.zeros((4, 4), dtype=bool), side=4)
