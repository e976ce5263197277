"""Similarity kernel, morphology and ROI geometry, checked against
set-definition and hand-evaluated oracles."""

import numpy as np
import pytest

from dynafuse.imgproc import (
    _as_binary,
    _box3,
    consecutive_ssim,
    largest_component,
    roi_resize,
    silhouette,
    ssim,
)

SQUARE3 = np.ones((3, 3), dtype=bool)


def erode(mask):
    return _box3(mask, erode=True)


def dilate(mask):
    return _box3(mask, erode=False)


def opening(mask):
    return dilate(erode(mask))


def closing(mask):
    return erode(dilate(mask))


def component(mask):
    """The largest component of one (H, W) mask, or None if it is empty."""
    components, found = largest_component(mask[None])
    return components[0] if found[0] else None


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

    def test_consecutive_pairs_match_ssim(self):
        rng = np.random.default_rng(11)
        frames = rng.random((4, 13, 12))
        values = consecutive_ssim(frames)
        assert values.dtype == np.float64
        assert values.tolist() == [ssim(a, b).global_index for a, b in zip(frames, frames[1:])]

    def test_consecutive_needs_a_stack(self):
        with pytest.raises(ValueError, match="ndim=2"):
            consecutive_ssim(np.zeros((12, 12)))


class TestMorphology:
    def test_erode_all_ones(self):
        out = erode(np.ones((5, 5), dtype=bool))
        expected = np.zeros((5, 5), dtype=bool)
        expected[1:4, 1:4] = True
        np.testing.assert_array_equal(out, expected)

    def test_dilate_center_pixel(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        out = dilate(mask)
        expected = np.zeros((5, 5), dtype=bool)
        expected[1:4, 1:4] = True
        np.testing.assert_array_equal(out, expected)

    def test_against_set_definition_oracle(self):
        """Random sparse masks, 1-px strips included, agree with the
        brute-force definitions."""
        rng = np.random.default_rng(7)
        se = SQUARE3
        for shape in [(9, 9)] * 15 + [(1, 9), (9, 1), (1, 1), (2, 5)]:
            mask = rng.random(shape) < 0.3
            np.testing.assert_array_equal(erode(mask), erode_oracle(mask, se))
            np.testing.assert_array_equal(dilate(mask), dilate_oracle(mask, se))
            np.testing.assert_array_equal(
                opening(mask), dilate_oracle(erode_oracle(mask, se), se)
            )
            np.testing.assert_array_equal(
                closing(mask), erode_oracle(dilate_oracle(mask, se), se)
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
        """dilate(m) == complement(erode(complement(m))) for the square.

        Asserted away from the border: zero padding means the array
        complement is not the infinite-plane complement there.
        """
        rng = np.random.default_rng(8)
        for _ in range(10):
            mask = rng.random((10, 12)) < 0.4
            lhs = dilate(mask)[1:-1, 1:-1]
            rhs = (~erode(~mask))[1:-1, 1:-1]
            np.testing.assert_array_equal(lhs, rhs)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            largest_component(np.full((1, 5, 5), 0.5))
        with pytest.raises(ValueError, match="0 or 1"):
            roi_resize(np.ones((5, 5)), np.full((5, 5), 0.5), side=4)

    def test_bool_mask_is_used_as_it_is(self):
        """A boolean mask skips the 0/1 value scan and the cast: the checked
        mask is the caller's array; a 0/1 float mask becomes a boolean one."""
        mask = np.zeros((6, 6), dtype=bool)
        mask[1:4, 2:5] = True
        assert _as_binary(mask, 2) is mask
        converted = _as_binary(mask.astype(float), 2)
        assert converted.dtype == bool
        np.testing.assert_array_equal(converted, mask)


class TestSilhouette:
    def test_all_zero_frame(self):
        out = silhouette(np.zeros((8, 8)))
        assert not out.any()

    def test_needs_planes(self):
        with pytest.raises(ValueError, match="ndim=1"):
            silhouette(np.ones(8))

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
        out = component(mask)
        assert out[1, 1] and not out[5, 5]
        assert out.sum() == 9

    def test_tie_breaks_to_earliest_row_major(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[5:7, 0:2] = True  # later in scan order
        mask[0:2, 5:7] = True  # earlier first pixel (row 0)
        out = component(mask)
        assert out[0, 5] and not out[5, 0]

    def test_single_pixel(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 1] = True
        np.testing.assert_array_equal(component(mask), mask)

    def test_eight_connectivity(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = True  # one diagonal component
        out = component(mask)
        assert out.sum() == 3

    def test_empty_mask(self):
        """An empty frame stays empty and is reported as not found."""
        masks = np.zeros((3, 4, 4), dtype=bool)
        masks[1, 2, 1] = True
        components, found = largest_component(masks)
        assert found.tolist() == [False, True, False]
        np.testing.assert_array_equal(components, masks)

    def test_needs_a_stack(self):
        with pytest.raises(ValueError, match="3-D mask"):
            largest_component(np.ones((4, 4), dtype=bool))


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

    def test_planes_share_one_crop(self):
        rng = np.random.default_rng(13)
        planes = rng.random((2, 3, 7, 6))
        mask = np.zeros((7, 6), dtype=bool)
        mask[2:6, 1:3] = True
        out = roi_resize(planes, mask, side=5)
        assert out.shape == (2, 3, 5, 5)
        for idx in np.ndindex(2, 3):
            assert out[idx].tobytes() == roi_resize(planes[idx], mask, side=5).tobytes()

    @pytest.mark.parametrize(
        "source, mask, side, message",
        [
            (np.ones((4, 4)), np.ones((4, 4), dtype=bool), 0, "side must be >= 1"),
            (np.ones(4), np.ones((4, 4), dtype=bool), 2, "ndim=1"),
            (np.ones((4, 4)), np.ones((1, 4, 4), dtype=bool), 2, "2-D mask"),
            (np.ones((4, 5)), np.ones((4, 4), dtype=bool), 2, "does not match"),
        ],
        ids=["side", "source_ndim", "mask_ndim", "mask_shape"],
    )
    def test_input_checks(self, source, mask, side, message):
        with pytest.raises(ValueError, match=message):
            roi_resize(source, mask, side)
