"""Sampling offsets, BasicBlock, and the dynamic meta kernel."""

import hashlib
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
import util
from rvredeem import pipeline, rvfe
from rvredeem.core import RangeImage
from rvredeem.pipeline import GRADCHECK_DIMS, gradcheck_instance, run_gradcheck
from rvredeem.rvfe import (
    DILATED_OFFSETS,
    UNIT_OFFSETS,
    BasicBlockParams,
    HdMetaKernelParams,
    basicblock_forward,
    hdmk_backward,
    hdmk_forward,
    hdmk_forward_planes,
    init_basicblock,
    init_params,
)


class TestKernelOffsets:
    def test_unit_offsets_row_major(self):
        expected = (
            (-1, -1), (-1, 0), (-1, 1),
            (0, -1), (0, 0), (0, 1),
            (1, -1), (1, 0), (1, 1),
        )
        assert UNIT_OFFSETS == expected

    def test_dilated_doubles_every_offset(self):
        assert DILATED_OFFSETS == tuple((2 * dh, 2 * dw) for dh, dw in UNIT_OFFSETS)


class TestShiftPlanes:
    # The dense reference's boundary policy, which the gathers below must
    # reproduce.
    def test_vertical_never_wraps(self):
        arr = np.arange(12.0).reshape(3, 4)
        down = oracles.shift_planes(arr, 1, 0, wrap_horizontal=True)
        np.testing.assert_array_equal(down[2], 0.0)
        np.testing.assert_array_equal(down[0], arr[1])

    def test_horizontal_wrap_flag(self):
        arr = np.arange(8.0).reshape(2, 4)
        wrapped = oracles.shift_planes(arr, 0, 1, wrap_horizontal=True)
        assert wrapped[0, 3] == arr[0, 0]
        clipped = oracles.shift_planes(arr, 0, 1, wrap_horizontal=False)
        assert clipped[0, 3] == 0.0


# Shapes where dilated taps clip, or wrap around the whole width, more than
# once, and one ordinary image.
TINY_SHAPES = [(1, 1), (2, 3), (3, 1), (4, 2), (3, 3), (1, 12), (8, 16)]


def plan_taps(valid, pixels, wrap):
    """(plan, columns): the plan of `valid` and the columns that pixels[i]
    reads at [k, i], for tap k of UNIT_OFFSETS + DILATED_OFFSETS, through the
    padded column map."""
    h, w = valid.shape
    plan = rvfe._stencils(valid, wrap)
    inner = np.arange((h + 4) * (w + 4)).reshape(h + 4, w + 4)[2:-2, 2:-2].ravel()
    steps = inner[np.asarray(pixels)] + np.concatenate(rvfe._tap_steps(w))
    return plan, plan[1][0].take(steps)


class TestNeighbourIndex:
    def test_outside_neighbours_get_the_zero_column(self):
        valid = np.ones((3, 4), dtype=bool)
        down, right = UNIT_OFFSETS.index((1, 0)), UNIT_OFFSETS.index((0, 1))
        _, index = plan_taps(valid, [8, 3], False)
        # Pixel 8 is (2, 0): its lower neighbour is outside; pixel 3 is
        # (0, 3): its right neighbour is outside unless columns wrap. Every
        # pixel is valid, so each is its own column and 12 is the zero one.
        np.testing.assert_array_equal(index[[down, right]], [[12, 7], [9, 12]])
        _, wrapped = plan_taps(valid, [3], True)
        np.testing.assert_array_equal(wrapped[right], [0])

    # Every tap of both stencils, as the conv block and the forward read it
    # and as the backward's windows read it, reads the shifted pixel's
    # column: the zero column exactly where that pixel is invalid or outside.
    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("shape", TINY_SHAPES + [(64, 2048)])
    def test_gather_matches_shifted_planes(self, shape, wrap):
        h, w = shape
        rng = np.random.default_rng([h * w, wrap])
        pixel_ids = np.arange(h * w).reshape(h, w)
        for valid in (np.ones(shape, dtype=bool), rng.random(shape) < 0.5):
            (centres, (padded, *_), *_), index = plan_taps(valid, pixel_ids.ravel(), wrap)
            arr = rng.normal(size=(2, h, w))
            cols = rvfe._columns(arr, centres)
            # Values stored at invalid pixels are never read.
            kept = np.where(valid, arr, 0.0)
            for k, (dh, dw) in enumerate(UNIT_OFFSETS + DILATED_OFFSETS):
                window = rvfe._window(padded, h, w, dh, dw)
                np.testing.assert_array_equal(window.ravel(), index[k])
                reach = oracles.shift_planes(valid, dh, dw, wrap)
                np.testing.assert_array_equal(window == len(centres), ~reach)
                np.testing.assert_array_equal(
                    centres[window[reach]], oracles.shift_planes(pixel_ids, dh, dw, wrap)[reach]
                )
                shifted = oracles.shift_planes(kept, dh, dw, wrap)
                gathered = cols[:, index[k]].reshape(2, h, w)
                assert gathered.tobytes() == shifted.tobytes(), (dh, dw)


class TestBasicBlock:
    def test_all_invalid_image_gives_zero(self):
        rng = np.random.default_rng(0)
        img = util.random_image(rng, 6, 8, density=0.0)
        params = util.random_basicblock_params(rng)
        out = basicblock_forward(img, params)
        assert not out.any()

    def test_zero_weights_and_shifts_give_zero(self):
        rng = np.random.default_rng(1)
        img = util.random_image(rng, 6, 8)
        zero = BasicBlockParams(
            conv1=np.zeros((6, 5, 3, 3)),
            scale1=np.ones(6),
            shift1=np.zeros(6),
            conv2=np.zeros((6, 6, 3, 3)),
            scale2=np.ones(6),
            shift2=np.zeros(6),
            proj=np.zeros((6, 5)),
        )
        out = basicblock_forward(img, zero)
        assert not out.any()

    def test_identity_config_returns_nonnegative_input(self):
        # Zero convolutions and an identity residual leave relu(x). Points in
        # the positive octant keep every plane nonnegative, so the output
        # planes equal the input planes exactly.
        rng = np.random.default_rng(2)
        h, w = 6, 8
        valid = rng.random((h, w)) < 0.7
        planes = np.zeros((5, h, w))
        planes[:3] = rng.uniform(0.5, 10.0, size=(3, h, w))
        planes[3] = rng.uniform(0.0, 1.0, size=(h, w))
        planes[4] = rng.uniform(0.5, 40.0, size=(h, w))
        planes *= valid
        img = RangeImage(util.make_sensor(h, w), planes, valid)
        identity = BasicBlockParams(
            conv1=np.zeros((5, 5, 3, 3)),
            scale1=np.ones(5),
            shift1=np.zeros(5),
            conv2=np.zeros((5, 5, 3, 3)),
            scale2=np.ones(5),
            shift2=np.zeros(5),
            proj=None,
        )
        out = basicblock_forward(img, identity)
        np.testing.assert_array_equal(out, img.channels)

    @pytest.mark.parametrize("wrap", [True, False])
    def test_matches_loop_oracle(self, wrap):
        rng = np.random.default_rng(3)
        img = util.random_image(rng, 8, 16)
        params = util.random_basicblock_params(rng, c_out=6)
        out = basicblock_forward(img, params, wrap_horizontal=wrap)

        x = img.channels
        valid = img.valid
        mask = valid.astype(np.float64)
        t = oracles.conv2d_masked(x, valid, params.conv1, np.zeros(6), wrap)
        t = oracles.relu(t * params.scale1[:, None, None] + params.shift1[:, None, None] * mask)
        t = oracles.conv2d_masked(t, valid, params.conv2, np.zeros(6), wrap)
        t = t * params.scale2[:, None, None] + params.shift2[:, None, None] * mask
        res = np.einsum("oi,ihw->ohw", params.proj, x)
        expected = oracles.relu(t + res) * mask
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_returns_planes_with_positive_zero_at_invalid_pixels(self):
        rng = np.random.default_rng(4)
        img = util.random_image(rng, 6, 8)
        out = basicblock_forward(img, util.random_basicblock_params(rng, c_out=7))
        assert out.shape == (7, 6, 8) and out.dtype == np.float64
        assert out[:, ~img.valid].tobytes() == bytes(8 * out[:, ~img.valid].size)
        assert out[:, img.valid].any()

    def test_rejects_feature_bearing_input(self):
        rng = np.random.default_rng(5)
        img = util.random_image(rng, 6, 8, n_feat=2)
        with pytest.raises(ValueError):
            basicblock_forward(img, util.random_basicblock_params(rng))

    def test_rejects_channel_mismatch(self):
        rng = np.random.default_rng(6)
        img = util.random_image(rng, 6, 8)
        params = util.random_basicblock_params(rng, c_out=6, c_in=4)
        with pytest.raises(ValueError):
            basicblock_forward(img, params)

    @pytest.mark.parametrize("c_out", [5, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zeros_at_invalid_pixels_give_same_bytes(self, seed, c_out):
        # Invalid pixels may hold -0.0 as well as +0.0; neither may reach
        # the output, through the convolutions or the residual.
        rng = np.random.default_rng([7, seed, c_out])
        img = util.random_image(rng, 6, 8, density=0.6)
        params = util.random_basicblock_params(rng, c_out=c_out)
        outs = [
            basicblock_forward(
                RangeImage(img.sensor, np.where(img.valid, img.channels, zero), img.valid),
                params,
            ).tobytes()
            for zero in (0.0, -0.0)
        ]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("c_in", [5, 32])
    @pytest.mark.parametrize("n", [7, 1041, 8193, 12290])
    def test_conv_in_column_blocks_matches_one_product_per_tap(self, n, c_in):
        # The convolution walks its columns in blocks of 4096: 7 and 1,041
        # columns fit one block, 8,193 and 12,290 take two or three whole
        # blocks and a last one of 1 or 2 columns. Every column matches one
        # product per tap over all n columns within criterion 3's 1e-12.
        rng = np.random.default_rng([n, c_in])
        cols = rng.standard_normal((c_in, n))
        weight = rng.standard_normal((32, c_in, 3, 3))
        index = rng.integers(0, n + 1, size=(9, n))
        padded = np.concatenate([cols, np.zeros((c_in, 1))], axis=1)
        expected = np.zeros((32, n))
        for k, (dh, dw) in enumerate(UNIT_OFFSETS):
            expected += weight[:, :, dh + 1, dw + 1] @ np.take(padded, index[k], axis=1)
        out = rvfe._conv3x3(cols, weight, index)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def branch_oracle(img, branch, dilation, wrap):
    offsets = [
        (dilation * dh, dilation * dw) for dh in (-1, 0, 1) for dw in (-1, 0, 1)
    ]
    return oracles.hdmk_branch(
        img.feature_planes,
        img.channels[:3],
        img.valid,
        offsets,
        branch.w1,
        branch.b1,
        branch.w2,
        branch.b2,
        branch.w_acc,
        branch.b_acc,
        wrap,
    )


class TestHdmkForward:
    def test_output_width_64(self):
        rng = np.random.default_rng(8)
        img = util.random_image(rng, 8, 16, n_feat=32)
        params = init_params(0, (32, 32, 64))
        out = hdmk_forward(img, params)
        assert out.plane_count - 5 == 64

    def test_zero_features_zero_acc_bias(self):
        rng = np.random.default_rng(9)
        img = util.random_image(rng, 8, 16, n_feat=3)
        img = img.with_features(np.zeros((3, 8, 16)))
        params = util.random_hdmk_params(rng, c_in=3)
        zeroed = HdMetaKernelParams(
            replace(params.branch1, b_acc=np.zeros(3)),
            replace(params.branch2, b_acc=np.zeros(3)),
        )
        out = hdmk_forward(img, zeroed)
        assert not out.feature_planes.any()

    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_gather_oracle(self, seed, wrap):
        rng = np.random.default_rng(seed)
        img = util.random_image(rng, 8, 16, n_feat=4)
        params = util.random_hdmk_params(rng, c_in=4, c_mid=5, c_out=6)
        out = hdmk_forward(img, params, wrap_horizontal=wrap)
        expected = np.concatenate(
            [
                branch_oracle(img, params.branch1, 1, wrap),
                branch_oracle(img, params.branch2, 2, wrap),
            ],
            axis=0,
        )
        np.testing.assert_allclose(out.feature_planes, expected, atol=1e-12)

    def test_values_at_invalid_pixels_never_leak(self):
        # Byte for byte: invalid pixels are read only as the zero column, so
        # not even the signs of the zeros stored there depend on them.
        for seed, junk in itertools.product((13, 26, 27), ((7e5, -3e6), (np.nan, np.inf))):
            rng = np.random.default_rng(seed)
            h, w = 8, 16
            valid = rng.random((h, w)) < 0.6
            feats = rng.normal(size=(4, h, w))
            coords = rng.uniform(-5, 5, size=(3, h, w))
            params = util.random_hdmk_params(rng, c_in=4)
            base = hdmk_forward_planes(feats, coords, valid, params)
            feats_junk = feats.copy()
            feats_junk[:, ~valid] = junk[0]
            coords_junk = coords.copy()
            coords_junk[:, ~valid] = junk[1]
            poisoned = hdmk_forward_planes(feats_junk, coords_junk, valid, params)
            assert base.tobytes() == poisoned.tobytes(), (seed, junk)

    def test_caller_arrays_stay_unmodified(self):
        # The kernel gathers its own pixel columns; the arrays the caller
        # passed are never written.
        rng = np.random.default_rng(24)
        h, w = 8, 16
        valid = rng.random((h, w)) < 0.6
        feats = rng.normal(size=(4, h, w))
        coords = rng.uniform(-5, 5, size=(3, h, w))
        feats[:, ~valid] = 7e5
        coords[:, ~valid] = -3e6
        inputs = (feats, coords, valid)
        before = [arr.tobytes() for arr in inputs]
        hdmk_forward_planes(feats, coords, valid, util.random_hdmk_params(rng, c_in=4))
        assert [arr.tobytes() for arr in inputs] == before

    def test_locality_radius_two(self):
        rng = np.random.default_rng(14)
        h, w = 8, 16
        img = util.random_image(rng, h, w, n_feat=3, density=1.0)
        params = util.random_hdmk_params(rng, c_in=3)
        out_a = hdmk_forward(img, params).feature_planes
        bumped = np.array(img.feature_planes)
        q = (4, 9)
        bumped[1, q[0], q[1]] += 1.0
        out_b = hdmk_forward(img.with_features(bumped), params).feature_planes
        changed = np.argwhere(np.any(out_a != out_b, axis=0))
        assert changed.size > 0
        for row, col in changed:
            dr = abs(int(row) - q[0])
            dc = abs(int(col) - q[1])
            dc = min(dc, w - dc)  # horizontal wrap
            assert max(dr, dc) <= 2

    def test_rejects_missing_features(self):
        rng = np.random.default_rng(15)
        img = util.random_image(rng, 6, 8, n_feat=0)
        with pytest.raises(ValueError):
            hdmk_forward(img, util.random_hdmk_params(rng, c_in=4))

    def test_rejects_plane_count_other_than_c_in(self):
        rng = np.random.default_rng(15)
        img = util.random_image(rng, 6, 8, n_feat=3)
        params = util.random_hdmk_params(rng, c_in=4)
        args = (img.feature_planes, img.channels[:3], img.valid, params)
        message = r"^features must be \(c_in=4, 6, 8\), got \(3, 6, 8\)$"
        with pytest.raises(ValueError, match=message):
            hdmk_forward_planes(*args)
        with pytest.raises(ValueError, match=message):
            hdmk_forward(img, params)
        with pytest.raises(ValueError, match=message):
            hdmk_backward(img, params, np.zeros((params.c_out, 6, 8)))

    def test_rejects_mask_that_is_not_two_dimensional(self):
        rng = np.random.default_rng(15)
        img = util.random_image(rng, 6, 8, n_feat=4)
        params = util.random_hdmk_params(rng, c_in=4)
        message = r"^valid mask must be \(h, w\), got shape \(1, 6, 8\)$"
        with pytest.raises(ValueError, match=message):
            hdmk_forward_planes(img.feature_planes, img.channels[:3], img.valid[None], params)


MASKS = ["none", "one", "last", 0.15, 0.85, "all"]


def masked_image(rng, shape, mask, n_feat):
    """Random image whose valid mask is empty, one pixel, random or full."""
    h, w = shape
    valid = np.zeros(shape, dtype=bool)
    if mask == "one":
        valid[rng.integers(h), rng.integers(w)] = True
    elif mask == "last":
        valid[-1, -1] = True
    elif mask == "all":
        valid[:] = True
    elif mask != "none":
        valid = rng.random(shape) < mask
    img = util.random_image(rng, h, w, n_feat=n_feat, density=1.0)
    return RangeImage(img.sensor, img.channels * valid, valid)


def dense_block_planes(img, params, wrap):
    return img.with_features(
        oracles.dense_basicblock(img.channels, img.valid, params, wrap)
    ).feature_planes


def assert_matches_dense(out, expected, valid):
    """(c, h, w) layer output against the dense formula: within criterion
    3's 1e-12 at valid pixels, and byte for byte at invalid ones, where the
    meta kernel's zero carries the sign of the dense value and RRI1 files
    keep it."""
    np.testing.assert_allclose(out[:, valid], expected[:, valid], rtol=0, atol=1e-12)
    assert out[:, ~valid].tobytes() == expected[:, ~valid].tobytes()


def assert_hdmk_matches_dense(feats, coords, valid, params, wrap):
    """`hdmk_forward_planes` against the dense formula
    (`assert_matches_dense`); returns its output."""
    args = (feats, coords, valid, params, wrap)
    out = hdmk_forward_planes(*args)
    assert_matches_dense(out, oracles.dense_hdmk_forward_planes(*args), valid)
    return out


PIPELINE_SHAPES = [(16, 60), (5, 13), (6, 11), (9, 13)]


class TestDenseByteIdentity:
    """Sparse evaluation against the dense formula: valid pixels within
    1e-12, invalid pixels byte for byte (`assert_matches_dense`)."""

    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("shape", TINY_SHAPES)
    def test_meta_kernel(self, shape, mask, wrap):
        rng = np.random.default_rng([*shape, MASKS.index(mask), wrap])
        img = masked_image(rng, shape, mask, n_feat=4)
        params = util.random_hdmk_params(rng, c_in=4, c_mid=5, c_out=6)
        assert_hdmk_matches_dense(img.feature_planes, img.channels[:3], img.valid, params, wrap)

    @pytest.mark.parametrize("c_out", [5, 6])
    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("shape", TINY_SHAPES)
    def test_basic_block(self, shape, mask, wrap, c_out):
        rng = np.random.default_rng([*shape, MASKS.index(mask), wrap, c_out])
        img = masked_image(rng, shape, mask, n_feat=0)
        params = util.random_basicblock_params(rng, c_out=c_out)
        out = basicblock_forward(img, params, wrap)
        assert_matches_dense(out, dense_block_planes(img, params, wrap), img.valid)

    # The pipeline's layers and dims on the widths of its tests.
    @pytest.mark.parametrize("shape", PIPELINE_SHAPES)
    def test_pipeline_widths(self, shape):
        self.check_pipeline_layers(list(shape), shape, 0.15, True)

    # Images of over 1,000 pixels, fully and 30% valid, on which the layers'
    # f64 bytes can differ from the dense formula's in the last bit.
    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("mask", [0.3, "all"])
    @pytest.mark.parametrize("shape", [(33, 33), (41, 49), (65, 65)])
    def test_pipeline_layers_on_larger_shapes(self, shape, mask, wrap):
        self.check_pipeline_layers([*shape, mask == "all", wrap], shape, mask, wrap)

    @staticmethod
    def check_pipeline_layers(seed, shape, mask, wrap):
        """The conv block and the meta kernel at the pipeline's dims on a
        masked image, the meta kernel reading the conv block's output."""
        rng = np.random.default_rng(seed)
        img = masked_image(rng, shape, mask, n_feat=0)
        block = init_basicblock(0, 32)
        out = basicblock_forward(img, block, wrap)
        assert_matches_dense(out, dense_block_planes(img, block, wrap), img.valid)
        params = init_params(0, (32, 32, 64))
        assert_hdmk_matches_dense(out, img.channels[:3], img.valid, params, wrap)

    # Blocks of 8 or 16 centres split even these supports, so products start
    # mid-support.
    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("shape", TINY_SHAPES)
    def test_meta_kernel_in_column_blocks(self, shape, mask, wrap, width, monkeypatch):
        monkeypatch.setattr(rvfe, "_COLUMN_BLOCK", width)
        self.test_meta_kernel(shape, mask, wrap)

    # With every pixel valid, the 65, 66 and 117 centres of the last three
    # shapes end in a last block of 1, 2 or 5 centres.
    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize("mask", [0.15, "all"])
    @pytest.mark.parametrize("shape", PIPELINE_SHAPES)
    def test_pipeline_widths_in_column_blocks(self, shape, mask, width, monkeypatch):
        monkeypatch.setattr(rvfe, "_COLUMN_BLOCK", width)
        rng = np.random.default_rng([*shape, width])
        img = masked_image(rng, shape, mask, n_feat=32)
        params = init_params(0, (32, 32, 64))
        assert_hdmk_matches_dense(img.feature_planes, img.channels[:3], img.valid, params, True)

    # No patched width: each branch's support spans three blocks of the
    # shipped width and ends in a partial one.
    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("dims", [(4, 5, 6), (32, 32, 64)])
    def test_meta_kernel_at_the_shipped_block_width(self, dims, wrap):
        rng = np.random.default_rng([*dims, wrap])
        img = masked_image(rng, (37, 41), 0.3, n_feat=dims[0])
        for support in rvfe._stencils(img.valid, wrap)[2:]:
            assert len(support) > 2 * rvfe._COLUMN_BLOCK
            assert len(support) % rvfe._COLUMN_BLOCK
        params = init_params(0, dims)
        assert_hdmk_matches_dense(img.feature_planes, img.channels[:3], img.valid, params, wrap)

    def test_negative_zero_bias(self):
        # Weight files may hold -0.0. Far from valid pixels the dense output
        # is (+0 product) + b_acc, which is +0 for such a bias.
        rng = np.random.default_rng(22)
        img = masked_image(rng, (8, 16), "one", n_feat=4)
        params = util.random_hdmk_params(rng, c_in=4, c_mid=5, c_out=6)
        params = HdMetaKernelParams(
            replace(params.branch1, b_acc=np.array([-0.0, 0.1, -0.0])),
            params.branch2,
        )
        assert_hdmk_matches_dense(img.feature_planes, img.channels[:3], img.valid, params, True)

    @pytest.mark.parametrize("wrap", [True, False])
    def test_signed_zeros_of_every_bias_sign(self, wrap):
        # Accumulator biases of +0, -0, negative and positive sign, on a
        # sparse mask whose supports hold invalid pixels, and on the gradient
        # check's mask, whose supports cover every pixel, invalid ones too.
        # Off the support the output is the bias plus +0, times zero; at an
        # invalid pixel on it, the block's own value times zero.
        rng = np.random.default_rng([23, wrap])
        sparse = masked_image(rng, (8, 16), 0.1, n_feat=4)
        params = util.random_hdmk_params(rng, c_in=4, c_mid=5, c_out=8)
        b_acc = np.array([0.0, -0.0, -0.05, 0.07])
        params = HdMetaKernelParams(
            *(replace(b, b_acc=b_acc) for b in (params.branch1, params.branch2))
        )
        gradcheck = gradcheck_instance(0, GRADCHECK_DIMS)[0]
        for img, covered in ((sparse, False), (gradcheck, True)):
            for support in rvfe._stencils(img.valid, wrap)[2:]:
                assert not img.valid.ravel()[support].all()
                assert (len(support) == img.valid.size) == covered
            out = assert_hdmk_matches_dense(
                img.feature_planes, img.channels[:3], img.valid, params, wrap
            )
            signs = np.signbit(out[:, ~img.valid])
            assert signs.any() and not signs.all()

    def test_invalid_pixels_keep_the_dense_sign(self):
        rng = np.random.default_rng(20)
        img = masked_image(rng, (8, 16), 0.15, n_feat=4)
        params = util.random_hdmk_params(rng, c_in=4, c_mid=5, c_out=6)
        out = hdmk_forward_planes(img.feature_planes, img.channels[:3], img.valid, params)
        signs = np.signbit(out[:, ~img.valid])
        assert not out[:, ~img.valid].any()
        assert signs.any() and not signs.all()


def layer_bytes(valid, wrap):
    """Output bytes of the conv block and the meta kernel on mask `valid`."""
    h, w = valid.shape
    rng = np.random.default_rng([h, w])
    img = util.random_image(rng, h, w, n_feat=4, density=1.0)
    raw = RangeImage(img.sensor, img.channels[:5] * valid, valid)
    block = basicblock_forward(raw, util.random_basicblock_params(rng), wrap)
    params = util.random_hdmk_params(rng, c_in=4, c_mid=5, c_out=6)
    meta = hdmk_forward_planes(img.feature_planes, img.channels[:3], valid, params, wrap)
    return block.tobytes() + meta.tobytes()


class TestStencilPlan:
    """The layers share one cached plan per (shape, wrap flag, mask bytes)."""

    def test_interleaved_masks_match_fresh_plans(self):
        # Three valid pixels, so that the supports differ between the shapes
        # and with the wrap flag; a stale plan shows in the signed zeros.
        valid = np.zeros(24, dtype=bool)
        valid[[0, 11, 15]] = True
        cases = [
            (valid.reshape(4, 6), True),
            (valid.reshape(6, 4), True),
            (valid.reshape(4, 6), False),
        ]
        fresh = []
        for case in cases:
            rvfe._stencil_plan.cache_clear()
            fresh.append(layer_bytes(*case))
        for before, case in itertools.permutations(range(3), 2):
            layer_bytes(*cases[before])
            assert layer_bytes(*cases[case]) == fresh[case], (before, case)

    @pytest.mark.parametrize(
        "as_mask",
        [
            lambda v: v.astype(np.uint8),
            lambda v: v.astype(np.int64),
            lambda v: v.astype(np.float64),
            lambda v: v * 2.5,
            np.asfortranarray,
        ],
        ids=["uint8", "int64", "float64", "scaled float64", "fortran"],
    )
    def test_mask_dtype_and_order_give_the_bool_bytes(self, as_mask):
        rng = np.random.default_rng(4)
        img = masked_image(rng, (4, 6), 0.5, n_feat=4)
        params = util.random_hdmk_params(rng, c_in=4, c_mid=5, c_out=6)
        args = (img.feature_planes, img.channels[:3])
        mask = as_mask(img.valid)
        rvfe._stencil_plan.cache_clear()
        expected = hdmk_forward_planes(*args, img.valid, params).tobytes()
        assert hdmk_forward_planes(*args, mask, params).tobytes() == expected
        rvfe._stencil_plan.cache_clear()
        assert hdmk_forward_planes(*args, mask, params).tobytes() == expected

    # The supports come from dilating the mask; the reflected-offset formula
    # they were first built with gives the same pixels.
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("shape", TINY_SHAPES + [(64, 2048)])
    def test_supports_match_reflected_offsets(self, shape, wrap, density):
        rng = np.random.default_rng([*shape, wrap, int(10 * density)])
        valid = rng.random(shape) < density
        supports = rvfe._stencils(valid, wrap)[2:]
        for support, offsets in zip(supports, (UNIT_OFFSETS, DILATED_OFFSETS)):
            reach = oracles.support_by_reflected_offsets(valid, offsets, wrap)
            np.testing.assert_array_equal(support, np.flatnonzero(reach))

    def test_plan_arrays_are_read_only(self):
        # No mask with an outside entry: the padded column map alone marks
        # invalid and outside pixels, by its zero column, on a margin as wide
        # as the largest offset.
        valid = np.eye(4, 6, dtype=bool)
        assert rvfe._PAD == 2
        for wrap in (True, False):
            centres, (padded, *ids), *supports = rvfe._stencils(valid, wrap)
            arrays = [centres, padded, *ids, *supports]
            assert all(a.dtype == np.int64 and not a.flags.writeable for a in arrays)
            # Valid pixels in row-major order, and supports without a
            # repeated or unordered pixel.
            np.testing.assert_array_equal(centres, np.flatnonzero(valid))
            assert all((np.diff(support) > 0).all() for support in supports)
            assert padded.shape == ((4 + 4) * (6 + 4),)
            # Each centre list's indices on the padded grid.
            inner = np.arange(8 * 10).reshape(8, 10)[2:-2, 2:-2].ravel()
            for pixels, at in zip((centres, *supports), ids, strict=True):
                np.testing.assert_array_equal(at, inner[pixels])
            grid = padded.reshape(8, 10)
            zero = len(centres)
            inside = grid[2:-2, 2:-2]
            np.testing.assert_array_equal(inside == zero, ~valid)
            np.testing.assert_array_equal(centres[inside[valid]], np.flatnonzero(valid))
            assert (grid[:2] == zero).all() and (grid[-2:] == zero).all()
            if wrap:
                np.testing.assert_array_equal(grid[2:-2, :2], inside[:, -2:])
                np.testing.assert_array_equal(grid[2:-2, -2:], inside[:, :2])
            else:
                assert (grid[:, :2] == zero).all() and (grid[:, -2:] == zero).all()

    def test_plan_holds_no_per_tap_arrays(self):
        # The scan workload's count of valid pixels. The plan may hold the
        # padded map and two arrays per centre list; nine cached tap columns
        # per support pixel would need several times that.
        h, w = 64, 2048
        valid = np.zeros(h * w, dtype=bool)
        valid[np.random.default_rng(27).choice(h * w, 35_863, replace=False)] = True
        centres, grid, *supports = rvfe._stencils(valid.reshape(h, w), True)
        listed = len(centres) + sum(map(len, supports))
        held = sum(a.nbytes for a in (centres, *grid, *supports))
        assert held <= 8 * ((h + 4) * (w + 4) + 2 * listed)

    def test_gradcheck_builds_one_plan(self):
        # 168 forward calls, each over a stack of perturbations, and a
        # backward on one mask.
        rvfe._stencil_plan.cache_clear()
        run_gradcheck()
        assert rvfe._stencil_plan.cache_info().misses == 1


def hdmk_peak_on_a_scan(seed, n_valid):
    """(tracemalloc peak, output bytes) of the meta kernel on a 64x2048
    image with n_valid valid pixels at random places."""
    h, w = 64, 2048
    rng = np.random.default_rng(seed)
    valid = np.zeros(h * w, dtype=bool)
    valid[rng.choice(h * w, n_valid, replace=False)] = True
    valid = valid.reshape(h, w)
    feats = rng.normal(size=(32, h, w)) * valid
    coords = rng.uniform(-50.0, 50.0, size=(3, h, w)) * valid
    params = init_params(0, (32, 32, 64))
    tracemalloc.start()
    try:
        out = hdmk_forward_planes(feats, coords, valid, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 * params.c_out * h * w
    return peak, out.nbytes


class TestForwardMemory:
    def test_peak_scales_with_valid_pixels(self):
        # A 64x2048 scan with 500 valid pixels. The dense evaluation held
        # about 23 times the output's bytes; the support-only one holds the
        # flattened inputs and the output, under twice the output's bytes.
        peak, out_bytes = hdmk_peak_on_a_scan(21, 500)
        assert peak < 3 * out_bytes

    def test_peak_at_scan_density(self):
        # The scan workload's count of valid pixels, scattered so that each
        # branch's support is nearly the whole image. The column blocks hold
        # a fixed working set; one chunk matrix over the support held about
        # ten times the output's bytes.
        peak, out_bytes = hdmk_peak_on_a_scan(25, 35_863)
        assert peak < 3 * out_bytes

    def test_a_block_frees_its_arrays_before_the_next(self):
        # A 64x128 image, 30% valid, whose supports span 16 blocks. Beyond
        # the output and the gathered feature and coordinate columns, the
        # call holds one block's tap arrays: neighbour features, deltas,
        # hidden units, gates and gated chunks, about 1.05 times their
        # bytes. Keeping a block's chunks and accumulator alive into the
        # next block held about 1.30 times.
        rng = np.random.default_rng(34)
        img = util.random_image(rng, 64, 128, density=0.3, n_feat=32)
        params = init_params(0, (32, 32, 64))
        feats, coords = img.feature_planes, img.channels[:3]
        # The plan is built, and cached, outside the trace.
        for support in rvfe._stencils(img.valid, True)[2:]:
            assert len(support) > 8 * rvfe._COLUMN_BLOCK
        tracemalloc.start()
        try:
            out = hdmk_forward_planes(feats, coords, img.valid, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = out.nbytes + 8 * (params.c_in + 3) * (img.valid.sum() + 1)
        block = 8 * 9 * rvfe._COLUMN_BLOCK * (3 * params.c_in + 3 + params.c_mid)
        assert peak - held < 1.15 * block

    def test_hdmk_forward_holds_one_image(self):
        # The call fills the image it returns: about 1.43 times the image's
        # bytes with the plan cached, as the conv block leaves it in the
        # redeem stage. Evaluating into a 64-plane array of its own and then
        # stacking a 69-plane copy from it held about 2.05 times.
        rng = np.random.default_rng(33)
        img = util.random_image(rng, 64, 512, density=0.3, n_feat=32)
        params = init_params(0, (32, 32, 64))
        planes = hdmk_forward_planes(img.feature_planes, img.channels[:3], img.valid, params)
        tracemalloc.start()
        try:
            out = hdmk_forward(img, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * out.channels.nbytes
        assert not out.channels.flags.writeable
        assert out.channels[:5].tobytes() == img.channels[:5].tobytes()
        assert out.feature_planes.tobytes() == planes.tobytes()

    def test_basic_block_peak_scales_with_valid_pixels(self):
        # The same scan through the conv block. Every step runs on the 500
        # valid columns; what remains is the 32 planes gathered back through
        # the column map, about 1.08 times their bytes with the plan built
        # in the call. Stacking the 37-plane image from them as well held
        # 2.35 times; scattering into zeroed planes, then stacking them in a
        # buffer of `with_features`' own before the constructor's copy held
        # about 3.5 times; running the affine, ReLU and residual steps over
        # full planes held about 6.5 times.
        h, w = 64, 2048
        rng = np.random.default_rng(23)
        valid = np.zeros(h * w, dtype=bool)
        valid[rng.choice(h * w, 500, replace=False)] = True
        valid = valid.reshape(h, w)
        img = util.random_image(rng, h, w, density=1.0)
        img = RangeImage(img.sensor, img.channels * valid, valid)
        block = init_basicblock(0, 32)
        out_bytes = 8 * block.c_out * h * w
        rvfe._stencil_plan.cache_clear()
        tracemalloc.start()
        try:
            out = basicblock_forward(img, block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == out_bytes
        assert peak < 1.2 * out_bytes

    def test_conv_working_set_is_fixed(self):
        # One 3x3 convolution over the scan's 35,863 columns. Beyond the
        # zero-padded input and the output it holds one tap's gather and
        # product of 4,096 columns: about 2.23 times the output's bytes.
        # Merging the last block into one of up to 8,191 columns held 2.4
        # times; a gather and a product over all columns per tap held 4
        # times.
        rng = np.random.default_rng(26)
        n = 35_863
        cols = rng.standard_normal((32, n))
        weight = rng.standard_normal((32, 32, 3, 3))
        index = rng.integers(0, n + 1, size=(9, n))
        tracemalloc.start()
        try:
            out = rvfe._conv3x3(cols, weight, index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.3 * out.nbytes


class TestBackwardMemory:
    def test_peak_is_linear_in_channels_times_pixels(self):
        # A 64x512 image with 27% of its pixels valid. The nine taps of both
        # branches run one at a time, about 8.6 times the image's bytes;
        # keeping every tap's arrays and the (9 * c_in, h * w) chunk
        # matrices of a branch alive at once held about 69 times.
        rng = np.random.default_rng(29)
        img = util.random_image(rng, 64, 512, n_feat=32, density=0.27)
        params = init_params(0, (32, 32, 64))
        upstream = rng.normal(size=(params.c_out, 64, 512))
        tracemalloc.start()
        try:
            grads = hdmk_backward(img, params, upstream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grads.feat.shape == (32, 64, 512)
        assert peak < 16 * img.channels.nbytes

    def test_a_tap_frees_its_arrays_before_the_next(self):
        # A 64x128 image, 30% valid. Beyond the masked upstream gradient, the
        # feature, coordinate and feature-gradient columns and the centres'
        # coordinates, the call holds one tap's arrays at every pixel:
        # neighbour features, deltas, hidden units, gates, gated chunks and
        # the chunk, gate and pre-activation gradients, about 1.04 times
        # their bytes. Keeping a tap's arrays alive into the next tap held
        # about 1.59 times, and keeping only its gradients about 1.30.
        rng = np.random.default_rng(34)
        img = util.random_image(rng, 64, 128, density=0.3, n_feat=32)
        params = init_params(0, (32, 32, 64))
        upstream = rng.normal(size=(params.c_out, 64, 128))
        # The plan is built, and cached, outside the trace.
        rvfe._stencils(img.valid, True)
        tracemalloc.start()
        try:
            hdmk_backward(img, params, upstream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        c_in, c_mid, n_px = params.c_in, params.c_mid, img.valid.size
        held = 8 * ((params.c_out + 3) * n_px + (2 * c_in + 3) * (img.valid.sum() + 1))
        tap = 8 * n_px * (5 * c_in + 3 + 2 * c_mid)
        assert peak - held < 1.2 * tap


class TestColumnBlocks:
    @pytest.mark.parametrize("width", [16, 4096])
    def test_blocks_tile_the_columns_within_the_width(self, width):
        near_edges = [k * width + r for k in (1, 2, 3) for r in range(-9, 18)]
        for n in [*range(40), *near_edges]:
            blocks = rvfe._column_blocks(n, width)
            edges = [start for start, _ in blocks] + [n]
            assert edges[0] == 0 and blocks == list(zip(edges, edges[1:]))
            assert all(0 < stop - start <= width for start, stop in blocks)
            # Every block but the last is whole.
            assert all(stop - start == width for start, stop in blocks[:-1])


def flatten_params(params):
    """Deterministic parameter slice list: (label, array, setter path)."""
    out = []
    for b_name in ("branch1", "branch2"):
        branch = getattr(params, b_name)
        for t_name in ("w1", "b1", "w2", "b2", "w_acc", "b_acc"):
            out.append((f"{b_name}.{t_name}", getattr(branch, t_name)))
    return out


def rebuild_params(params, values):
    from rvredeem.rvfe import BranchParams

    tensors = dict(values)
    branches = []
    for b_name in ("branch1", "branch2"):
        branches.append(
            BranchParams(
                **{
                    t: tensors[f"{b_name}.{t}"]
                    for t in ("w1", "b1", "w2", "b2", "w_acc", "b_acc")
                }
            )
        )
    return HdMetaKernelParams(*branches)


def grad_tolerance_check(analytic, fd):
    # Relative 1e-4 wherever the gradient is meaningfully sized, with an
    # absolute fallback at the finite-difference noise floor.
    gap = np.abs(analytic - fd)
    ok = gap <= np.maximum(1e-4 * np.maximum(np.abs(analytic), np.abs(fd)), 1e-7)
    assert ok.all(), f"worst gap {gap.max()}"


class TestHdmkBackward:
    def setup_instance(self, seed=16, h=5, w=6, c_in=3, c_mid=4, c_out=4):
        rng = np.random.default_rng(seed)
        img = util.random_image(rng, h, w, n_feat=c_in)
        params = util.random_hdmk_params(rng, c_in=c_in, c_mid=c_mid, c_out=c_out)
        upstream = rng.normal(size=(c_out, h, w))
        return img, params, upstream

    def loss(self, img, params, upstream):
        out = hdmk_forward(img, params).feature_planes
        return float(np.sum(upstream * out))

    def test_zero_upstream_gives_zero_grads(self):
        img, params, upstream = self.setup_instance()
        grads = hdmk_backward(img, params, np.zeros_like(upstream))
        assert not grads.feat.any()
        for _, g in flatten_params(grads.params):
            assert not g.any()

    def test_feature_gradient_matches_finite_differences(self):
        img, params, upstream = self.setup_instance()
        grads = hdmk_backward(img, params, upstream)
        feats0 = np.array(img.feature_planes)

        def f(flat):
            return self.loss(
                img.with_features(flat.reshape(feats0.shape) * img.valid), params, upstream
            )

        fd = oracles.finite_difference(f, feats0.copy().ravel()).reshape(feats0.shape)
        # Invalid pixels are structurally zero: no gradient may appear there.
        assert not grads.feat[:, ~img.valid].any()
        grad_tolerance_check(grads.feat[:, img.valid], fd[:, img.valid])

    def test_parameter_gradients_match_finite_differences(self):
        img, params, upstream = self.setup_instance()
        grads = hdmk_backward(img, params, upstream)
        base = flatten_params(params)
        grad_map = dict(flatten_params(grads.params))
        for label, tensor in base:
            def f(flat, label=label, tensor=tensor):
                values = [
                    (n, flat.reshape(tensor.shape) if n == label else t)
                    for n, t in base
                ]
                return self.loss(img, rebuild_params(params, values), upstream)

            fd = oracles.finite_difference(f, tensor.copy().ravel())
            grad_tolerance_check(grad_map[label].ravel(), fd)

    def test_shape_mismatch_rejected(self):
        img, params, upstream = self.setup_instance()
        with pytest.raises(ValueError):
            hdmk_backward(img, params, upstream[:, :-1])

    # Gradient bytes recorded before the forward's taps were stacked: the
    # backward shares their helper, one tap at a time.
    @pytest.mark.parametrize(
        "shape, dims, wrap, seed, expected",
        [
            ((9, 13), (4, 5, 6), False, 31,
             "6b40fac3199c3937f259933c647e94c59a106c119b968007d45988171e3c1463"),
            ((16, 60), (32, 32, 64), True, 32,
             "f5916968860e51bc2039e2944a14e50f49b2f6b29aeaf5178f7208d7253bc7d7"),
        ],
    )
    def test_gradient_bytes_match_recorded(self, shape, dims, wrap, seed, expected):
        rng = np.random.default_rng(seed)
        img = util.random_image(rng, *shape, n_feat=dims[0], density=0.4)
        params = init_params(0, dims)
        upstream = rng.normal(size=(dims[2], *shape))
        grads = hdmk_backward(img, params, upstream, wrap)
        digest = hashlib.sha256(grads.feat.tobytes())
        for tensor in grads.params.tensors().values():
            digest.update(tensor.tobytes())
        assert digest.hexdigest() == expected

    def test_backward_is_deterministic(self):
        img, params, upstream = self.setup_instance()
        a = hdmk_backward(img, params, upstream)
        b = hdmk_backward(img, params, upstream)
        np.testing.assert_array_equal(a.feat, b.feat)
        for (_, ga), (_, gb) in zip(flatten_params(a.params), flatten_params(b.params)):
            np.testing.assert_array_equal(ga, gb)


GRADCHECK_SLICES = ["feat", *init_params(0, GRADCHECK_DIMS).tensors()]


class TestBatchedGradcheck:
    def test_losses_match_one_call_per_element(self):
        # Every element of every tensor of the seed-0 instance, both signs.
        assert util.gradcheck_loss_mismatches(0, GRADCHECK_DIMS) == []

    def test_pipeline_dims_on_sampled_elements(self):
        # The `gradcheck --input` path on the pipeline's weights: 20
        # elements of each tensor, in three groups of at most 8.
        assert util.gradcheck_loss_mismatches(0, (32, 32, 64), 20) == []

    def test_losses_match_under_another_kernel(self):
        # OpenBLAS picks its kernel per CPU; Prescott runs on any x86-64.
        code = (
            "import util\n"
            "print(util.gradcheck_loss_mismatches(0, (4, 6, 8))\n"
            "      + util.gradcheck_loss_mismatches(0, (32, 32, 64), 20))\n"
        )
        assert util.run_under_kernel(code, "Prescott").strip() == "[]"

    @pytest.mark.parametrize("target", GRADCHECK_SLICES)
    def test_one_scaled_gradient_entry_fails_its_slice_only(self, target, monkeypatch):
        # The largest entry of one analytic slice scaled by 1.01: only that
        # slice's finite differences may disagree.
        def scaled(*args):
            grads = hdmk_backward(*args)
            value = {"feat": grads.feat, **grads.params.tensors()}[target].copy()
            value.flat[np.argmax(np.abs(value))] *= 1.01
            if target == "feat":
                return replace(grads, feat=value)
            return replace(grads, params=grads.params.with_tensor(target, value))

        monkeypatch.setattr(pipeline, "hdmk_backward", scaled)
        ok, reports = run_gradcheck()
        assert not ok
        assert [report["slice"] for report in reports if not report["ok"]] == [target]

    @pytest.mark.parametrize("name", ["feat", "branch1.w1", "branch1.b1", "branch2.b_acc"])
    def test_stacked_forward_matches_one_call_per_index(self, name):
        # A 30% valid 40x30 image: each branch's support spans several
        # blocks, not all of consecutive pixels.
        rng = np.random.default_rng(71)
        img = util.random_image(rng, 40, 30, n_feat=4, density=0.3)
        params = util.random_hdmk_params(rng, c_in=4, c_mid=5, c_out=6)
        feats, coords = img.feature_planes, img.channels[:3]
        base = feats if name == "feat" else params.tensors()[name]
        stack = base + rng.normal(scale=0.1, size=(3, *base.shape))
        if name == "feat":
            out = hdmk_forward_planes(stack, coords, img.valid, params)
            ones = [hdmk_forward_planes(one, coords, img.valid, params) for one in stack]
        else:
            out = hdmk_forward_planes(feats, coords, img.valid, params.with_tensor(name, stack))
            ones = [
                hdmk_forward_planes(feats, coords, img.valid, params.with_tensor(name, one))
                for one in stack
            ]
        assert out.shape == (3, 6, 40, 30)
        assert out.tobytes() == np.array(ones).tobytes()


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params(42, (4, 5, 6))
        b = init_params(42, (4, 5, 6))
        for (_, ta), (_, tb) in zip(flatten_params(a), flatten_params(b)):
            assert np.array_equal(ta, tb)

    def test_different_seeds_differ(self):
        a = init_params(1, (4, 5, 6))
        b = init_params(2, (4, 5, 6))
        assert not np.array_equal(a.branch1.w1, b.branch1.w1)

    def test_odd_output_width_rejected(self):
        with pytest.raises(ValueError):
            init_params(0, (4, 5, 63))

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError):
            init_params(0, (0, 5, 6))

    def test_bounds_and_single_precision_grid(self):
        params = init_params(7, (4, 5, 6))
        import math as m

        limits = {
            "w1": m.sqrt(6.0 / (3 + 5)),
            "b1": 0.1,
            "w2": m.sqrt(6.0 / (5 + 4)),
            "b2": 0.1,
            "w_acc": m.sqrt(6.0 / (9 * 4 + 3)),
            "b_acc": 0.1,
        }
        for label, tensor in flatten_params(params):
            name = label.split(".")[1]
            assert np.all(np.abs(tensor) <= limits[name])
            assert np.all(np.isfinite(tensor))
            np.testing.assert_array_equal(
                tensor, tensor.astype(np.float32).astype(np.float64)
            )

    def test_with_tensor_replaces_one_frozen_copy(self):
        params = init_params(3, (4, 5, 6))
        value = np.full((5, 3), 0.5)
        changed = params.with_tensor("branch2.w1", value)
        value[0, 0] = 9.0
        assert changed.branch1 is params.branch1
        for name, tensor in changed.tensors().items():
            expected = 0.5 if name == "branch2.w1" else params.tensors()[name]
            np.testing.assert_array_equal(tensor, expected)
            assert not tensor.flags.writeable
        with pytest.raises(KeyError, match="branch2.w3"):
            params.with_tensor("branch2.w3", value)
        with pytest.raises(ValueError, match="first layer"):
            params.with_tensor("branch1.w1", np.zeros((5, 4)))

    def test_with_tensor_stacks_values_on_leading_axes(self):
        # The dims come off the trailing axes; the other tensors stay.
        params = init_params(3, (4, 5, 6))
        stacked = params.with_tensor("branch2.b_acc", np.full((7, 3), 0.5))
        assert stacked.lead == (7,) and params.lead == ()
        assert (stacked.c_in, stacked.c_mid, stacked.c_out) == (4, 5, 6)
        assert stacked.branch1 is params.branch1
        np.testing.assert_array_equal(stacked.branch2.w_acc, params.branch2.w_acc)
        np.testing.assert_array_equal(stacked.branch2.b_acc, np.full((7, 3), 0.5))
        for bad in (np.zeros((7, 5, 4)), np.zeros(3)):
            with pytest.raises(ValueError, match="first layer"):
                params.with_tensor("branch1.w1", bad)
        with pytest.raises(ValueError, match="broadcast"):
            stacked.with_tensor("branch2.b2", np.zeros((2, 4)))
        img, _, upstream = gradcheck_instance(3, (4, 5, 6))
        with pytest.raises(ValueError, match="one kernel"):
            hdmk_backward(img, stacked, upstream)

    def test_basicblock_init(self):
        a = init_basicblock(3, 8)
        b = init_basicblock(3, 8)
        np.testing.assert_array_equal(a.conv1, b.conv1)
        assert a.proj.shape == (8, 5)
        assert init_basicblock(3, 5).proj is None
        np.testing.assert_array_equal(
            a.conv2, a.conv2.astype(np.float32).astype(np.float64)
        )
