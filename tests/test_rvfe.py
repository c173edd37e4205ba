"""Sampling offsets, BasicBlock, and the dynamic meta kernel."""

import itertools
import tracemalloc

import numpy as np
import pytest

import oracles
import util
from rvredeem import rvfe
from rvredeem.core import RangeImage
from rvredeem.pipeline import run_gradcheck
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
    neighbour_index,
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
# once; two whose pixels do not fill whole blocks of 8 (the "last" mask puts
# all of a 1x12 image's support past its last whole block); and one
# ordinary image.
TINY_SHAPES = [(1, 1), (2, 3), (3, 1), (4, 2), (3, 3), (1, 12), (8, 16)]


class TestNeighbourIndex:
    def test_outside_neighbours_get_the_zero_column(self):
        index = neighbour_index(3, 4, [(1, 0), (0, 1)], np.array([8, 3]), False)
        # Pixel 8 is (2, 0): its lower neighbour is outside; pixel 3 is
        # (0, 3): its right neighbour is outside unless columns wrap.
        np.testing.assert_array_equal(index, [[12, 7], [9, 12]])
        wrapped = neighbour_index(3, 4, [(0, 1)], np.array([3]), True)
        np.testing.assert_array_equal(wrapped, [[0]])

    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("shape", TINY_SHAPES)
    def test_gather_matches_shifted_planes(self, shape, wrap):
        h, w = shape
        arr = np.random.default_rng(h * w).normal(size=(2, h, w))
        padded = np.concatenate([arr.reshape(2, h * w), np.zeros((2, 1))], axis=1)
        offsets = UNIT_OFFSETS + DILATED_OFFSETS
        index = neighbour_index(h, w, offsets, np.arange(h * w), wrap)
        for k, (dh, dw) in enumerate(offsets):
            shifted = oracles.shift_planes(arr, dh, dw, wrap)
            gathered = padded[:, index[k]].reshape(2, h, w)
            assert gathered.tobytes() == shifted.tobytes(), (dh, dw)


class TestBasicBlock:
    def test_all_invalid_image_gives_zero(self):
        rng = np.random.default_rng(0)
        img = util.random_image(rng, 6, 8, density=0.0)
        params = util.random_basicblock_params(rng)
        out = basicblock_forward(img, params)
        assert not out.feature_planes.any()

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
        assert not out.feature_planes.any()

    def test_identity_config_returns_nonnegative_input(self):
        # Zero convolutions and an identity residual leave relu(x). Points in
        # the positive octant keep every plane nonnegative, so the output
        # feature planes equal the input planes exactly.
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
        np.testing.assert_array_equal(out.feature_planes, img.channels)

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
        np.testing.assert_allclose(out.feature_planes, expected, atol=1e-10)

    def test_mask_passes_through(self):
        rng = np.random.default_rng(4)
        img = util.random_image(rng, 6, 8)
        out = basicblock_forward(img, util.random_basicblock_params(rng))
        np.testing.assert_array_equal(out.valid, img.valid)

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
            ).feature_planes.tobytes()
            for zero in (0.0, -0.0)
        ]
        assert outs[0] == outs[1]


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
        from dataclasses import replace

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


PIPELINE_SHAPES = [(16, 60), (5, 13), (6, 11), (9, 13)]


class TestDenseByteIdentity:
    """Sparse evaluation against the dense formula, byte for byte.

    Bytes count signed zeros: at invalid pixels the meta kernel's output is
    a zero carrying the sign of the dense value, and RRI1 files keep it.
    """

    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("shape", TINY_SHAPES)
    def test_meta_kernel(self, shape, mask, wrap):
        rng = np.random.default_rng([*shape, MASKS.index(mask), wrap])
        img = masked_image(rng, shape, mask, n_feat=4)
        params = util.random_hdmk_params(rng, c_in=4, c_mid=5, c_out=6)
        args = (img.feature_planes, img.channels[:3], img.valid, params, wrap)
        out = hdmk_forward_planes(*args)
        assert out.tobytes() == oracles.dense_hdmk_forward_planes(*args).tobytes()

    @pytest.mark.parametrize("c_out", [5, 6])
    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("shape", TINY_SHAPES)
    def test_basic_block(self, shape, mask, wrap, c_out):
        rng = np.random.default_rng([*shape, MASKS.index(mask), wrap, c_out])
        img = masked_image(rng, shape, mask, n_feat=0)
        params = util.random_basicblock_params(rng, c_out=c_out)
        out = basicblock_forward(img, params, wrap).feature_planes
        assert out.tobytes() == dense_block_planes(img, params, wrap).tobytes()

    # Pipeline widths; pixel counts leave 0, 1, 2 and 5 pixels past the last
    # whole block of 8 columns, where BLAS kernels round differently.
    @pytest.mark.parametrize("shape", PIPELINE_SHAPES)
    def test_pipeline_widths(self, shape):
        rng = np.random.default_rng(list(shape))
        img = masked_image(rng, shape, 0.15, n_feat=0)
        block = init_basicblock(0, 32)
        out = basicblock_forward(img, block)
        assert out.feature_planes.tobytes() == dense_block_planes(img, block, True).tobytes()
        params = init_params(0, (32, 32, 64))
        args = (out.feature_planes, img.channels[:3], img.valid, params, True)
        assert (
            hdmk_forward_planes(*args).tobytes()
            == oracles.dense_hdmk_forward_planes(*args).tobytes()
        )

    # Blocks of 8 or 16 centres split even these supports, so products start
    # mid-support, and a lone partial tail moves into the last block.
    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("shape", TINY_SHAPES)
    def test_meta_kernel_in_column_blocks(self, shape, mask, wrap, width, monkeypatch):
        monkeypatch.setattr(rvfe, "_COLUMN_BLOCK", width)
        self.test_meta_kernel(shape, mask, wrap)

    # With every pixel valid, the 65, 66 and 117 centres of the last three
    # shapes leave only a partial tail past the last whole 16-column block.
    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize("mask", [0.15, "all"])
    @pytest.mark.parametrize("shape", PIPELINE_SHAPES)
    def test_pipeline_widths_in_column_blocks(self, shape, mask, width, monkeypatch):
        monkeypatch.setattr(rvfe, "_COLUMN_BLOCK", width)
        rng = np.random.default_rng([*shape, width])
        img = masked_image(rng, shape, mask, n_feat=32)
        params = init_params(0, (32, 32, 64))
        args = (img.feature_planes, img.channels[:3], img.valid, params, True)
        assert (
            hdmk_forward_planes(*args).tobytes()
            == oracles.dense_hdmk_forward_planes(*args).tobytes()
        )

    def test_negative_zero_bias(self):
        # Weight files may hold -0.0. Far from valid pixels the dense output
        # is (+0 product) + b_acc, which is +0 for such a bias.
        from dataclasses import replace

        rng = np.random.default_rng(22)
        img = masked_image(rng, (8, 16), "one", n_feat=4)
        params = util.random_hdmk_params(rng, c_in=4, c_mid=5, c_out=6)
        params = HdMetaKernelParams(
            replace(params.branch1, b_acc=np.array([-0.0, 0.1, -0.0])),
            params.branch2,
        )
        args = (img.feature_planes, img.channels[:3], img.valid, params, True)
        out = hdmk_forward_planes(*args)
        assert out.tobytes() == oracles.dense_hdmk_forward_planes(*args).tobytes()

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
    return block.feature_planes.tobytes() + meta.tobytes()


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

    def test_plan_arrays_are_read_only(self):
        # No mask with an outside entry: the column map alone marks invalid
        # and outside pixels, by its zero column.
        valid = np.eye(4, 6, dtype=bool)
        centres, column, _, _ = arrays = rvfe._stencils(valid, True)
        assert all(a.dtype == np.int64 and not a.flags.writeable for a in arrays)
        assert column.shape == (4 * 6 + 1,)
        np.testing.assert_array_equal(column == len(centres), np.append(~valid.ravel(), True))

    def test_gradcheck_builds_one_plan(self, monkeypatch):
        # Three centre lists: the conv block's and one support per branch.
        calls = []
        dense_order = rvfe._dense_order

        def counted(*args):
            calls.append(args)
            return dense_order(*args)

        monkeypatch.setattr(rvfe, "_dense_order", counted)
        rvfe._stencil_plan.cache_clear()
        run_gradcheck()
        assert len(calls) == 3


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

    def test_basic_block_peak_scales_with_valid_pixels(self):
        # The same scan through the conv block. Every step runs on the 500
        # valid columns; what remains is the 32 planes gathered back through
        # the column map and the 37-plane image stacked from them in one
        # copy, about twice the output image's bytes. Scattering into zeroed
        # planes, then stacking them in a buffer of `with_features`' own
        # before the constructor's copy held 3 times; running the affine,
        # ReLU and residual steps over full planes held 5.6 times.
        h, w = 64, 2048
        rng = np.random.default_rng(23)
        valid = np.zeros(h * w, dtype=bool)
        valid[rng.choice(h * w, 500, replace=False)] = True
        valid = valid.reshape(h, w)
        img = util.random_image(rng, h, w, density=1.0)
        img = RangeImage(img.sensor, img.channels * valid, valid)
        block = init_basicblock(0, 32)
        out_bytes = 8 * (5 + block.c_out) * h * w
        tracemalloc.start()
        try:
            out = basicblock_forward(img, block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.channels.nbytes == out_bytes
        assert peak < 2.5 * out_bytes


class TestBackwardMemory:
    def test_peak_is_linear_in_channels_times_pixels(self):
        # A 64x512 image with 27% of its pixels valid. One buffer set walks
        # the nine taps of both branches, about 10.5 times the image's
        # bytes; keeping every tap's buffers and the (9 * c_in, h * w) chunk
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


class TestColumnBlocks:
    @pytest.mark.parametrize("width", [16, 4096])
    def test_blocks_tile_the_columns_within_the_width(self, width, monkeypatch):
        monkeypatch.setattr(rvfe, "_COLUMN_BLOCK", width)
        near_edges = [k * width + r for k in (1, 2, 3) for r in range(-9, 18)]
        for n in [*range(40), *near_edges]:
            blocks = rvfe._column_blocks(n)
            edges = [start for start, _ in blocks] + [n]
            assert edges[0] == 0 and blocks == list(zip(edges, edges[1:]))
            assert all(0 < stop - start <= width for start, stop in blocks)
            # Only the last block may end in a partial BLAS block, and then
            # behind a whole one unless it is the only block.
            assert all((stop - start) % 8 == 0 for start, stop in blocks[:-1])
            if len(blocks) > 1:
                assert blocks[-1][1] - blocks[-1][0] >= 8

    def test_a_lone_tail_moves_into_the_last_block(self, monkeypatch):
        monkeypatch.setattr(rvfe, "_COLUMN_BLOCK", 16)
        assert rvfe._column_blocks(65) == [(0, 16), (16, 32), (32, 48), (48, 56), (56, 65)]
        monkeypatch.setattr(rvfe, "_COLUMN_BLOCK", 8)
        assert rvfe._column_blocks(12) == [(0, 12)]


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

    def test_backward_is_deterministic(self):
        img, params, upstream = self.setup_instance()
        a = hdmk_backward(img, params, upstream)
        b = hdmk_backward(img, params, upstream)
        np.testing.assert_array_equal(a.feat, b.feat)
        for (_, ga), (_, gb) in zip(flatten_params(a.params), flatten_params(b.params)):
            np.testing.assert_array_equal(ga, gb)


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

    def test_basicblock_init(self):
        a = init_basicblock(3, 8)
        b = init_basicblock(3, 8)
        np.testing.assert_array_equal(a.conv1, b.conv1)
        assert a.proj.shape == (8, 5)
        assert init_basicblock(3, 5).proj is None
        np.testing.assert_array_equal(
            a.conv2, a.conv2.astype(np.float32).astype(np.float64)
        )
