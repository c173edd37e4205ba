"""Range-view feature extraction.

Two layers operate on range images:

* BasicBlock: a residual unit of two masked 3x3 convolutions with
  per-channel affine normalization, lifting the five raw planes to c_in
  feature planes.
* The hierarchical-dilated meta kernel: two branches sample 3x3
  neighborhoods at strides 1 and 2. Each branch weights every neighbor's
  feature vector by a small perceptron applied to the 3D coordinate delta
  between neighbor and center, concatenates the nine weighted vectors, and
  maps them through a dense accumulator to half the output width. The two
  halves concatenate to the output embedding.

Boundary policy: rows never wrap (zero contribution outside the image);
columns wrap when `wrap_horizontal` is set, matching a full-circle scan.
A neighbor that is missing or masked invalid contributes an exact zero
vector, so masked pixels can never influence a valid pixel's output.

Forward passes are sparse. One cached plan per (shape, wrap flag, mask
bytes), `_stencil_plan`, kept for the last mask, tells every layer where to
evaluate. Both layers gather (c, n + 1) columns, one per conv-block centre
and a zero column, through its pixel-to-column map, which sends invalid
pixels and the outside of the image to the zero column: values stored at
invalid pixels are never read. The conv block runs on valid-pixel columns;
each meta-kernel branch on its support (the valid mask dilated by its
stencil), holding its accumulator bias elsewhere, in blocks of
_COLUMN_BLOCK centres through buffers allocated once per branch. So time
scales with support pixels and the working set beyond inputs and output is
fixed. The conv block's output and the backward's feature gradient are
gathered back to planes through the same map (`_planes`), not scattered, so
each layer zeroes its own invalid pixels and `with_features` only stacks.

On images whose invalid pixels hold zeros, results are byte-identical to
evaluating every pixel, including those zeros: the conv block's are +0,
the meta kernel's are the dense value times zero, +0 or -0, a sign RRI1
feature planes keep as part of the byte contract. Hence pixels are
evaluated in the 8-column blocks a dense BLAS product would round them in
(`_dense_order`), and a partial tail ends a meta-kernel block behind a
whole one (`_column_blocks`).

The meta kernel has an analytic backward pass (coordinates are constants;
gradients flow to input features and all parameters). It recomputes its
taps at all h * w centres through the same columns, one tap at a time
through one buffer set, so its memory is linear in c * h * w; it
accumulates feature gradients in the columns and returns the parameter
gradients as an `HdMetaKernelParams`. BasicBlock is forward-only.

All arithmetic is 64-bit. Initializers emit values that are exactly
representable in single precision, so a 32-bit weight file holds exactly
the parameters in use and no stage needs to read it back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import BASE_CHANNELS, RangeImage, frozen_array
from .rng import STREAM_BASICBLOCK, STREAM_HDMK, DetRng, derive_seed

# Ordered (d_h, d_w) sampling offsets of the two meta-kernel branches: the
# 3x3 unit stencil in row-major order, and the same stencil doubled.
UNIT_OFFSETS = tuple((dh, dw) for dh in (-1, 0, 1) for dw in (-1, 0, 1))
DILATED_OFFSETS = tuple((2 * dh, 2 * dw) for dh, dw in UNIT_OFFSETS)
_BRANCH_OFFSETS = (UNIT_OFFSETS, DILATED_OFFSETS)


@dataclass(frozen=True)
class BranchParams:
    """One meta-kernel branch: weight perceptron plus dense accumulator.

    The perceptron maps a 3D coordinate delta to a per-channel weight
    vector: w2 @ relu(w1 @ delta + b1) + b2. The accumulator maps the
    concatenated 9 weighted neighbor vectors to the branch output.
    """

    w1: np.ndarray  # (c_mid, 3)
    b1: np.ndarray  # (c_mid,)
    w2: np.ndarray  # (c_in, c_mid)
    b2: np.ndarray  # (c_in,)
    w_acc: np.ndarray  # (c_half, 9 * c_in)
    b_acc: np.ndarray  # (c_half,)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, frozen_array(f.name, getattr(self, f.name)))
        c_mid = self.w1.shape[0]
        c_in = self.w2.shape[0]
        if self.w1.shape != (c_mid, 3) or self.b1.shape != (c_mid,):
            raise ValueError("weight perceptron first layer must be (c_mid, 3)")
        if self.w2.shape != (c_in, c_mid) or self.b2.shape != (c_in,):
            raise ValueError("weight perceptron second layer must be (c_in, c_mid)")
        if self.w_acc.ndim != 2 or self.w_acc.shape[1] != 9 * c_in:
            raise ValueError(
                f"accumulator must take 9*c_in = {9 * c_in} inputs, got {self.w_acc.shape}"
            )
        if self.b_acc.shape != (self.w_acc.shape[0],):
            raise ValueError("accumulator bias shape mismatch")


@dataclass(frozen=True)
class HdMetaKernelParams:
    """Parameters of both branches; the branch outputs concatenate to c_out.

    `tensors()`, `from_tensors` and `with_tensor` are the one map between
    these parameters and tensor names ("branch1.w1" ... "branch2.b_acc"),
    shared by weight files, gradients and the gradient check.
    """

    branch1: BranchParams
    branch2: BranchParams

    def __post_init__(self):
        if self.branch1.w2.shape[0] != self.branch2.w2.shape[0]:
            raise ValueError("branches must share c_in")
        if self.branch1.w_acc.shape[0] != self.branch2.w_acc.shape[0]:
            raise ValueError("branches must produce equal half-widths")

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor by name, branch by branch in field order."""
        return {
            f"{b.name}.{t.name}": getattr(getattr(self, b.name), t.name)
            for b in fields(self)
            for t in fields(BranchParams)
        }

    @classmethod
    def from_tensors(cls, get) -> HdMetaKernelParams:
        """Parameters from `get(name)` for every name that `tensors()` uses."""
        return cls(*(
            BranchParams(*(get(f"{b.name}.{t.name}") for t in fields(BranchParams)))
            for b in fields(cls)
        ))

    def with_tensor(self, name: str, value) -> HdMetaKernelParams:
        """A copy with tensor `name` replaced; only its branch is rebuilt."""
        branch, tensor = name.split(".")
        return replace(self, **{branch: replace(getattr(self, branch), **{tensor: value})})

    @property
    def c_in(self) -> int:
        return self.branch1.w2.shape[0]

    @property
    def c_mid(self) -> int:
        return self.branch1.w1.shape[0]

    @property
    def c_out(self) -> int:
        return 2 * self.branch1.w_acc.shape[0]


@dataclass(frozen=True)
class BasicBlockParams:
    """Residual unit parameters: conv-norm-act twice plus a residual path.

    Normalization is a fixed per-channel affine (inference mode). `proj` is
    the 1x1 residual projection; None means identity, allowed only when the
    channel counts already agree.
    """

    conv1: np.ndarray  # (c_out, c_in, 3, 3)
    scale1: np.ndarray  # (c_out,)
    shift1: np.ndarray  # (c_out,)
    conv2: np.ndarray  # (c_out, c_out, 3, 3)
    scale2: np.ndarray  # (c_out,)
    shift2: np.ndarray  # (c_out,)
    proj: np.ndarray | None  # (c_out, c_in) or None

    def __post_init__(self):
        for name in ("conv1", "scale1", "shift1", "conv2", "scale2", "shift2"):
            object.__setattr__(self, name, frozen_array(name, getattr(self, name)))
        if self.conv1.ndim != 4 or self.conv1.shape[2:] != (3, 3):
            raise ValueError(f"conv1 must be (c_out, c_in, 3, 3), got {self.conv1.shape}")
        c_out, c_in = self.conv1.shape[:2]
        if self.conv2.shape != (c_out, c_out, 3, 3):
            raise ValueError(f"conv2 must be ({c_out}, {c_out}, 3, 3), got {self.conv2.shape}")
        for name in ("scale1", "shift1", "scale2", "shift2"):
            if getattr(self, name).shape != (c_out,):
                raise ValueError(f"{name} must be ({c_out},)")
        if self.proj is None:
            if c_in != c_out:
                raise ValueError(
                    f"identity residual needs matching channels, got {c_in} -> {c_out}"
                )
        else:
            proj = frozen_array("proj", self.proj)
            if proj.shape != (c_out, c_in):
                raise ValueError(f"proj must be ({c_out}, {c_in}), got {proj.shape}")
            object.__setattr__(self, "proj", proj)

    @property
    def c_in(self) -> int:
        return self.conv1.shape[1]

    @property
    def c_out(self) -> int:
        return self.conv1.shape[0]


# ---------------------------------------------------------------------------
# Neighbour gathering with the boundary policy
# ---------------------------------------------------------------------------

def neighbour_index(
    h: int, w: int, offsets, centres: np.ndarray, wrap_horizontal: bool
) -> np.ndarray:
    """Flat indices of each centre's neighbours, (len(offsets), len(centres)).

    Entry [k, i] is the flat index of pixel centres[i] + offsets[k]. Rows
    never wrap; columns wrap modulo w only when requested. A neighbour
    outside the image gets index h * w, which a plan's pixel-to-column map
    sends to the zero column, as it sends every invalid pixel.
    """
    d = np.array(offsets, dtype=np.int64).reshape(-1, 2)
    rows = centres // w + d[:, :1]
    cols = centres % w + d[:, 1:]
    if wrap_horizontal:
        cols %= w
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    return np.where(inside, rows * w + cols, h * w)


# A BLAS product rounds each output column by the kernel that covers it. On
# OpenBLAS the wide kernel covers blocks of 8 columns, while the last 1-4
# columns of a product go through narrower kernels and a one-column product
# through a matrix-vector routine, each rounding differently. Operands are
# gathered with np.take: `a[:, index]` comes out column-major, which BLAS
# multiplies by yet another path.
_GEMM_BLOCK = 8


def _dense_order(pixels: np.ndarray, n_px: int) -> np.ndarray:
    """Centres to evaluate so that `pixels` round as in an n_px-column product.

    The dense product ends in a partial block of n_px % _GEMM_BLOCK pixels.
    Pixels before it are evaluated in whole blocks, padded by repeating a
    pixel. If any pixel lies in that last partial block, the whole of it
    follows at the end, behind at least one whole block.
    """
    tail_start = n_px - n_px % _GEMM_BLOCK
    body = pixels[pixels < tail_start]
    pad = -len(body) % _GEMM_BLOCK
    tail = np.arange(tail_start, n_px) if len(body) < len(pixels) else pixels[:0]
    if len(tail) and not len(body) and tail_start:
        pad = _GEMM_BLOCK
    filler = body[:1] if len(body) else np.zeros(1, dtype=np.int64)
    return np.concatenate([body, np.repeat(filler, pad), tail])


@functools.lru_cache(maxsize=1)
def _stencil_plan(h: int, w: int, wrap_horizontal: bool, mask_bytes: bytes):
    """Where the layers evaluate on one mask, as read-only arrays: the conv
    block's centres; each pixel's column among them, h * w + 1 entries where
    invalid pixels and the outside index read zero column len(centres); then
    each branch's support, the centres with a valid neighbour. Centres and
    supports are in `_dense_order`.
    """
    valid = np.frombuffer(mask_bytes, dtype=bool)
    valid_idx = np.flatnonzero(valid)
    centres = _dense_order(valid_idx, h * w)
    kept = np.flatnonzero(valid[centres])
    column = np.full(h * w + 1, len(centres))
    column[centres[kept]] = kept
    supports = []
    for offsets in _BRANCH_OFFSETS:
        # The support is what valid pixels reach under the reflected offsets.
        reach = np.zeros(h * w + 1, dtype=bool)
        reach[neighbour_index(h, w, -np.array(offsets), valid_idx, wrap_horizontal)] = True
        supports.append(_dense_order(np.flatnonzero(reach[:-1]), h * w))
    return tuple(frozen_array("stencil plan", a, np.int64) for a in (centres, column, *supports))


def _stencils(valid: np.ndarray, wrap_horizontal: bool):
    """The cached `_stencil_plan` of `valid`, whatever its dtype or order."""
    mask = np.ascontiguousarray(valid, dtype=bool)
    return _stencil_plan(*mask.shape, bool(wrap_horizontal), mask.tobytes())


def _columns(planes: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """(c, h, w) planes at flat `centres`, then a zero column: (c, len + 1)."""
    flat = planes.reshape(planes.shape[0], -1)
    out = np.zeros((flat.shape[0], len(centres) + 1))
    flat.take(centres, axis=1, out=out[:, :-1], mode="clip")
    return out


def _planes(cols: np.ndarray, column: np.ndarray, h: int, w: int) -> np.ndarray:
    """The inverse of `_columns`: (c, n) columns to (c, h, w) planes, where
    each pixel reads its `column` and invalid pixels an appended zero one."""
    padded = np.concatenate([cols, np.zeros((cols.shape[0], 1))], axis=1)
    return padded.take(column[:-1], axis=1).reshape(cols.shape[0], h, w)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# BasicBlock
# ---------------------------------------------------------------------------

def _conv3x3(cols: np.ndarray, weight: np.ndarray, index: np.ndarray) -> np.ndarray:
    """3x3 convolution on pixel columns, (c_in, n) to (c_out, n).

    Tap k of column i reads column index[k, i]; index n reads an appended
    zero column. Accumulation order over the 9 taps is fixed.
    """
    padded = np.concatenate([cols, np.zeros((cols.shape[0], 1))], axis=1)
    acc = np.zeros((weight.shape[0], cols.shape[1]), dtype=np.float64)
    for k, (dh, dw) in enumerate(UNIT_OFFSETS):
        acc += weight[:, :, dh + 1, dw + 1] @ np.take(padded, index[k], axis=1)
    return acc


def basicblock_forward(
    img: RangeImage, params: BasicBlockParams, wrap_horizontal: bool = True
) -> RangeImage:
    """Residual conv unit over the five raw planes.

    out = relu(norm2(conv2(relu(norm1(conv1(x))))) + proj(x)), computed on
    valid-pixel columns and gathered back to planes through the plan's column
    map, which leaves +0 at invalid pixels; the validity mask passes through.
    """
    if img.plane_count != BASE_CHANNELS:
        raise ValueError(
            f"expected a raw {BASE_CHANNELS}-plane image, got {img.plane_count} planes"
        )
    if params.c_in != BASE_CHANNELS:
        raise ValueError(
            f"params expect {params.c_in} input planes, image has {BASE_CHANNELS}"
        )
    h, w = img.valid.shape
    centres, column = _stencils(img.valid, wrap_horizontal)[:2]
    index = column[neighbour_index(h, w, UNIT_OFFSETS, centres, wrap_horizontal)]
    x = np.take(img.channels.reshape(BASE_CHANNELS, h * w), centres, axis=1)
    t = _conv3x3(x, params.conv1, index)
    t = _relu(t * params.scale1[:, None] + params.shift1[:, None])
    t = _conv3x3(t, params.conv2, index) * params.scale2[:, None] + params.shift2[:, None]
    res = x if params.proj is None else params.proj @ x
    return img.with_features(_planes(_relu(t + res), column, h, w))


# ---------------------------------------------------------------------------
# HD meta kernel
# ---------------------------------------------------------------------------

def _check_hdmk_input(
    feats: np.ndarray, coords: np.ndarray, valid: np.ndarray, params: HdMetaKernelParams
):
    """Shape checks shared by the meta kernel's forward and backward."""
    if valid.ndim != 2:
        raise ValueError(f"valid mask must be (h, w), got shape {valid.shape}")
    h, w = valid.shape
    if feats.shape != (params.c_in, h, w):
        raise ValueError(f"features must be (c_in={params.c_in}, {h}, {w}), got {feats.shape}")
    if coords.shape != (3, h, w):
        raise ValueError(f"coords must be (3, {h}, {w}), got {coords.shape}")


def _tap_buffers(c_in: int, c_mid: int, n: int) -> tuple[np.ndarray, ...]:
    """Uninitialised outputs of one `_tap` call at n centres."""
    return np.empty((c_in, n)), np.empty((3, n)), np.empty((c_mid, n)), np.empty((c_in, n))


def _tap(
    branch: BranchParams,
    feats: np.ndarray,
    coords: np.ndarray,
    centre_xyz: np.ndarray,
    index: np.ndarray,
    neigh_valid: np.ndarray,
    bufs: tuple[np.ndarray, ...],
    weighted: np.ndarray,
) -> None:
    """One offset of a branch at a set of centres, written in place.

    `feats` and `coords` are pixel columns from `_columns`, the last one
    zero; `index` holds the column of each centre's neighbour, the zero
    column when that neighbour is invalid or outside, `neigh_valid` whether
    it is not, and `centre_xyz` the centres' (3, m) coordinates. Fills
    `bufs` (from `_tap_buffers`) with the neighbour features, the coordinate
    deltas, the perceptron's hidden activations and its gates, and
    `weighted` with the (c_in, m) chunk, a zero at every invalid neighbour.
    """
    neigh_feat, delta, hid, gate = bufs
    # Every index is in range; "clip" keeps `take` from buffering `out`.
    feats.take(index, axis=1, out=neigh_feat, mode="clip")
    coords.take(index, axis=1, out=delta, mode="clip")
    delta -= centre_xyz
    delta *= neigh_valid
    np.matmul(branch.w1, delta, out=hid)
    hid += branch.b1[:, None]
    np.maximum(hid, 0.0, out=hid)
    np.matmul(branch.w2, hid, out=gate)
    gate += branch.b2[:, None]
    np.multiply(gate, neigh_feat, out=weighted)


# Centres per meta-kernel block: a multiple of _GEMM_BLOCK, so that every
# block but the last holds whole BLAS blocks.
_COLUMN_BLOCK = 4096


def _column_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of the column blocks an n-column product is split into.

    Blocks hold _COLUMN_BLOCK columns. When the last would hold only a
    partial tail of n % _GEMM_BLOCK columns, it starts one BLAS block
    earlier, so that the tail rounds behind a whole block as in
    `_dense_order`.
    """
    starts = list(range(0, n, _COLUMN_BLOCK))
    if len(starts) > 1 and n - starts[-1] < _GEMM_BLOCK:
        starts[-1] -= _GEMM_BLOCK
    blocks = zip(starts, starts[1:] + [n])
    return [(start, stop) for start, stop in blocks if start < stop]


def hdmk_forward_planes(
    feats: np.ndarray,
    coords: np.ndarray,
    valid: np.ndarray,
    params: HdMetaKernelParams,
    wrap_horizontal: bool = True,
) -> np.ndarray:
    """Raw-array meta kernel: (c_in, h, w) features to (c_out, h, w).

    Values stored at invalid pixels never reach the output; the result is
    zero at invalid pixels.

    Each branch is evaluated only on its support, the centres with at least
    one valid neighbour. Everywhere else all nine weighted chunks are zero,
    so the branch output is exactly its accumulator bias, and the final
    masking turns that into a zero carrying the bias's sign. The support is
    walked in column blocks (`_column_blocks`) through one set of buffers.
    """
    _check_hdmk_input(feats, coords, valid, params)
    h, w = valid.shape
    c_in = params.c_in
    c_half = params.c_out // 2
    centres, column, *supports = _stencils(valid, wrap_horizontal)
    feat_cols = _columns(feats, centres)
    coord_cols = _columns(coords, centres)
    full = np.empty((params.c_out, h * w), dtype=np.float64)
    for b, (branch, offsets, support) in enumerate(
        zip((params.branch1, params.branch2), _BRANCH_OFFSETS, supports)
    ):
        half = full[b * c_half : (b + 1) * c_half]
        # The product of all-zero chunks is +0, hence the added 0.0.
        half[:] = branch.b_acc[:, None] + 0.0
        blocks = _column_blocks(len(support))
        width = max((stop - start for start, stop in blocks), default=0)
        bufs = _tap_buffers(c_in, params.c_mid, width)
        centre_xyz = np.empty((3, width))
        chunks = np.empty((9 * c_in, width))
        acc = np.empty((c_half, width))
        for start, stop in blocks:
            n = stop - start
            block = support[start:stop]
            index = column[neighbour_index(h, w, offsets, block, wrap_horizontal)]
            neigh_valid = index != len(centres)
            coord_cols.take(column[block], axis=1, out=centre_xyz[:, :n], mode="clip")
            views = tuple(buf[..., :n] for buf in bufs)
            for k in range(len(offsets)):
                _tap(
                    branch, feat_cols, coord_cols, centre_xyz[:, :n], index[k], neigh_valid[k],
                    views, chunks[k * c_in : (k + 1) * c_in, :n],
                )
            np.matmul(branch.w_acc, chunks[:, :n], out=acc[:, :n])
            acc[:, :n] += branch.b_acc[:, None]
            half[:, block] = acc[:, :n]
    full *= valid.astype(bool).reshape(h * w)
    return full.reshape(params.c_out, h, w)


def hdmk_forward(
    feat: RangeImage, params: HdMetaKernelParams, wrap_horizontal: bool = True
) -> RangeImage:
    """Two-branch dynamic convolution over a feature-bearing range image.

    Consumes the stored (x, y, z) planes for coordinate deltas and the
    feature planes for neighbor values; emits c_out feature planes on the
    same validity mask.
    """
    full = hdmk_forward_planes(
        feat.feature_planes, feat.channels[:3], feat.valid, params, wrap_horizontal
    )
    return feat.with_features(full)


@dataclass(frozen=True)
class HdMetaKernelGrads:
    """Gradients of <upstream, output> for inputs and every parameter.

    `params` holds each parameter's gradient in that parameter's place, so
    gradients and parameters share one type and one name map.
    """

    feat: np.ndarray  # (c_in, h, w)
    params: HdMetaKernelParams


def hdmk_backward(
    feat: RangeImage,
    params: HdMetaKernelParams,
    upstream_grad: np.ndarray,
    wrap_horizontal: bool = True,
) -> HdMetaKernelGrads:
    """Exact gradients of sum(upstream_grad * hdmk_forward(feat)).

    Recomputes the taps at all h*w centres one at a time through one buffer
    set, so memory is linear in c * h * w. Coordinate planes are constants.
    Accumulation runs in a fixed order (branch, then offset), so repeated
    calls are bit-identical.
    """
    _check_hdmk_input(feat.feature_planes, feat.channels[:3], feat.valid, params)
    c_in = params.c_in
    h, w = feat.valid.shape
    n_px = h * w
    grad = np.asarray(upstream_grad, dtype=np.float64)
    if grad.shape != (params.c_out, h, w):
        raise ValueError(
            f"upstream gradient must be ({params.c_out}, {h}, {w}), got {grad.shape}"
        )
    # Invalid output pixels are identically zero, so no gradient flows there.
    grad = (grad * feat.valid).reshape(params.c_out, n_px)
    centres, column = _stencils(feat.valid, wrap_horizontal)[:2]
    feat_cols = _columns(feat.feature_planes, centres)
    coord_cols = _columns(feat.channels[:3], centres)
    centre_xyz = coord_cols[:, column[:-1]]
    c_half = params.c_out // 2

    d_cols = np.zeros_like(feat_cols)
    bufs = neigh_feat, delta, hid, gate = _tap_buffers(c_in, params.c_mid, n_px)
    weighted = np.empty((c_in, n_px))
    branch_grads = []
    for b, (branch, offsets) in enumerate(
        zip((params.branch1, params.branch2), _BRANCH_OFFSETS)
    ):
        index = column[neighbour_index(h, w, offsets, np.arange(n_px), wrap_horizontal)]
        neigh_valid = index != len(centres)
        g_out = grad[b * c_half : (b + 1) * c_half]
        d_w_acc = np.empty_like(branch.w_acc)
        d_b_acc = np.sum(g_out, axis=1)
        d_w1 = np.zeros_like(branch.w1)
        d_b1 = np.zeros_like(branch.b1)
        d_w2 = np.zeros_like(branch.w2)
        d_b2 = np.zeros_like(branch.b2)
        for k in range(len(offsets)):
            _tap(
                branch, feat_cols, coord_cols, centre_xyz, index[k], neigh_valid[k], bufs, weighted
            )
            block = slice(k * c_in, (k + 1) * c_in)
            d_w_acc[:, block] = g_out @ weighted.T
            d_weighted = (branch.w_acc[:, block].T @ g_out) * neigh_valid[k]
            # Feature gradient scatters back to the neighbour's column. An
            # offset sends distinct centres to distinct pixels, so only the
            # zero column sees repeated indices.
            d_cols[:, index[k]] += d_weighted * gate
            # Gate gradient stays at the center pixel.
            d_gate = d_weighted * neigh_feat
            d_w2 += d_gate @ hid.T
            d_b2 += np.sum(d_gate, axis=1)
            # hid > 0 exactly where the pre-activation is.
            d_pre = (branch.w2.T @ d_gate) * (hid > 0.0)
            d_w1 += d_pre @ delta.T
            d_b1 += np.sum(d_pre, axis=1)
        branch_grads.append(BranchParams(d_w1, d_b1, d_w2, d_b2, d_w_acc, d_b_acc))
    return HdMetaKernelGrads(
        _planes(d_cols[:, :-1], column, h, w), HdMetaKernelParams(*branch_grads)
    )


# ---------------------------------------------------------------------------
# Deterministic initialization
# ---------------------------------------------------------------------------

def _f32_grid(arr: np.ndarray) -> np.ndarray:
    """Round to the nearest single-precision value (stays float64).

    Keeps a 32-bit serialization round trip bit-exact.
    """
    return np.asarray(arr, dtype=np.float32).astype(np.float64)


def _uniform_tensor(rng: DetRng, shape, limit: float) -> np.ndarray:
    return _f32_grid(rng.uniforms(int(np.prod(shape)), -limit, limit).reshape(shape))


def _glorot_limit(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


BIAS_LIMIT = 0.1


def init_dense(rng: DetRng, n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_out, n_in) weight within the fan-balanced limit, then (n_out,) bias."""
    weight = _uniform_tensor(rng, (n_out, n_in), _glorot_limit(n_in, n_out))
    return weight, _uniform_tensor(rng, (n_out,), BIAS_LIMIT)


def _init_branch(rng: DetRng, c_in: int, c_mid: int, c_half: int) -> BranchParams:
    w1, b1 = init_dense(rng, c_mid, 3)
    w2, b2 = init_dense(rng, c_in, c_mid)
    w_acc, b_acc = init_dense(rng, c_half, 9 * c_in)
    return BranchParams(w1, b1, w2, b2, w_acc, b_acc)


def init_params(seed: int, dims: tuple[int, int, int]) -> HdMetaKernelParams:
    """Deterministic meta-kernel parameters for (c_in, c_mid, c_out).

    Weights are uniform within the usual fan-balanced limit
    sqrt(6 / (fan_in + fan_out)); biases are uniform within 0.1. The same
    seed always yields bit-identical tensors.
    """
    c_in, c_mid, c_out = dims
    if min(c_in, c_mid, c_out) < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    if c_out % 2 != 0:
        raise ValueError(f"c_out must be even, got {c_out}")
    rng = DetRng(derive_seed(seed, STREAM_HDMK))
    branch1 = _init_branch(rng, c_in, c_mid, c_out // 2)
    branch2 = _init_branch(rng, c_in, c_mid, c_out // 2)
    return HdMetaKernelParams(branch1, branch2)


def init_basicblock(seed: int, c_out: int) -> BasicBlockParams:
    """Deterministic BasicBlock parameters lifting the raw planes to c_out."""
    if c_out < 1:
        raise ValueError(f"c_out must be positive, got {c_out}")
    c_in = BASE_CHANNELS
    rng = DetRng(derive_seed(seed, STREAM_BASICBLOCK))
    lim1 = _glorot_limit(9 * c_in, c_out)
    lim2 = _glorot_limit(9 * c_out, c_out)
    conv1 = _uniform_tensor(rng, (c_out, c_in, 3, 3), lim1)
    scale1 = _f32_grid(rng.uniforms(c_out, 0.9, 1.1))
    shift1 = _uniform_tensor(rng, (c_out,), BIAS_LIMIT)
    conv2 = _uniform_tensor(rng, (c_out, c_out, 3, 3), lim2)
    scale2 = _f32_grid(rng.uniforms(c_out, 0.9, 1.1))
    shift2 = _uniform_tensor(rng, (c_out,), BIAS_LIMIT)
    proj = (
        None
        if c_in == c_out
        else _uniform_tensor(rng, (c_out, c_in), _glorot_limit(c_in, c_out))
    )
    return BasicBlockParams(conv1, scale1, shift1, conv2, scale2, shift2, proj)
