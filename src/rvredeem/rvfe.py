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

Forward passes run on valid-pixel columns, the layers' one feature form:
(c, n) arrays of the n valid pixels in row-major order. A caller that holds
planes gathers them once, so values stored at invalid pixels never reach a
layer. The meta kernel fills (..., c_out, h, w) planes.

The stencil plan. One cached plan per (shape, wrap flag, mask bytes),
`_stencil_plan`, kept for the last mask, tells every layer where to
evaluate: the valid pixels, and each meta-kernel branch's support, the
pixels whose stencil reaches a valid one. Each layer appends a zero column
to its columns (`_with_zero_column`), and the plan's padded column map
sends invalid pixels and the outside of the image to it. On the map a tap
(dh, dw) is one constant step (`_tap_steps`), so a block's tap columns take
one add and one gather, and the plan holds no per-tap array: per call only
the mask's bytes, the column blocks and the tap columns are computed.

The block walk. Both layers walk their columns in fixed-width blocks
(`_column_blocks`): each convolution its valid-pixel columns in blocks of
_CONV_BLOCK, each meta-kernel branch its support in blocks of _COLUMN_BLOCK
centres. A meta-kernel block's tap columns are the padded column map at its
centres' grid indices plus the branch's nine steps, the middle tap being
the centre's own column. One `_tap` call evaluates all nine taps, and tap
k's gated chunks are rows k * c_in ... of the (9 * c_in, m) accumulator
operand. The block's invalid centres are zeroed in place, and it is written
as one slice when its pixels are consecutive, with a scatter otherwise. Off
its support every chunk of a branch is zero and every pixel invalid, so the
branch's output there is its accumulator bias times zero, filled once.
Every array a block needs is the fresh result of the call that computes
it, dropped before the next block starts, so time scales with the evaluated
pixels and the working set beyond inputs and output is fixed. The widths
set the shape of every BLAS call, and so the output bytes. What the outputs
hold, and how closely they match a dense evaluation, is stated in the
README ("Sparse feature extraction").

Leading axes. The meta kernel's forward takes them, as
`sgrid.pointnet_aggregate` takes neighbourhoods: (..., c_in, n) features,
or branch tensors with leading axes (`HdMetaKernelParams.lead`), give
(..., c_out, h, w), one kernel per index. The gradient check evaluates a
group of perturbations of one tensor this way. The axes lead every stacked
product, so each index's slice is the BLAS call of its own 2-D product and
holds the bytes of its own call; what does not depend on them (the
coordinate deltas, a branch whose tensors and input lack them) is evaluated
once and broadcast. Blocks stay _COLUMN_BLOCK centres per index, so the
caller bounds the stack.

The meta kernel has an analytic backward pass (coordinates are constants;
gradients flow to input features and all parameters). It recomputes its
taps at all h * w centres through the same columns, one tap at a time,
each tap's columns a shifted window of the padded map, so its memory is
linear in c * h * w; it accumulates feature gradients in the columns,
scatters them to planes, and returns the parameter gradients as an
`HdMetaKernelParams`. BasicBlock is forward-only.

Rounding. All arithmetic is 64-bit. Initializers round their values to
single precision through `formats.as_stored`, so a 32-bit weight file holds
exactly the parameters in use and no stage needs to read it back. The meta
kernel rounds its output only as it writes it into planes of another dtype
that the caller passes (`hdmk_forward_planes`'s `out`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import BASE_CHANNELS, RangeImage, frozen_array
from .formats import as_stored
from .rng import STREAM_BASICBLOCK, STREAM_HDMK, DetRng, derive_seed

# Ordered (d_h, d_w) sampling offsets of the two meta-kernel branches: the
# 3x3 unit stencil in row-major order, and the same stencil doubled.
UNIT_OFFSETS = tuple((dh, dw) for dh in (-1, 0, 1) for dw in (-1, 0, 1))
DILATED_OFFSETS = tuple((2 * dh, 2 * dw) for dh, dw in UNIT_OFFSETS)
# The branches' offsets as (9, 2) int64 arrays.
_BRANCH_OFFSETS = tuple(
    frozen_array("offsets", o, np.int64) for o in (UNIT_OFFSETS, DILATED_OFFSETS)
)


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
        for name in _BRANCH_TENSORS:
            object.__setattr__(self, name, frozen_array(name, getattr(self, name)))
        # Shapes are checked on trailing axes; leading ones stack kernels.
        w1, w2 = self.w1.shape, self.w2.shape
        if len(w1) < 2 or w1[-1] != 3 or self.b1.shape[-1:] != w1[-2:-1]:
            raise ValueError("weight perceptron first layer must be (c_mid, 3)")
        if len(w2) < 2 or w2[-1] != w1[-2] or self.b2.shape[-1:] != w2[-2:-1]:
            raise ValueError("weight perceptron second layer must be (c_in, c_mid)")
        c_in = w2[-2]
        if self.w_acc.ndim < 2 or self.w_acc.shape[-1] != 9 * c_in:
            raise ValueError(
                f"accumulator must take 9*c_in = {9 * c_in} inputs, got {self.w_acc.shape}"
            )
        if self.b_acc.shape[-1:] != self.w_acc.shape[-2:-1]:
            raise ValueError("accumulator bias shape mismatch")


# A branch's tensor names, in field order.
_BRANCH_TENSORS = tuple(f.name for f in fields(BranchParams))


@dataclass(frozen=True)
class HdMetaKernelParams:
    """Parameters of both branches; the branch outputs concatenate to c_out.

    `tensors()`, `from_tensors` and `with_tensor` are the one map between
    these parameters and tensor names ("branch1.w1" ... "branch2.b_acc"),
    shared by weight files, gradients and the gradient check. A tensor may
    carry leading axes (`lead`), one kernel per index: the gradient check
    stacks perturbed copies of one tensor this way.
    """

    branch1: BranchParams
    branch2: BranchParams

    def __post_init__(self):
        if self.branch1.w2.shape[-2] != self.branch2.w2.shape[-2]:
            raise ValueError("branches must share c_in")
        if self.branch1.w_acc.shape[-2] != self.branch2.w_acc.shape[-2]:
            raise ValueError("branches must produce equal half-widths")
        self.lead  # raises unless the leading axes broadcast together

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor by name, branch by branch in field order."""
        return {
            f"{b}.{t}": getattr(getattr(self, b), t) for b in _BRANCHES for t in _BRANCH_TENSORS
        }

    @classmethod
    def from_tensors(cls, get) -> HdMetaKernelParams:
        """Parameters from `get(name)` for every name that `tensors()` uses."""
        return cls(*(
            BranchParams(*(get(f"{b}.{t}") for t in _BRANCH_TENSORS)) for b in _BRANCHES
        ))

    def with_tensor(self, name: str, value) -> HdMetaKernelParams:
        """A copy with tensor `name` replaced; only its branch is rebuilt.
        `value` may stack several values on leading axes."""
        branch, tensor = name.split(".")
        if branch not in _BRANCHES or tensor not in _BRANCH_TENSORS:
            raise KeyError(f"no meta-kernel tensor {name!r}")
        old = getattr(self, branch)
        new = BranchParams(*(value if t == tensor else getattr(old, t) for t in _BRANCH_TENSORS))
        return HdMetaKernelParams(*(new if b == branch else getattr(self, b) for b in _BRANCHES))

    @functools.cached_property
    def lead(self) -> tuple[int, ...]:
        """Every tensor's leading axes broadcast together, () for one kernel:
        what precedes the last two axes of a weight (w*), the last of a bias."""
        return np.broadcast_shapes(*(
            getattr(branch, t).shape[: -2 if t[0] == "w" else -1]
            for branch in (self.branch1, self.branch2) for t in _BRANCH_TENSORS
        ))

    @property
    def c_in(self) -> int:
        return self.branch1.w2.shape[-2]

    @property
    def c_mid(self) -> int:
        return self.branch1.w1.shape[-2]

    @property
    def c_out(self) -> int:
        return 2 * self.branch1.w_acc.shape[-2]


_BRANCHES = tuple(f.name for f in fields(HdMetaKernelParams))


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
# The stencil plan: where each layer evaluates and reads its taps
# ---------------------------------------------------------------------------

# The margin of the padded column map: the largest offset of either stencil,
# so that every tap of every pixel lands on the padded grid.
_PAD = int(max(np.abs(offsets).max() for offsets in _BRANCH_OFFSETS))


def _window(padded: np.ndarray, h: int, w: int, dh: int = 0, dw: int = 0) -> np.ndarray:
    """The (h, w) view of a padded (h + 2 * _PAD, w + 2 * _PAD) grid whose
    pixel (r, c) holds the grid's entry for pixel (r + dh, c + dw)."""
    grid = padded.reshape(h + 2 * _PAD, w + 2 * _PAD)
    return grid[_PAD + dh : _PAD + dh + h, _PAD + dw : _PAD + dw + w]


@functools.lru_cache(maxsize=1)
def _tap_steps(w: int) -> tuple[np.ndarray, ...]:
    """Each branch's taps on the padded grid of an image w pixels wide: the
    (9, 1) steps dh * (w + 2 * _PAD) + dw of its offsets (dh, dw)."""
    return tuple(
        frozen_array("taps", offsets[:, :1] * (w + 2 * _PAD) + offsets[:, 1:], np.int64)
        for offsets in _BRANCH_OFFSETS
    )


def _dilate(padded_valid: np.ndarray, h: int, w: int, offsets: np.ndarray) -> np.ndarray:
    """The (h, w) pixels p with a valid p + d for some offset d: the padded
    mask's windows (`_window`) OR-ed over every offset."""
    reach = np.zeros((h, w), dtype=bool)
    for dh, dw in offsets:
        reach |= _window(padded_valid, h, w, dh, dw)
    return reach


@functools.lru_cache(maxsize=1)
def _stencil_plan(h: int, w: int, wrap_horizontal: bool, mask_bytes: bytes):
    """The plan of one mask, as read-only int64 arrays: (centres, grid,
    support 1, support 2).

    The centres, the valid pixels, and each branch's support, the pixels
    with a valid neighbour (`_dilate`), are increasing flat pixel indices.
    `grid` holds the padded column map, then the centres' and each
    support's indices on it. The map holds each pixel's column among the
    centres on the (h + 2 * _PAD, w + 2 * _PAD) grid of `_window`, and the
    zero column len(centres) at invalid pixels and on the margin rows.
    Margin columns hold the columns they wrap to when columns wrap, the zero
    column otherwise.
    """
    valid = np.frombuffer(mask_bytes, dtype=bool)
    centres = np.flatnonzero(valid)
    column = np.full(h * w, len(centres))
    column[centres] = np.arange(len(centres))
    padded = np.pad(column.reshape(h, w), ((_PAD, _PAD), (0, 0)), constant_values=len(centres))
    if wrap_horizontal:
        padded = np.pad(padded, ((0, 0), (_PAD, _PAD)), mode="wrap")
    else:
        padded = np.pad(padded, ((0, 0), (_PAD, _PAD)), constant_values=len(centres))
    supports = [
        np.flatnonzero(_dilate(padded != len(centres), h, w, offsets))
        for offsets in _BRANCH_OFFSETS
    ]
    # Each pixel's index on the padded grid.
    inner = _window(np.arange(padded.size), h, w).ravel()
    freeze = functools.partial(frozen_array, "stencil plan", dtype=np.int64)
    grid = (padded.ravel(), *(inner[a] for a in (centres, *supports)))
    return (freeze(centres), tuple(map(freeze, grid)), *map(freeze, supports))


def _stencils(valid: np.ndarray, wrap_horizontal: bool):
    """The cached `_stencil_plan` of `valid`, whatever its dtype or order."""
    mask = np.ascontiguousarray(valid, dtype=bool)
    return _stencil_plan(*mask.shape, bool(wrap_horizontal), mask.tobytes())


def _with_zero_column(cols: np.ndarray) -> np.ndarray:
    """(..., c, n) columns, then the zero column that the padded column map
    sends invalid and outside pixels to: a C-ordered (..., c, n + 1) array.
    A masked gather such as `planes[:, valid]` is not C-ordered, and every
    tap's `take` along the last axis would copy such an array whole."""
    out = np.zeros((*cols.shape[:-1], cols.shape[-1] + 1))
    out[..., :-1] = cols
    return out


def _column_blocks(n: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) of n columns split into blocks of `width`, the last
    one holding the rest."""
    return [(start, min(start + width, n)) for start in range(0, n, width)]


# ---------------------------------------------------------------------------
# BasicBlock
# ---------------------------------------------------------------------------

# Columns per conv block product: a block's gather and product stay small
# beside the full-width input and output.
_CONV_BLOCK = 4096


def _conv3x3(cols: np.ndarray, weight: np.ndarray, index: np.ndarray) -> np.ndarray:
    """3x3 convolution on pixel columns, (c_in, n) to (c_out, n).

    Tap k of column i reads column index[k, i]; index n reads an appended
    zero column. Each block of _CONV_BLOCK columns adds its 9 taps in a
    fixed order.
    """
    n = cols.shape[1]
    padded = _with_zero_column(cols)
    acc = np.zeros((weight.shape[0], n), dtype=np.float64)
    for start, stop in _column_blocks(n, _CONV_BLOCK):
        for k, (dh, dw) in enumerate(UNIT_OFFSETS):
            # One expression, so that a tap's gather is freed with its product.
            acc[:, start:stop] += weight[:, :, dh + 1, dw + 1] @ padded.take(
                index[k, start:stop], axis=1, mode="clip"
            )
    return acc


def basicblock_forward(
    img: RangeImage, params: BasicBlockParams, wrap_horizontal: bool = True
) -> np.ndarray:
    """Residual conv unit over the five raw planes, to the (c_out, n)
    columns of the n valid pixels in row-major order, which the meta kernel
    reads as they are.

    out = relu(norm2(conv2(relu(norm1(conv1(x))))) + proj(x)), computed on
    valid-pixel columns. Both convolutions read one (9, n) tap index, the
    padded column map at each centre's padded index plus the unit stencil's
    steps (`_tap_steps`).
    """
    if img.plane_count != BASE_CHANNELS:
        raise ValueError(
            f"expected a raw {BASE_CHANNELS}-plane image, got {img.plane_count} planes"
        )
    if params.c_in != BASE_CHANNELS:
        raise ValueError(
            f"params expect {params.c_in} input planes, image has {BASE_CHANNELS}"
        )
    centres, (padded, ids, _, _) = _stencils(img.valid, wrap_horizontal)[:2]
    index = padded.take(ids + _tap_steps(img.valid.shape[1])[0])
    x = np.take(img.channels.reshape(BASE_CHANNELS, -1), centres, axis=1)
    # The affine, residual and ReLU steps run in place on the conv outputs.
    t = _conv3x3(x, params.conv1, index)
    t *= params.scale1[:, None]
    t += params.shift1[:, None]
    np.maximum(t, 0.0, out=t)
    t = _conv3x3(t, params.conv2, index)
    t *= params.scale2[:, None]
    t += params.shift2[:, None]
    t += x if params.proj is None else params.proj @ x
    np.maximum(t, 0.0, out=t)
    return t


# ---------------------------------------------------------------------------
# HD meta kernel
# ---------------------------------------------------------------------------

def _check_hdmk_input(
    feats: np.ndarray, coords: np.ndarray, valid: np.ndarray, params: HdMetaKernelParams
):
    """Shape checks shared by the meta kernel's forward and backward."""
    if valid.ndim != 2:
        raise ValueError(f"valid mask must be (h, w), got shape {valid.shape}")
    n = int(np.count_nonzero(valid))
    if feats.shape[-2:] != (params.c_in, n):
        raise ValueError(f"features must be (c_in={params.c_in}, {n}), got {feats.shape}")
    if coords.shape != (3, n):
        raise ValueError(f"coords must be (3, {n}), got {coords.shape}")


def _plus(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x + bias, in place unless the bias brings leading axes x lacks."""
    return x + bias if bias.ndim > x.ndim else np.add(x, bias, out=x)


def _tap(
    branch: BranchParams,
    feats: np.ndarray,
    coords: np.ndarray,
    centre_xyz: np.ndarray,
    index: np.ndarray,
    neigh_valid: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """t offsets of a branch at m centres.

    `feats` and `coords` are pixel columns from `_with_zero_column`, the
    last one zero; `index` (t, m) holds the column of each centre's
    neighbour, the zero column when that neighbour is invalid or outside,
    `neigh_valid` whether it is not, and `centre_xyz` the centres' (3, m)
    coordinates.
    Returns the C-contiguous (..., c_in, t, m) neighbour features, (3, t, m)
    coordinate deltas, (..., t, c_mid, m) hidden activations, (..., t, c_in,
    m) gates and (..., t, c_in, m) gated chunks, a zero at every invalid
    neighbour; "..." are the leading axes of `feats` or of the branch
    tensors that each result depends on.
    """
    neigh_feat = feats.take(index, axis=-1, mode="clip")
    delta = coords.take(index, axis=1, mode="clip")
    delta -= centre_xyz[:, None]
    delta *= neigh_valid
    # Parameters gain an axis for the taps, in front of their own.
    hid = branch.w1[..., None, :, :] @ delta.transpose(1, 0, 2)
    hid = _plus(hid, branch.b1[..., None, :, None])
    np.maximum(hid, 0.0, out=hid)
    gate = _plus(branch.w2[..., None, :, :] @ hid, branch.b2[..., None, :, None])
    return neigh_feat, delta, hid, gate, gate * neigh_feat.swapaxes(-3, -2)


# Centres per meta-kernel block. A block stacks its nine taps; at 512
# centres and the pipeline's (32, 32, 64) kernel that is about 5 MB, small
# enough to stay in cache.
_COLUMN_BLOCK = 512


def hdmk_forward_planes(
    feats: np.ndarray, coords: np.ndarray, valid: np.ndarray, params: HdMetaKernelParams,
    wrap_horizontal: bool = True, out: np.ndarray | None = None,
) -> np.ndarray:
    """Raw-array meta kernel: (..., c_in, n) feature and (3, n) coordinate
    columns of the n pixels that `valid` marks, in row-major order (as
    `basicblock_forward` returns them), to (..., c_out, h, w) planes, "..."
    the leading axes of `feats` and `params.lead` broadcast together. The
    result is zero at invalid pixels: the dense value times zero, +0 or -0.
    Given `out`, a C-ordered array of the output's shape, it fills and
    returns that, each value cast to its dtype as `np.asarray` casts, signed
    zeros kept, and beyond the dtype's range to inf (with NumPy's overflow
    warning, unless the caller's `np.errstate` ignores it).
    """
    shape = (*np.broadcast_shapes(np.shape(feats)[:-2], params.lead), params.c_out, *valid.shape)
    out = np.empty(shape) if out is None else out
    if out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-ordered {shape} array, got {out.shape}")
    # A C-ordered reshape is a view, so the kernel writes into `out`.
    _hdmk_fill(feats, coords, valid, params, wrap_horizontal, out.reshape(*shape[:-2], -1))
    return out


def _hdmk_fill(
    feats: np.ndarray,
    coords: np.ndarray,
    valid: np.ndarray,
    params: HdMetaKernelParams,
    wrap_horizontal: bool,
    full: np.ndarray,
) -> None:
    """The meta kernel evaluated into `full`, a given (..., c_out, h * w)
    array, every entry written: each branch block by block on its support,
    and off it, only when the support misses a pixel, one fill. Beyond that
    fill no pass runs over the whole output.
    """
    _check_hdmk_input(feats, coords, valid, params)
    h, w = valid.shape
    c_in = params.c_in
    c_half = params.c_out // 2
    taps = len(UNIT_OFFSETS)
    centres, (padded, _, *support_ids), *supports = _stencils(valid, wrap_horizontal)
    feat_cols = _with_zero_column(feats)
    coord_cols = _with_zero_column(coords)
    for b, (branch, steps, support, ids) in enumerate(
        zip((params.branch1, params.branch2), _tap_steps(w), supports, support_ids)
    ):
        half = full[..., b * c_half : (b + 1) * c_half, :]
        if len(support) < h * w:
            # Off the support: the +0 product of all-zero chunks plus the
            # bias, at an invalid pixel.
            half[...] = ((branch.b_acc + 0.0) * 0.0)[..., None]
        for start, stop in _column_blocks(len(support), _COLUMN_BLOCK):
            n = stop - start
            index = padded.take(ids[start:stop] + steps)
            neigh_valid = index != len(centres)
            # Offset (0, 0), the middle tap, reads the centre's own column.
            centre_xyz = coord_cols.take(index[taps // 2], axis=1, mode="clip")
            chunks = _tap(branch, feat_cols, coord_cols, centre_xyz, index, neigh_valid)[-1]
            # Tap k's gated chunk is rows k * c_in ... of the operand.
            acc = branch.w_acc @ chunks.reshape(*chunks.shape[:-3], taps * c_in, n)
            acc = _plus(acc, branch.b_acc[..., None])
            acc *= neigh_valid[taps // 2]
            first, last = support[start], support[stop - 1]
            block = support[start:stop]
            if last - first == n - 1:
                half[..., first : last + 1] = acc
            elif half.ndim > 2:
                half[..., block] = acc
            else:
                for row, values in zip(half, acc):
                    row[block] = values
            # Freed before the next block allocates its own.
            del chunks, acc


def hdmk_forward(
    feat: RangeImage, params: HdMetaKernelParams, wrap_horizontal: bool = True
) -> RangeImage:
    """Two-branch dynamic convolution over a feature-bearing range image.

    Consumes the stored (x, y, z) planes for coordinate deltas and the
    feature planes for neighbor values, gathered once at the valid pixels;
    emits c_out feature planes on the same validity mask: the planes of
    `hdmk_forward_planes`, stacked after the base planes in one copy
    (`RangeImage.with_features`).
    """
    cols = feat.channels[:, feat.valid]
    return feat.with_features(
        hdmk_forward_planes(cols[BASE_CHANNELS:], cols[:3], feat.valid, params, wrap_horizontal)
    )


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

    Recomputes the taps at all h*w centres one at a time, so memory is
    linear in c * h * w; tap (dh, dw) reads the window of the padded column
    map shifted by (dh, dw) (`_window`). Coordinate planes are constants.
    Accumulation runs in a fixed order (branch, then offset), so repeated
    calls are bit-identical. The feature gradient is scattered to planes at
    the valid pixels, +0 elsewhere.
    """
    cols = feat.channels[:, feat.valid]
    _check_hdmk_input(cols[BASE_CHANNELS:], cols[:3], feat.valid, params)
    if params.lead:
        raise ValueError(f"the backward takes one kernel, got leading axes {params.lead}")
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
    centres, (padded, *_) = _stencils(feat.valid, wrap_horizontal)[:2]
    feat_cols = _with_zero_column(cols[BASE_CHANNELS:])
    coord_cols = _with_zero_column(cols[:3])
    del cols
    centre_xyz = coord_cols.take(_window(padded, h, w).ravel(), axis=1)
    c_half = params.c_out // 2

    d_cols = np.zeros_like(feat_cols)
    branch_grads = []
    for b, (branch, offsets) in enumerate(
        zip((params.branch1, params.branch2), _BRANCH_OFFSETS)
    ):
        g_out = grad[b * c_half : (b + 1) * c_half]
        d_w_acc = np.empty_like(branch.w_acc)
        d_b_acc = np.sum(g_out, axis=1)
        d_w1 = np.zeros_like(branch.w1)
        d_b1 = np.zeros_like(branch.b1)
        d_w2 = np.zeros_like(branch.w2)
        d_b2 = np.zeros_like(branch.b2)
        for k, (dh, dw) in enumerate(offsets):
            index = _window(padded, h, w, dh, dw).reshape(1, n_px)
            neigh_valid = index != len(centres)
            neigh_feat, delta, hid, gate, weighted = (
                a.reshape(-1, n_px)
                for a in _tap(branch, feat_cols, coord_cols, centre_xyz, index, neigh_valid)
            )
            block = slice(k * c_in, (k + 1) * c_in)
            d_w_acc[:, block] = g_out @ weighted.T
            d_weighted = (branch.w_acc[:, block].T @ g_out) * neigh_valid
            # Feature gradient scatters back to the neighbour's column. An
            # offset sends distinct centres to distinct pixels, so only the
            # zero column sees repeated indices.
            d_cols[:, index[0]] += d_weighted * gate
            # Gate gradient stays at the center pixel.
            d_gate = d_weighted * neigh_feat
            d_w2 += d_gate @ hid.T
            d_b2 += np.sum(d_gate, axis=1)
            # hid > 0 exactly where the pre-activation is.
            d_pre = (branch.w2.T @ d_gate) * (hid > 0.0)
            d_w1 += d_pre @ delta.T
            d_b1 += np.sum(d_pre, axis=1)
            # Freed before the next tap allocates its own.
            del neigh_feat, delta, hid, gate, weighted, d_weighted, d_gate, d_pre
        branch_grads.append(BranchParams(d_w1, d_b1, d_w2, d_b2, d_w_acc, d_b_acc))
    d_feat = np.zeros((c_in, n_px))
    d_feat[:, centres] = d_cols[:, :-1]
    return HdMetaKernelGrads(d_feat.reshape(c_in, h, w), HdMetaKernelParams(*branch_grads))


# ---------------------------------------------------------------------------
# Deterministic initialization
# ---------------------------------------------------------------------------

def _uniform_tensor(rng: DetRng, shape, limit: float) -> np.ndarray:
    return as_stored(rng.uniforms(int(np.prod(shape)), -limit, limit).reshape(shape))


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
    scale1 = as_stored(rng.uniforms(c_out, 0.9, 1.1))
    shift1 = _uniform_tensor(rng, (c_out,), BIAS_LIMIT)
    conv2 = _uniform_tensor(rng, (c_out, c_out, 3, 3), lim2)
    scale2 = as_stored(rng.uniforms(c_out, 0.9, 1.1))
    shift2 = _uniform_tensor(rng, (c_out,), BIAS_LIMIT)
    proj = (
        None
        if c_in == c_out
        else _uniform_tensor(rng, (c_out, c_in), _glorot_limit(c_in, c_out))
    )
    return BasicBlockParams(conv1, scale1, shift1, conv2, scale2, shift2, proj)
