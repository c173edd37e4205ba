"""Independent reference implementations used to check the package.

Everything in this file is written as directly as possible: explicit loops,
scalar math, dictionary group-bys. None of it imports the package under
test. Deliberately slow; correctness is the only goal. The exceptions are
the dense shifted-plane evaluation, the row-sum point ops, the RoI grid
formulas and the range-image binning at the end, which keep the package's
(or its earlier) array expressions so that results can be compared byte for
byte.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Spherical projection
# ---------------------------------------------------------------------------

def pixel_angles(u, v, h, w, fov_up, fov_down):
    """(theta, phi) for a real-valued pixel, via endpoint interpolation.

    Azimuth runs from +pi at u=0 down to -pi at u=w. Elevation runs from
    (fov_total - fov_up) at v=0 down to -fov_up at v=h.
    """
    fov_total = fov_up + fov_down
    theta = math.pi - 2.0 * math.pi * (u / w)
    phi_top = fov_total - fov_up
    phi = phi_top - fov_total * (v / h)
    return theta, phi


def spherical_to_cartesian(r, theta, phi):
    x = r * math.cos(phi) * math.cos(theta)
    y = r * math.cos(phi) * math.sin(theta)
    z = r * math.sin(phi)
    return x, y, z


def cartesian_to_spherical(x, y, z):
    r = math.sqrt(x * x + y * y + z * z)
    theta = math.atan2(y, x)
    phi = math.asin(z / r)
    return r, theta, phi


def scan_valid_pixels(valid):
    """Row-major (row, col) list of set mask entries, by explicit loops."""
    out = []
    h, w = valid.shape
    for row in range(h):
        for col in range(w):
            if valid[row, col]:
                out.append((row, col))
    return out


def gather_pixel_vectors(planes, pixels):
    """Per-pixel plane vectors via scalar indexing, one pixel at a time."""
    out = []
    for row, col in pixels:
        vec = [float(planes[p, row, col]) for p in range(planes.shape[0])]
        out.append(vec)
    return np.array(out, dtype=np.float64).reshape(len(pixels), planes.shape[0])


# ---------------------------------------------------------------------------
# Dense layers and dynamic kernels
# ---------------------------------------------------------------------------

def dense(x, weight, bias):
    """y[j] = sum_i x[i] * weight[j, i] + bias[j], by explicit loops."""
    out = np.zeros(weight.shape[0], dtype=np.float64)
    for j in range(weight.shape[0]):
        acc = float(bias[j])
        for i in range(weight.shape[1]):
            acc += float(x[i]) * float(weight[j, i])
        out[j] = acc
    return out


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def conv2d_masked(planes, valid, weight, bias, wrap_horizontal):
    """3x3 masked convolution with six nested loops.

    Neighbors outside the image (vertically) or with an unset mask contribute
    nothing. Horizontal indices wrap when `wrap_horizontal` is set. Output is
    zeroed at invalid center pixels.
    """
    c_in, h, w = planes.shape
    c_out = weight.shape[0]
    out = np.zeros((c_out, h, w), dtype=np.float64)
    for row in range(h):
        for col in range(w):
            if not valid[row, col]:
                continue
            for co in range(c_out):
                acc = float(bias[co])
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr = row + dr
                        cc = col + dc
                        if rr < 0 or rr >= h:
                            continue
                        if wrap_horizontal:
                            cc = cc % w
                        elif cc < 0 or cc >= w:
                            continue
                        if not valid[rr, cc]:
                            continue
                        for ci in range(c_in):
                            acc += float(weight[co, ci, dr + 1, dc + 1]) * float(
                                planes[ci, rr, cc]
                            )
                out[co, row, col] = acc
    return out


def hdmk_branch(planes, coords, valid, offsets, w1, b1, w2, b2, w_acc, b_acc,
                wrap_horizontal):
    """One dynamic-kernel branch, transcribed pixel by pixel.

    For each valid center pixel and each of the 9 offsets: take the neighbor
    feature vector and its 3D coordinate delta, run the delta through a
    two-layer perceptron to get a per-channel weight vector, multiply it into
    the neighbor features (missing neighbors contribute zeros), concatenate
    the 9 weighted vectors, and push the result through the accumulator
    layer.
    """
    c_in, h, w = planes.shape
    c_half = w_acc.shape[0]
    out = np.zeros((c_half, h, w), dtype=np.float64)
    for row in range(h):
        for col in range(w):
            if not valid[row, col]:
                continue
            center = np.array(
                [coords[0, row, col], coords[1, row, col], coords[2, row, col]],
                dtype=np.float64,
            )
            gathered = []
            for dr, dc in offsets:
                rr = row + dr
                cc = col + dc
                ok = 0 <= rr < h
                if ok:
                    if wrap_horizontal:
                        cc = cc % w
                    else:
                        ok = 0 <= cc < w
                if ok and valid[rr, cc]:
                    neigh = np.array(
                        [planes[ci, rr, cc] for ci in range(c_in)],
                        dtype=np.float64,
                    )
                    npos = np.array(
                        [coords[0, rr, cc], coords[1, rr, cc], coords[2, rr, cc]],
                        dtype=np.float64,
                    )
                    delta = npos - center
                    hid = relu(dense(delta, w1, b1))
                    gate = dense(hid, w2, b2)
                    gathered.append(gate * neigh)
                else:
                    gathered.append(np.zeros(c_in, dtype=np.float64))
            flat = np.concatenate(gathered)
            out[:, row, col] = dense(flat, w_acc, b_acc)
    return out


def finite_difference(f, x, eps=1e-5):
    """Central-difference gradient of scalar f at flat array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        g[i] = (hi - lo) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# Point set operations
# ---------------------------------------------------------------------------

def fps_indices(xyz, count, seed_index):
    """Greedy max-min sampling with squared distances and lowest-index ties."""
    n = xyz.shape[0]
    count = min(count, n)
    chosen = [seed_index]
    best = np.full(n, np.inf, dtype=np.float64)
    for _ in range(count - 1):
        last = xyz[chosen[-1]]
        for i in range(n):
            d = xyz[i] - last
            d2 = float(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
            if d2 < best[i]:
                best[i] = d2
        pick = 0
        pick_d = -1.0
        for i in range(n):
            if i in chosen:
                continue
            if best[i] > pick_d:
                pick_d = best[i]
                pick = i
        chosen.append(pick)
    return chosen


def ball_query(centers, xyz, radius, max_k):
    """Per-center neighbor lists by linear scan, sorted by (distance, index)."""
    r2 = radius * radius
    out = []
    for c in centers:
        hits = []
        for i in range(xyz.shape[0]):
            d = xyz[i] - c
            d2 = float(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
            if d2 <= r2:
                hits.append((d2, i))
        hits.sort()
        out.append([i for _, i in hits[:max_k]])
    return out


def voxel_means(xyz, feats, vmin, size):
    """Voxel id -> (count, mean feature) via a dictionary group-by."""
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i in range(xyz.shape[0]):
        key = tuple(
            int(math.floor((xyz[i, a] - vmin[a]) / size[a])) for a in range(3)
        )
        groups.setdefault(key, []).append(i)
    out = {}
    for key, idxs in groups.items():
        acc = np.zeros(feats.shape[1], dtype=np.float64)
        for i in idxs:
            acc += feats[i]
        out[key] = (len(idxs), acc / len(idxs))
    return out


def trilinear_weights(p, corners):
    """Weights of the 8 cell corners for point p inside a unit-ordered cell.

    `corners` is (8, 3) with the cell's min corner first and max corner last,
    axis-aligned. Returns the standard product-form weights.
    """
    lo = corners[0]
    hi = corners[7]
    t = [(p[a] - lo[a]) / (hi[a] - lo[a]) for a in range(3)]
    weights = []
    for corner in corners:
        w = 1.0
        for a in range(3):
            frac = (corner[a] - lo[a]) / (hi[a] - lo[a])
            w *= t[a] if frac > 0.5 else (1.0 - t[a])
        weights.append(w)
    return np.array(weights, dtype=np.float64)


# ---------------------------------------------------------------------------
# Dense shifted-plane evaluation (byte-level reference)
# ---------------------------------------------------------------------------
# The loop oracles above agree with the package to a tolerance. The functions
# below evaluate the conv block and the meta kernel densely, at every pixel,
# with the same NumPy expressions in the same order as the package, so its
# sparse evaluation can be held to them byte for byte, signed zeros included.

DENSE_UNIT_OFFSETS = tuple((dh, dw) for dh in (-1, 0, 1) for dw in (-1, 0, 1))
DENSE_DILATED_OFFSETS = tuple((2 * dh, 2 * dw) for dh, dw in DENSE_UNIT_OFFSETS)


def shift_planes(arr, dh, dw, wrap_horizontal):
    """Values at (r + dh, c + dw) per pixel, zero-filled outside the image.

    Rows never wrap. Columns wrap only when requested.
    """
    out = np.roll(arr, (-dh, -dw), axis=(-2, -1))
    h, w = arr.shape[-2], arr.shape[-1]
    if dh > 0:
        out[..., h - dh:, :] = 0
    elif dh < 0:
        out[..., : -dh, :] = 0
    if not wrap_horizontal:
        if dw > 0:
            out[..., :, w - dw:] = 0
        elif dw < 0:
            out[..., :, : -dw] = 0
    return out


def support_by_reflected_offsets(valid, offsets, wrap_horizontal):
    """(h, w) pixels that a valid pixel reaches under the reflected offsets.

    Every valid pixel v marks v - d for each offset d that stays inside the
    image: rows never wrap, columns wrap modulo w only when requested. This
    is how the meta kernel's branch supports were first built, one neighbour
    index per valid pixel and offset scattered into a flag array.
    """
    h, w = valid.shape
    reach = np.zeros(h * w + 1, dtype=bool)
    rows, cols = np.divmod(np.flatnonzero(valid), w)
    for dh, dw in offsets:
        r, c = rows - dh, cols - dw
        outside = (r < 0) | (r >= h)
        if wrap_horizontal:
            c = c % w
        else:
            outside |= (c < 0) | (c >= w)
        reach[np.where(outside, h * w, r * w + c)] = True
    return reach[:-1].reshape(h, w)


def dense_masked_conv3x3(planes, valid, weight, wrap_horizontal):
    c_out = weight.shape[0]
    h, w = planes.shape[-2], planes.shape[-1]
    masked = planes * valid
    out = np.zeros((c_out, h, w), dtype=np.float64)
    flat = masked.reshape(masked.shape[0], h * w)
    for dh, dw in DENSE_UNIT_OFFSETS:
        shifted = shift_planes(masked, dh, dw, wrap_horizontal)
        tap = weight[:, :, dh + 1, dw + 1]
        out += (tap @ shifted.reshape(flat.shape)).reshape(c_out, h, w)
    return out * valid


def dense_basicblock(x, valid, params, wrap_horizontal):
    """(c_out, h, w) conv block output planes from the raw planes x."""
    t = dense_masked_conv3x3(x, valid, params.conv1, wrap_horizontal)
    t = relu(t * params.scale1[:, None, None] + params.shift1[:, None, None] * valid)
    t = dense_masked_conv3x3(t, valid, params.conv2, wrap_horizontal)
    t = t * params.scale2[:, None, None] + params.shift2[:, None, None] * valid
    if params.proj is None:
        res = x * valid
    else:
        h, w = valid.shape
        res = (params.proj @ (x * valid).reshape(x.shape[0], h * w)).reshape(
            params.c_out, h, w
        )
    return relu(t + res) * valid


def dense_hdmk_branch(branch, offsets, feats, coords, valid, wrap_horizontal):
    """(c_half, h*w) branch output evaluated at every pixel."""
    c_in, h, w = feats.shape
    n_px = h * w
    coords_flat = coords.reshape(3, n_px)
    chunks = np.empty((9 * c_in, n_px), dtype=np.float64)
    for k, (dh, dw) in enumerate(offsets):
        neigh_feat = shift_planes(feats, dh, dw, wrap_horizontal).reshape(c_in, n_px)
        neigh_valid = shift_planes(valid, dh, dw, wrap_horizontal).reshape(n_px)
        delta = (
            shift_planes(coords, dh, dw, wrap_horizontal).reshape(3, n_px)
            - coords_flat
        ) * neigh_valid
        pre = branch.w1 @ delta + branch.b1[:, None]
        hid = relu(pre)
        gate = branch.w2 @ hid + branch.b2[:, None]
        weighted = gate * neigh_feat * neigh_valid
        chunks[k * c_in : (k + 1) * c_in] = weighted
    return branch.w_acc @ chunks + branch.b_acc[:, None]


def dense_hdmk_forward_planes(feats, coords, valid, params, wrap_horizontal):
    h, w = valid.shape
    halves = [
        dense_hdmk_branch(branch, offsets, feats, coords, valid, wrap_horizontal)
        for branch, offsets in (
            (params.branch1, DENSE_UNIT_OFFSETS),
            (params.branch2, DENSE_DILATED_OFFSETS),
        )
    ]
    full = np.concatenate(halves, axis=0).reshape(params.c_out, h, w)
    return full * valid


# ---------------------------------------------------------------------------
# Row-sum point ops (byte-level reference)
# ---------------------------------------------------------------------------
# Furthest point sampling and grid-point pooling as plain (N, 3) row sums over
# every point: a fresh difference array per step, and a ball query over all
# keypoints for every grid point. The package computes the same squared
# distances column by column and queries only the keypoints that can reach
# a grid point; both are held to these functions byte for byte.

def fps_row_sum(xyz, count, seed_index):
    """FPS whose step is np.sum(diff * diff, axis=1) over the whole cloud."""
    n = xyz.shape[0]
    count = min(count, n)
    chosen = np.empty(count, dtype=np.int64)
    chosen[0] = seed_index
    best = np.full(n, np.inf, dtype=np.float64)
    last = seed_index
    for step in range(1, count):
        diff = xyz - xyz[last]
        best = np.minimum(best, np.sum(diff * diff, axis=1))
        best[last] = -1.0
        last = int(np.argmax(best))
        chosen[step] = last
    return chosen


def pool_branch_all_keypoints(canon_xyz, features, positions, radius, cap, layers):
    """(features (n, c), empty flags (n,)) of one pooling branch.

    Every grid point queries all keypoints: hits within radius ordered by
    (squared distance, index) and cut at cap, then the shared MLP given as
    (weight, bias) layers, rectified, and a channel max; an empty list gives
    zeros and a set flag.
    """
    n = positions.shape[0]
    feats = np.zeros((n, layers[-1][0].shape[0]), dtype=np.float64)
    empty = np.ones(n, dtype=bool)
    for g in range(n):
        diff = canon_xyz - positions[g]
        d2 = np.sum(diff * diff, axis=1)
        hits = np.flatnonzero(d2 <= radius * radius)
        idx = hits[np.lexsort((hits, d2[hits]))][:cap]
        if idx.size == 0:
            continue
        out = np.concatenate([canon_xyz[idx] - positions[g], features[idx]], axis=1).T
        for weight, bias in layers:
            out = np.maximum(weight @ out + bias[:, None], 0.0)
        feats[g] = np.max(out, axis=1)
        empty[g] = False
    return feats, empty


# ---------------------------------------------------------------------------
# RoI grid formulas as the package first wrote them: cell centers by meshgrid
# and stack, and the coarse lattice's levels by np.unique on each axis. The
# package fills the centers directly and checks the lattice with per-axis
# reductions; both are held to these functions.

def grid_cell_centers_meshgrid(dims, grid):
    """(G^3, 3) cell centers of a G-partition, x fastest then y then z."""
    axes = [((np.arange(grid) + 0.5) / grid - 0.5) * dims[a] for a in range(3)]
    z, y, x = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    return np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)


def corner_levels_unique(coarse_positions):
    """Per-axis (lo, hi) of np.unique's levels; None unless each axis has 2."""
    levels = [np.unique(coarse_positions[:, a]) for a in range(3)]
    if any(lv.size != 2 for lv in levels):
        return None
    return np.array([lv[0] for lv in levels]), np.array([lv[1] for lv in levels])


# ---------------------------------------------------------------------------
# Range-image binning by sort, as the package first wrote it: in-view rows
# sorted on (flat pixel id, range) with the stable np.lexsort, the first of
# each pixel's group kept. The package picks the same rows with two
# scatter-mins and is held to this function byte for byte.

def range_image_lexsort(rows, u, v, r, in_fov, h, w):
    """(planes (k, h, w), valid (h, w)) of the nearest row per pixel.

    `u`, `v` and `in_fov` place each row; `r` is the ranking key. Equal
    keys keep ascending input order, so a tie goes to the lowest index.
    """
    keep = np.flatnonzero(in_fov)
    pixel = np.floor(v[keep]).astype(np.int64) * w + np.floor(u[keep]).astype(np.int64)
    order = np.lexsort((r[keep], pixel))
    pixel_sorted = pixel[order]
    # Pixel ids are nonnegative, so the prepended -1 opens the first group.
    first = np.flatnonzero(np.diff(pixel_sorted, prepend=-1))
    won = pixel_sorted[first]
    planes = np.zeros((rows.shape[1], h * w), dtype=np.float64)
    planes[:, won] = rows[keep[order[first]]].T
    valid = np.zeros(h * w, dtype=bool)
    valid[won] = True
    return planes.reshape(-1, h, w), valid.reshape(h, w)
