"""Shared builders for randomized test instances."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rvredeem
from rvredeem.core import RangeImage, SensorModel
from rvredeem.pipeline import GRADCHECK_STEP, gradcheck_instance, gradcheck_losses
from rvredeem.rvfe import BasicBlockParams, BranchParams, HdMetaKernelParams, hdmk_forward_planes


def make_sensor(h: int, w: int) -> SensorModel:
    return SensorModel(height=h, width=w, fov_up=math.pi / 8, fov_down=math.pi / 8)


def records(xyz) -> np.ndarray:
    """(N, 4) `x y z intensity` records of the points `xyz`, intensity 0."""
    xyz = np.asarray(xyz, dtype=np.float64)
    return np.column_stack([xyz, np.zeros(len(xyz))])


def random_image(rng, h=8, w=16, n_feat=0, density=0.75) -> RangeImage:
    """Range image with a random mask and random per-pixel values.

    Coordinates are arbitrary (the type does not require projection
    consistency), ranges strictly positive, planes zeroed where invalid.
    """
    valid = rng.random((h, w)) < density
    planes = np.zeros((5 + n_feat, h, w), dtype=np.float64)
    planes[:3] = rng.uniform(-10.0, 10.0, size=(3, h, w))
    planes[3] = rng.uniform(0.0, 1.0, size=(h, w))
    planes[4] = rng.uniform(0.5, 40.0, size=(h, w))
    if n_feat:
        planes[5:] = rng.normal(size=(n_feat, h, w))
    planes *= valid
    return RangeImage(make_sensor(h, w), planes, valid)


def random_branch(rng, c_in, c_mid, c_half) -> BranchParams:
    return BranchParams(
        w1=rng.normal(scale=0.5, size=(c_mid, 3)),
        b1=rng.normal(scale=0.2, size=c_mid),
        w2=rng.normal(scale=0.5, size=(c_in, c_mid)),
        b2=rng.normal(scale=0.2, size=c_in),
        w_acc=rng.normal(scale=0.3, size=(c_half, 9 * c_in)),
        b_acc=rng.normal(scale=0.2, size=c_half),
    )


def random_hdmk_params(rng, c_in=4, c_mid=5, c_out=6) -> HdMetaKernelParams:
    half = c_out // 2
    return HdMetaKernelParams(
        random_branch(rng, c_in, c_mid, half),
        random_branch(rng, c_in, c_mid, half),
    )


def random_basicblock_params(rng, c_out=6, c_in=5) -> BasicBlockParams:
    return BasicBlockParams(
        conv1=rng.normal(scale=0.3, size=(c_out, c_in, 3, 3)),
        scale1=rng.uniform(0.8, 1.2, size=c_out),
        shift1=rng.normal(scale=0.1, size=c_out),
        conv2=rng.normal(scale=0.3, size=(c_out, c_out, 3, 3)),
        scale2=rng.uniform(0.8, 1.2, size=c_out),
        shift2=rng.normal(scale=0.1, size=c_out),
        proj=None if c_in == c_out else rng.normal(scale=0.3, size=(c_out, c_in)),
    )


def gradcheck_loss_mismatches(seed, dims, count=None) -> list[str]:
    """The tensors of the gradient-check instance whose batched losses
    (`gradcheck_losses`) differ in any byte from one forward call per
    perturbed element: every element, or `count` evenly spread."""
    img, params, upstream = gradcheck_instance(seed, dims)
    feat, valid = img.feature_planes, img.valid
    cols, coords = feat[:, valid], img.channels[:3, valid]
    mismatches = []
    for name, tensor in {"feat": feat, **params.tensors()}.items():
        elements = np.arange(tensor.size)
        if count is not None:
            elements = np.linspace(0, tensor.size - 1, count).astype(np.int64)
        one_by_one = []
        for step in (GRADCHECK_STEP, -GRADCHECK_STEP):
            for element in elements:
                value = tensor.copy()
                value.flat[element] += step
                if name == "feat":
                    out = hdmk_forward_planes(value[:, valid], coords, valid, params)
                else:
                    out = hdmk_forward_planes(cols, coords, valid, params.with_tensor(name, value))
                one_by_one.append(float(np.sum(upstream * out)))
        batched = gradcheck_losses(img, params, upstream, name, elements)
        if batched.shape != (2, len(elements)) or batched.tobytes() != np.array(one_by_one).tobytes():
            mismatches.append(name)
    return mismatches


def run_under_kernel(code: str, coretype: str) -> str:
    """The stdout of `python -c code` in a child process whose OpenBLAS
    runs the `coretype` kernel; the calling test skips where NumPy's BLAS
    is not an OpenBLAS DYNAMIC_ARCH build, which cannot be switched. The
    child imports the package the tests import, installed or not, and
    this module."""
    try:
        config = str(np.show_config(mode="dicts"))
    except TypeError:  # NumPy before 1.26 has no dict form
        config = ""
    if "DYNAMIC_ARCH" not in config:
        pytest.skip("NumPy's BLAS is not an OpenBLAS DYNAMIC_ARCH build")
    paths = [
        str(Path(rvredeem.__file__).parents[1]),
        str(Path(__file__).parent),
        os.environ.get("PYTHONPATH"),
    ]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
