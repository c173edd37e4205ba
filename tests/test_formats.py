"""Binary artifact formats: byte layouts, round trips, error contracts."""

import hashlib
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import util
from rvredeem import formats
from rvredeem.core import Box3D, FeaturePointCloud, RangeImage, SensorModel
from rvredeem.formats import (
    FormatError,
    as_stored,
    read_boxes,
    read_kitti_bin_array,
    read_rfp1,
    read_rri1,
    read_rrf1,
    read_rwt1,
    sha256_file,
    write_boxes,
    write_kitti_bin,
    write_rfp1,
    write_rri1,
    write_rrf1,
    write_rwt1,
)


def tiny_image():
    """1x2 sensor, pixel (0, 0) valid with hand-picked plane values."""
    sensor = SensorModel(1, 2, math.pi / 8, math.pi / 8)
    channels = np.zeros((5, 1, 2))
    channels[:, 0, 0] = [1.0, 2.0, 3.0, 0.5, math.sqrt(14.0)]
    valid = np.array([[True, False]])
    return RangeImage(sensor, channels, valid)


class TestRri1:
    def test_byte_layout(self, tmp_path):
        img = tiny_image()
        sensor, channels = img.sensor, img.channels
        path = tmp_path / "img.rri1"
        write_rri1(path, img)
        expected = b"RRI1" + struct.pack("<III", 1, 2, 5)
        for plane in range(5):
            expected += struct.pack("<ff", *channels[plane, 0])
        expected += bytes([1, 0])
        assert path.read_bytes() == expected

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(20)
        img = util.random_image(rng, 6, 12, n_feat=3)
        first = tmp_path / "a.rri1"
        second = tmp_path / "b.rri1"
        write_rri1(first, img)
        loaded = read_rri1(first, img.sensor)
        write_rri1(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        # values after one write are exactly the f32 rounding of the source
        assert np.array_equal(
            loaded.channels, img.channels.astype(np.float32).astype(np.float64)
        )
        assert np.array_equal(loaded.valid, img.valid)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "x.rri1"
        path.write_bytes(b"JUNK" + bytes(20))
        with pytest.raises(FormatError, match="magic"):
            read_rri1(path, SensorModel(1, 2, 0.1, 0.1))

    def test_rejects_truncation(self, tmp_path):
        rng = np.random.default_rng(21)
        img = util.random_image(rng, 4, 8, n_feat=0)
        path = tmp_path / "x.rri1"
        write_rri1(path, img)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="truncated"):
            read_rri1(path, img.sensor)

    def test_rejects_trailing_bytes(self, tmp_path):
        rng = np.random.default_rng(22)
        img = util.random_image(rng, 4, 8, n_feat=0)
        path = tmp_path / "x.rri1"
        write_rri1(path, img)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_rri1(path, img.sensor)

    def test_rejects_sensor_shape_mismatch(self, tmp_path):
        rng = np.random.default_rng(23)
        img = util.random_image(rng, 4, 8, n_feat=0)
        path = tmp_path / "x.rri1"
        write_rri1(path, img)
        other = SensorModel(8, 4, 0.1, 0.1)
        with pytest.raises(FormatError, match="8x4"):
            read_rri1(path, other)

    def test_rejects_validity_byte_other_than_0_or_1(self, tmp_path):
        # A 2 would read as valid, and writing the image back would give
        # different bytes.
        img = tiny_image()
        path = tmp_path / "x.rri1"
        write_rri1(path, img)
        path.write_bytes(path.read_bytes()[:-2] + bytes([2, 0]))
        with pytest.raises(FormatError, match=f"{path}: validity bytes must be 0 or 1"):
            read_rri1(path, img.sensor)


def rounding_image(extra):
    """2x3 image with one valid row; feature planes hold -0.0 at invalid
    pixels and, at valid ones, `extra` followed by values that exercise
    single-precision rounding."""
    sensor = SensorModel(2, 3, math.pi / 8, math.pi / 8)
    valid = np.array([[True, True, True], [False, False, False]])
    channels = np.full((8, 2, 3), -0.0)
    channels[:5, 0] = [
        [1.0, 2.0, 3.0], [0.5, 0.1, 0.2], [0.3, 0.4, 0.6], [0.0, 0.5, 1.0], [3.0, 4.0, 5.0]
    ]
    channels[5:, 0] = [
        [extra, 2.0**-149 * 1.5, 2.0**-149 * 0.5],  # subnormal tie, rounds to even
        [1.0 + 2.0**-24, 1.0 + 3 * 2.0**-24, -1e-50],  # normal ties, -0.0 by underflow
        [1e-40, 1.0 / 3.0, -2.0**-130],  # subnormals, ordinary rounding
    ]
    return RangeImage(sensor, channels, valid)


class TestAsStored:
    def test_matches_a_write_read_round_trip_byte_for_byte(self, tmp_path):
        img = rounding_image(0.1)
        path = tmp_path / "x.rri1"
        write_rri1(path, img)
        loaded = read_rri1(path, img.sensor)
        stored = as_stored(img.channels)
        assert stored.dtype == np.float64 and stored.shape == img.channels.shape
        assert stored.tobytes() == loaded.channels.tobytes()
        # The cases above do round, and both zero signs survive.
        assert stored.tobytes() != img.channels.tobytes()
        assert np.signbit(stored[6, 0, 2]) and np.signbit(stored[5, 1, 0])
        assert stored[3, 0, 0] == 0.0 and not np.signbit(stored[3, 0, 0])
        # Rounding twice changes nothing.
        assert as_stored(stored).tobytes() == stored.tobytes()

    def test_value_beyond_single_precision_raises_as_the_reader_does(self, tmp_path):
        img = rounding_image(1e39)
        # The file an unchecked f32 cast would write: 1e39 stored as inf.
        planes = np.where(img.channels == 1e39, math.inf, img.channels).ravel()
        path = tmp_path / "x.rri1"
        path.write_bytes(
            b"RRI1" + struct.pack("<III", 2, 3, 8) + struct.pack(f"<{planes.size}f", *planes)
            + img.valid.astype(np.uint8).tobytes()
        )
        with pytest.raises(ValueError) as from_file:
            read_rri1(path, img.sensor)
        # No overflow warning comes first, even where warnings are errors:
        # the value rounds to inf, which the image rejects as the reader does.
        feats = as_stored(img.feature_planes)
        assert feats[0, 0, 0] == math.inf
        base = RangeImage(img.sensor, img.channels[:5], img.valid)
        with pytest.raises(ValueError) as in_memory:
            base.with_features(feats)
        assert str(in_memory.value) == str(from_file.value) == "channels must be finite"
        # The writer refuses that file before opening it.
        refused = tmp_path / "y.rri1"
        with pytest.raises(FormatError, match=f"{refused.name}: channels must be finite"):
            write_rri1(refused, img)
        assert not refused.exists()

    def test_only_formats_names_single_precision(self):
        # One module rounds to and from f32; the others call `as_stored`.
        home = Path(formats.__file__)
        found = {
            path.name
            for path in sorted(home.parent.rglob("*.py"))
            if re.search(r"float32|[\"']<f4[\"']", path.read_text(encoding="utf-8"))
        }
        assert found == {home.name}


class TestRfp1:
    def test_byte_layout(self, tmp_path):
        cloud = FeaturePointCloud(
            np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            np.array([0.25, 0.75]),
            np.array([[9.0], [-9.0]]),
        )
        path = tmp_path / "c.rfp1"
        write_rfp1(path, cloud)
        expected = b"RFP1" + struct.pack("<II", 2, 1)
        expected += struct.pack("<fffff", 1.0, 2.0, 3.0, 0.25, 9.0)
        expected += struct.pack("<fffff", 4.0, 5.0, 6.0, 0.75, -9.0)
        assert path.read_bytes() == expected

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(24)
        cloud = FeaturePointCloud(
            rng.uniform(-30, 30, size=(40, 3)),
            rng.uniform(0, 1, size=40),
            rng.normal(size=(40, 7)),
        )
        first = tmp_path / "a.rfp1"
        second = tmp_path / "b.rfp1"
        write_rfp1(first, cloud)
        write_rfp1(second, read_rfp1(first))
        assert first.read_bytes() == second.read_bytes()

    def test_empty_cloud_round_trip(self, tmp_path):
        cloud = FeaturePointCloud(
            np.zeros((0, 3)), np.zeros(0), np.zeros((0, 4))
        )
        path = tmp_path / "e.rfp1"
        write_rfp1(path, cloud)
        loaded = read_rfp1(path)
        assert len(loaded) == 0 and loaded.feature_dim == 4

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "x.rfp1"
        path.write_bytes(b"RFP1" + struct.pack("<II", 3, 2))
        with pytest.raises(FormatError, match="truncated"):
            read_rfp1(path)

    @pytest.mark.parametrize("intensity", [math.nan, math.inf])
    def test_rejects_nonfinite_intensity(self, tmp_path, intensity):
        path = tmp_path / "n.rfp1"
        body = struct.pack("<fffff", 1.0, 2.0, 3.0, intensity, 9.0)
        path.write_bytes(b"RFP1" + struct.pack("<II", 1, 1) + body)
        with pytest.raises(ValueError, match="intensity must be finite"):
            read_rfp1(path)

    def test_write_refuses_value_beyond_single_precision(self, tmp_path):
        cloud = FeaturePointCloud(
            np.array([[1.0, 2.0, 3.0]]), np.array([0.5]), np.array([[-1e39]])
        )
        path = tmp_path / "big.rfp1"
        with pytest.raises(FormatError, match=f"{path.name}: point records must be finite"):
            write_rfp1(path, cloud)
        assert not path.exists()


class TestRwt1:
    def test_byte_layout(self, tmp_path):
        tensors = {"a.w": np.array([[1.0, 2.0]]), "b": np.array(3.0)}
        path = tmp_path / "w.rwt1"
        write_rwt1(path, tensors)
        expected = b"RWT1" + struct.pack("<I", 2)
        expected += struct.pack("<H", 3) + b"a.w" + struct.pack("<B", 2)
        expected += struct.pack("<II", 1, 2) + struct.pack("<ff", 1.0, 2.0)
        expected += struct.pack("<H", 1) + b"b" + struct.pack("<B", 0)
        expected += struct.pack("<f", 3.0)
        assert path.read_bytes() == expected

    def test_round_trip_preserves_order_and_values(self, tmp_path):
        rng = np.random.default_rng(25)
        tensors = {
            "layer.0.w": rng.normal(size=(4, 3)),
            "layer.0.b": rng.normal(size=4),
            "scalar": np.array(rng.normal()),
            "cube": rng.normal(size=(2, 2, 2)),
        }
        first = tmp_path / "a.rwt1"
        second = tmp_path / "b.rwt1"
        write_rwt1(first, tensors)
        loaded = read_rwt1(first)
        assert list(loaded) == list(tensors)
        write_rwt1(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        for name, arr in tensors.items():
            assert np.array_equal(
                loaded[name], arr.astype(np.float32).astype(np.float64)
            )

    def test_rejects_duplicate_names(self, tmp_path):
        record = struct.pack("<H", 1) + b"t" + struct.pack("<B", 0)
        record += struct.pack("<f", 1.0)
        path = tmp_path / "x.rwt1"
        path.write_bytes(b"RWT1" + struct.pack("<I", 2) + record + record)
        with pytest.raises(FormatError, match="duplicate"):
            read_rwt1(path)

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "x.rwt1"
        path.write_bytes(b"RWT1" + struct.pack("<I", 1) + struct.pack("<H", 5))
        with pytest.raises(FormatError, match="truncated"):
            read_rwt1(path)

    @pytest.mark.parametrize("dims", [(65536,) * 4, (2**21, 2**21, 2**21 + 1)])
    def test_rejects_dims_whose_size_overflows_int64(self, tmp_path, dims):
        # Both element counts wrap in 64 bits; the file is too short for either.
        record = struct.pack("<H", 1) + b"t" + struct.pack("<B", len(dims))
        record += struct.pack(f"<{len(dims)}I", *dims) + struct.pack("<f", 1.0)
        path = tmp_path / "x.rwt1"
        path.write_bytes(b"RWT1" + struct.pack("<I", 1) + record)
        with pytest.raises(FormatError, match=f"{path}: truncated file"):
            read_rwt1(path)

    @pytest.mark.parametrize("value", [1e39, math.nan])
    def test_write_refuses_nonfinite_single_precision(self, tmp_path, value):
        path = tmp_path / "big.rwt1"
        tensors = {"ok": np.ones(2), "bad": np.array([[0.0, value]])}
        with pytest.raises(FormatError, match=f"{path.name}: bad must be finite"):
            write_rwt1(path, tensors)
        assert not path.exists()

    def test_write_refuses_name_too_long(self, tmp_path):
        path = tmp_path / "long.rwt1"
        with pytest.raises(FormatError, match=f"{path.name}: tensor name too long"):
            write_rwt1(path, {"ok": np.ones(2), "n" * 0x10000: np.ones(2)})
        assert not path.exists()
        # The longest name a u16 length holds is accepted.
        write_rwt1(path, {"n" * 0xFFFF: np.ones(2)})
        assert list(read_rwt1(path)) == ["n" * 0xFFFF]

    def test_rejects_name_that_is_not_utf8(self, tmp_path):
        record = struct.pack("<H", 1) + b"\xff" + struct.pack("<B", 0)
        record += struct.pack("<f", 1.0)
        path = tmp_path / "x.rwt1"
        path.write_bytes(b"RWT1" + struct.pack("<I", 1) + record)
        with pytest.raises(FormatError, match=f"{path}: tensor name is not UTF-8"):
            read_rwt1(path)


class TestRrf1:
    def test_byte_layout(self, tmp_path):
        path = tmp_path / "r.rrf1"
        write_rrf1(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        expected = b"RRF1" + struct.pack("<II", 2, 2)
        expected += struct.pack("<ffff", 1.0, 2.0, 3.0, 4.0)
        assert path.read_bytes() == expected

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(26)
        vectors = rng.normal(size=(5, 11))
        first = tmp_path / "a.rrf1"
        second = tmp_path / "b.rrf1"
        write_rrf1(first, vectors)
        write_rrf1(second, read_rrf1(first))
        assert first.read_bytes() == second.read_bytes()

    def test_zero_boxes(self, tmp_path):
        path = tmp_path / "z.rrf1"
        write_rrf1(path, np.zeros((0, 9)))
        assert read_rrf1(path).shape == (0, 9)

    def test_rejects_non_matrix(self, tmp_path):
        path = tmp_path / "x.rrf1"
        with pytest.raises(FormatError, match=f"{path.name}: RoI payload must be \\(boxes, length\\)"):
            write_rrf1(path, np.zeros(4))
        assert not path.exists()

    @pytest.mark.parametrize("value", [1e39, math.nan])
    def test_write_refuses_nonfinite_single_precision(self, tmp_path, value):
        path = tmp_path / "big.rrf1"
        with pytest.raises(FormatError, match=f"{path.name}: RoI vectors must be finite"):
            write_rrf1(path, np.array([[value, 1.0]]))
        assert not path.exists()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, tmp_path, value):
        path = tmp_path / "n.rrf1"
        path.write_bytes(b"RRF1" + struct.pack("<II", 1, 2) + struct.pack("<ff", 1.0, value))
        with pytest.raises(FormatError, match=f"{path.name}: RoI vectors must be finite"):
            read_rrf1(path)


# One well-formed file per headed format, built from struct bytes, and how to
# read it.
HEADED_FILES = {
    "RRI1": (
        b"RRI1" + struct.pack("<III", 1, 2, 5) + bytes(40) + bytes([0, 0]),
        lambda path: read_rri1(path, SensorModel(1, 2, 0.1, 0.1)),
    ),
    "RFP1": (
        b"RFP1" + struct.pack("<II", 1, 1) + struct.pack("<5f", 1.0, 2.0, 3.0, 0.5, 9.0),
        read_rfp1,
    ),
    "RWT1": (
        b"RWT1" + struct.pack("<IH", 1, 1) + b"t" + struct.pack("<BI2f", 1, 2, 1.0, 2.0),
        read_rwt1,
    ),
    "RRF1": (b"RRF1" + struct.pack("<II2f", 1, 2, 1.0, 2.0), read_rrf1),
}

# Each damage to a well-formed file, and the error that follows the path.
DAMAGES = {
    "wrong magic": (lambda data: b"JUNK" + data[4:], "missing {magic} magic"),
    "shorter than magic": (lambda data: data[:3], "missing {magic} magic"),
    "truncated payload": (lambda data: data[:-1], "truncated file"),
    "trailing byte": (lambda data: data + b"\x00", "1 trailing byte\\(s\\)"),
}


class TestReaderContract:
    @pytest.mark.parametrize("magic", sorted(HEADED_FILES))
    def test_well_formed_file_reads(self, tmp_path, magic):
        data, read = HEADED_FILES[magic]
        path = tmp_path / f"x.{magic.lower()}"
        path.write_bytes(data)
        read(path)

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    @pytest.mark.parametrize("magic", sorted(HEADED_FILES))
    def test_damaged_file_raises_naming_the_path(self, tmp_path, magic, damage):
        data, read = HEADED_FILES[magic]
        corrupt, message = DAMAGES[damage]
        path = tmp_path / f"x.{magic.lower()}"
        path.write_bytes(corrupt(data))
        expected = re.escape(str(path)) + ": " + message.format(magic=magic)
        with pytest.raises(FormatError, match=expected):
            read(path)


def scan_cloud():
    """35,863 points with 64 features: the scan workload's redeemed cloud."""
    rng = np.random.default_rng(30)
    n = 35_863
    return FeaturePointCloud(
        rng.uniform(-60, 60, size=(n, 3)), rng.uniform(0, 1, size=n), rng.normal(size=(n, 64))
    )


def traced_peak(call):
    """`call()`'s result and the traced peak of Python and NumPy allocations
    while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestArtifactMemory:
    def test_write_rfp1_peak_is_the_record_matrix(self, tmp_path):
        # One f32 record matrix goes out as its own buffer; copying it to
        # bytes and joining a header to them held three times the file.
        cloud = scan_cloud()
        path = tmp_path / "c.rfp1"
        _, peak = traced_peak(lambda: write_rfp1(path, cloud))
        assert peak <= 1.2 * path.stat().st_size

    def test_read_rfp1_peak_is_the_file_and_the_cloud(self, tmp_path):
        # The file's bytes, read once, and the cloud built from views of
        # them; slicing the payload out of the bytes held a second copy.
        path = tmp_path / "c.rfp1"
        write_rfp1(path, scan_cloud())
        cloud, peak = traced_peak(lambda: read_rfp1(path))
        own = cloud.xyz.nbytes + cloud.intensity.nbytes + cloud.features.nbytes
        assert peak <= own + 1.5 * path.stat().st_size


class TestKittiBin:
    def test_two_point_file(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(
            struct.pack("<8f", 1.0, 2.0, 3.0, 0.5, -4.0, 0.0, 3.0, 1.0)
        )
        records = read_kitti_bin_array(path)
        np.testing.assert_array_equal(
            records, [[1.0, 2.0, 3.0, 0.5], [-4.0, 0.0, 3.0, 1.0]]
        )

    def test_rejects_bad_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(17))
        with pytest.raises(FormatError, match="multiple of 16"):
            read_kitti_bin_array(path)

    def test_nonfinite_names_record_index(self, tmp_path):
        records = np.zeros((3, 4), dtype="<f4")
        records[:, 0] = [1.0, 2.0, 3.0]
        records[1, 2] = np.nan
        path = tmp_path / "nan.bin"
        path.write_bytes(records.tobytes())
        with pytest.raises(FormatError, match="record 1"):
            read_kitti_bin_array(path)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(27)
        records = np.column_stack(
            [rng.uniform(-40, 40, size=(30, 3)), rng.uniform(0, 1, size=30)]
        )
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        write_kitti_bin(first, records)
        write_kitti_bin(second, read_kitti_bin_array(first))
        assert first.read_bytes() == second.read_bytes()

    def test_write_refuses_value_beyond_single_precision(self, tmp_path):
        path = tmp_path / "big.bin"
        with pytest.raises(FormatError, match=f"{path.name}: points must be finite"):
            write_kitti_bin(path, np.array([[1.0, 2.0, 1e39, 0.5]]))
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(4, 3), (4,), (2, 2, 4)])
    def test_write_rejects_rows_without_intensity(self, tmp_path, shape):
        # Three-column rows would be read back as fewer, scrambled records.
        path = tmp_path / "p.bin"
        with pytest.raises(FormatError, match="need \\(N, >= 4\\) point rows"):
            write_kitti_bin(path, np.ones(shape))
        assert not path.exists()


class TestBoxFile:
    def test_round_trip_exact(self, tmp_path):
        boxes = [
            Box3D(1.25, -2.5, 0.3, 4.1, 1.9, 1.6, 0.7853981633974483),
            Box3D(-7.0, 3.5, -0.5, 3.3, 1.7, 1.4, -2.1),
        ]
        path = tmp_path / "b.txt"
        write_boxes(path, boxes)
        assert read_boxes(path) == boxes

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("# header\n\n1 2 0.5 4 2 1.5 0  # trailing\n")
        boxes = read_boxes(path)
        assert boxes == [Box3D(1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.0)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("")
        assert read_boxes(path) == []
        write_boxes(path, [])
        assert path.read_text() == ""

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 2 3 4 5 6 7\n1 2 3\n")
        with pytest.raises(FormatError, match=":2"):
            read_boxes(path)

    def test_non_numeric_error(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 2 3 4 five 6 7\n")
        with pytest.raises(FormatError, match="non-numeric"):
            read_boxes(path)

    def test_invalid_box_error(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 0 0 -1 1 1 0\n")
        with pytest.raises(FormatError, match="positive"):
            read_boxes(path)

    def test_box_whose_squared_diagonal_overflows_names_line(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 0 0 1 1 1 0\n0 0 0 1e300 1 1 0\n")
        with pytest.raises(FormatError) as raised:
            read_boxes(path)
        assert str(raised.value) == f"{path}:2: box length^2 + width^2 + height^2 must be finite"


class TestSha256:
    def test_known_digest(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"abc")
        assert sha256_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_large_file_is_hashed_in_blocks(self, tmp_path):
        # A 16 MB file: reading it whole would hold all of it at once.
        data = np.random.default_rng(3).bytes(16 << 20)
        path = tmp_path / "big"
        path.write_bytes(data)
        expected = hashlib.sha256(data).hexdigest()
        del data
        digest, peak = traced_peak(lambda: sha256_file(path))
        assert digest == expected
        assert peak < 2 << 20
