import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adreg import io as aio
from adreg.geometry import RigidTransform

PLY_HEADER = "ply\nformat ascii 1.0\n"
XYZ = "property float x\nproperty float y\nproperty float z\n"


class TestLidarBin:
    def test_two_point_fixture(self, tmp_path):
        path = tmp_path / "scan.bin"
        payload = struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, 0.1)
        path.write_bytes(payload)
        cloud = aio.read_lidar_bin(path)
        np.testing.assert_allclose(cloud, [[1, 2, 3], [4, 5, 6]])

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert aio.read_lidar_bin(path).shape == (0, 3)

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(aio.FormatError, match="byte 16"):
            aio.read_lidar_bin(path)


class TestPly:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = rng.normal(size=(100, 3)) * 20
        path = tmp_path / "cloud.ply"
        aio.write_ply(path, cloud)
        back = aio.read_ply(path)
        assert np.abs(back - cloud).max() < 1e-6

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.ply"
        aio.write_ply(path, np.zeros((0, 3)))
        assert aio.read_ply(path).shape == (0, 3)
        assert "element vertex 0" in path.read_text()

    def test_missing_end_header(self, tmp_path):
        path = tmp_path / "broken.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 0\n")
        with pytest.raises(aio.FormatError, match="end_header"):
            aio.read_ply(path)

    def test_unsupported_element(self, tmp_path):
        path = tmp_path / "faces.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 0\n"
                        "property float x\nproperty float y\nproperty float z\n"
                        "element face 2\nend_header\n")
        with pytest.raises(aio.FormatError, match="line 7"):
            aio.read_ply(path)

    @pytest.mark.parametrize("payload, where", [
        ((PLY_HEADER + "element vertex\n" + XYZ + "end_header\n").encode(), "line 3"),
        ((PLY_HEADER + "element vertex 0\n" + XYZ + "element face\nend_header\n").encode(),
         "line 7"),
        ((PLY_HEADER + "element\nend_header\n").encode(), "line 3"),
        ((PLY_HEADER + "element vertex x\n" + XYZ + "end_header\n").encode(), "line 3"),
        ((PLY_HEADER + "element vertex -1\n" + XYZ + "end_header\n").encode(), "line 3"),
        ((PLY_HEADER + "element vertex 2\n" + XYZ + "end_header\n1 2 3\nnan 0 0\n").encode(),
         "line 9"),
        ((PLY_HEADER + "comment caf\u00e9\nelement vertex 0\n" + XYZ
          + "end_header\n").encode("utf-8"), "line 3"),
    ], ids=["vertex-no-count", "face-no-count", "bare-element", "vertex-count-x",
            "vertex-count-negative", "nan-vertex", "non-ascii-header"])
    def test_malformed_input_raises_positioned_format_error(self, tmp_path, payload, where):
        path = tmp_path / "bad.ply"
        path.write_bytes(payload)
        with pytest.raises(aio.FormatError, match=where):
            aio.read_ply(path)

    def test_properties_of_an_empty_face_element_ignored(self, tmp_path):
        path = tmp_path / "mesh.ply"
        path.write_text(PLY_HEADER + "element vertex 1\n" + XYZ + "element face 0\n"
                        "property list uchar int vertex_indices\nend_header\n1 2 3\n")
        np.testing.assert_allclose(aio.read_ply(path), [[1, 2, 3]])

    def test_extra_properties_ok(self, tmp_path):
        path = tmp_path / "extra.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                        "property float intensity\nproperty float x\n"
                        "property float y\nproperty float z\nend_header\n"
                        "9.5 1 2 3\n")
        np.testing.assert_allclose(aio.read_ply(path), [[1, 2, 3]])


class TestPoseFile:
    def test_identity_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
        records = aio.read_pose_file(path)
        assert len(records) == 1 and records[0].frame == 0
        np.testing.assert_array_equal(records[0].transform.rotation, np.eye(3))

    def test_wrong_token_count(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 0 0 1 0 0 0 0 1\n")
        with pytest.raises(aio.FormatError, match="line 2"):
            aio.read_pose_file(path)

    @pytest.mark.parametrize("payload, where", [
        (b"1 0 0 0 0 1 0 0 0 0 1 0\nnan 0 0 0 0 1 0 0 0 0 1 0\n", "line 2"),
        (b"1 0 0 inf 0 1 0 0 0 0 1 0\n", "line 1"),
        (b"1 0 0 0 0 1 0 0 0 0 1 0\n\xff 0 0 0 0 1 0 0 0 0 1 0\n", "line 2"),
    ], ids=["nan", "inf", "not-utf8"])
    def test_malformed_input_raises_positioned_format_error(self, tmp_path, payload, where):
        path = tmp_path / "poses.txt"
        path.write_bytes(payload)
        with pytest.raises(aio.FormatError, match=where):
            aio.read_pose_file(path)

    def test_orthonormalization(self, tmp_path):
        rng = np.random.default_rng(1)
        rot = np.eye(3) + rng.normal(scale=1e-4, size=(3, 3))
        vals = np.hstack([rot, np.array([[1.0], [2.0], [3.0]])]).reshape(-1)
        path = tmp_path / "poses.txt"
        path.write_text(" ".join("%.10f" % v for v in vals) + "\n")
        t = aio.read_pose_file(path)[0].transform
        assert np.abs(t.rotation.T @ t.rotation - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(t.rotation) - 1) < 1e-9

    def test_write_read_round_trip(self, tmp_path):
        from adreg.geometry import random_rigid_transform
        rng = np.random.default_rng(2)
        transforms = [random_rigid_transform(rng, 90, 3) for _ in range(4)]
        path = tmp_path / "poses.txt"
        aio.write_pose_file(path, transforms)
        back = aio.read_pose_file(path)
        for orig, rec in zip(transforms, back):
            assert np.abs(rec.transform.rotation - orig.rotation).max() < 1e-12
            assert np.abs(rec.transform.translation - orig.translation).max() < 1e-12


class TestRunConfig:
    def test_defaults_match_reference(self):
        cfg = aio.RunConfig()
        assert cfg.voxel_size == 0.3
        assert cfg.sample_count == 16384
        assert cfg.gmm_components == 8
        assert cfg.candidates == 3
        assert cfg.sampling_steps == 3
        assert cfg.rot_weight == 4.0
        assert cfg.trans_weight == 1.0
        assert cfg.diff_weight == 1.0
        assert cfg.learning_rate == 1e-3
        assert cfg.lr_decay == 0.5 and cfg.lr_decay_every == 10
        assert cfg.seed == 0

    def test_parse_round_trip_fixed_point(self):
        cfg = aio.RunConfig(gmm_components=12, jitter=0.01, seed=7)
        text = aio.format_config(cfg)
        again = aio.parse_config(text)
        assert again == cfg
        assert aio.format_config(again) == text

    def test_comments_and_blank_lines(self):
        cfg = aio.parse_config("# comment\n\nseed = 3  # trailing\ncandidates = 5\n")
        assert cfg.seed == 3 and cfg.candidates == 5

    def test_unknown_key(self):
        with pytest.raises(aio.FormatError, match="line 1"):
            aio.parse_config("bogus = 1\n")

    def test_invalid_value(self):
        with pytest.raises(aio.FormatError):
            aio.parse_config("gmm_components = 0\n")

    @pytest.mark.parametrize("text, line, fields", [
        # K = 40 candidates among the 8 coarse superpoints of scale 1/32.
        ("seed = 1\ncandidates = 40\nbackbone_scale = 0.03125\n", 3,
         ("candidates", "backbone_scale")),
        # The rejection rule's k = 9 exceeds the J = 8 mixture components.
        ("bgmm_topk = 9\n", 1, ("bgmm_topk", "gmm_components")),
        # Scale 1/64 leaves 4 coarse superpoints for 8 components.
        ("backbone_scale = 0.015625\n", 1, ("gmm_components", "backbone_scale")),
    ], ids=["candidates-40-at-1/32", "topk-9-of-8", "scale-1/64"])
    def test_settings_that_do_not_fit_the_coarse_layer(self, text, line, fields):
        with pytest.raises(aio.FormatError, match=f"line {line}: ") as err:
            aio.parse_config(text)
        for name in fields:
            assert name in str(err.value)

    @pytest.mark.parametrize("text, line, fields", [
        # DDIM cannot visit 20 of 10 diffusion steps.
        ("sampling_steps = 20\ndiffusion_steps = 10\nseed = 1\n", 2,
         ("sampling_steps", "diffusion_steps")),
        ("diffusion_steps = 10\nsampling_steps = 20\n", 2,
         ("sampling_steps", "diffusion_steps")),
        # Layer 1 of scale 0.25 samples 256 points.
        ("sample_count = 100\nseed = 2\n", 1, ("sample_count", "backbone_scale")),
        ("sample_count = 100\nbackbone_scale = 0.25\nseed = 2\n", 2,
         ("sample_count", "backbone_scale")),
        # A synthetic training cloud has at least 64 points.
        ("seed = 3\ntrain_points = 63\n", 2, ("train_points",)),
        # numpy's seeding rejects a negative seed; a float64 checkpoint
        # tensor holds every seed below 2**53, and not 2**53 + 1.
        ("train_points = 64\nseed = -1\n", 2, ("seed",)),
        ("seed = 9007199254740993\n", 1, ("seed",)),
        # So does every other integer field.
        ("epochs = 9007199254740993\nseed = 4\n", 1, ("epochs",)),
    ], ids=["steps-after", "steps-before", "sample-count", "sample-count-scale",
            "train-points", "negative-seed", "seed-2**53+1", "epochs-2**53+1"])
    def test_settings_that_fail_at_first_use(self, text, line, fields):
        with pytest.raises(aio.FormatError, match=f"line {line}: ") as err:
            aio.parse_config(text)
        for name in fields:
            assert name in str(err.value)

    def test_train_points_below_layer_one_fail_before_training(self):
        # 200 scene points and one 16-point outlier cluster make at most 216
        # points; layer 1 of the default scale 0.25 samples 256. Such a
        # config still registers, so only train() rejects it.
        from adreg import training

        config = aio.RunConfig(train_points=200, train_pairs=2, val_pairs=1,
                               epochs=1, batch_size=2)
        with pytest.raises(ValueError, match=r"train_points \(200\) .* 216 .* 256 ") as err:
            training.train(config)
        assert "backbone_scale 0.25" in str(err.value)

    def test_first_use_bounds_are_inclusive(self):
        aio.RunConfig(sampling_steps=10, diffusion_steps=10, sample_count=256,
                      train_points=aio.MIN_TRAIN_POINTS)

    def test_layer_sizes_of_accepted_settings(self):
        for scale in (1.0, 0.25, 1 / 32):
            aio.RunConfig(backbone_scale=scale)
        # The tiny training config: J = 4 and k = 2 at scale 1/32.
        aio.RunConfig(backbone_scale=1 / 32, gmm_components=4, bgmm_topk=2)
        with pytest.raises(ValueError, match="bgmm_topk"):
            aio.RunConfig(bgmm_topk=9)

    @pytest.mark.parametrize("text", [
        "voxel_size = nan\n", "voxel_size = inf\n", "learning_rate = 1e999\n",
        "jitter = nan\n",
    ])
    def test_non_finite_value(self, text):
        with pytest.raises(aio.FormatError, match="finite"):
            aio.parse_config(text)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        ckpt = aio.Checkpoint(tensors={
            "param.a": rng.normal(size=17),
            "param.b": rng.normal(size=(4, 5)).reshape(-1),
            "optim.step": np.array([3.0]),
        })
        path = tmp_path / "model.ckpt"
        aio.save_checkpoint(ckpt, path)
        back = aio.load_checkpoint(path)
        assert back.version == aio.CHECKPOINT_VERSION
        assert list(back.tensors) == list(ckpt.tensors)
        for name in ckpt.tensors:
            assert back.tensors[name].tobytes() == ckpt.tensors[name].reshape(-1).tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(aio.CheckpointError, match="magic"):
            aio.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "new.ckpt"
        aio.save_checkpoint(aio.Checkpoint(version=aio.CHECKPOINT_VERSION + 1), path)
        with pytest.raises(aio.CheckpointError, match="version"):
            aio.load_checkpoint(path)

    @pytest.mark.parametrize("payload, where", [
        (aio.CHECKPOINT_MAGIC + struct.pack("<I", aio.CHECKPOINT_VERSION)
         + struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<Q", 0), "byte 12"),
    ], ids=["name-not-utf8"])
    def test_malformed_input_raises_positioned_format_error(self, tmp_path, payload, where):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(payload)
        with pytest.raises(aio.CheckpointError, match=where):
            aio.load_checkpoint(path)

    def test_repeated_tensor_name(self, tmp_path):
        def record(name, values):
            return (struct.pack("<I", len(name)) + name
                    + struct.pack("<Q", len(values)) + struct.pack(f"<{len(values)}d", *values))

        header = aio.CHECKPOINT_MAGIC + struct.pack("<I", aio.CHECKPOINT_VERSION)
        first = record(b"x", [1.0])
        path = tmp_path / "twice.ckpt"
        path.write_bytes(header + first + record(b"x", [3.0, 2.0]))
        # The repeat's name starts after the header, the first record and
        # the repeat's 4-byte name length.
        where = len(header) + len(first) + 4
        with pytest.raises(aio.CheckpointError, match=f"'x' at byte {where} repeats"):
            aio.load_checkpoint(path)

    def test_truncated_tensor(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        aio.save_checkpoint(aio.Checkpoint(tensors={"x": np.arange(8.0)}), path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(aio.CheckpointError, match="truncated"):
            aio.load_checkpoint(path)


# ---------------------------------------------------------------------------
# Fuzzing: every reader fails on malformed input with a FormatError only.

PLY_LINES = st.sampled_from([
    "ply", "format ascii 1.0", "format binary_little_endian 1.0", "element vertex 1",
    "element vertex 2", "element vertex", "element vertex -1", "element vertex x",
    "element face 1", "element face 0", "element", "property float x",
    "property float y", "property float z", "property", "end_header", "comment c",
    "1 2 3", "nan 0 0", "0 inf 0", "1e999 0 0", "1 2", "x y z", "",
])
NUMBERS = st.sampled_from(["0", "1", "-1", "0.5", "1e308", "-1e308", "1e-320", "nan",
                           "inf", "-inf", "x", "1_0", "1e999"])


def _lines(strategy, prefix=()):
    return st.lists(strategy, max_size=14).map(
        lambda lines: "\n".join(list(prefix) + lines).encode("utf-8"))


def _fails_only_with_format_error(reader, fuzz_dir, payload: bytes):
    path = fuzz_dir / "input"
    path.write_bytes(payload)
    try:
        reader(path)
    except aio.FormatError:
        pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestReaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(payload=st.one_of(
        st.binary(max_size=200),
        _lines(st.one_of(PLY_LINES, st.text(max_size=12))),
        _lines(PLY_LINES, prefix=("ply", "format ascii 1.0", "element vertex 2",
                                  "property float x", "property float y",
                                  "property float z", "end_header"))))
    def test_read_ply(self, fuzz_dir, payload):
        _fails_only_with_format_error(aio.read_ply, fuzz_dir, payload)

    @settings(max_examples=300, deadline=None)
    @given(payload=st.one_of(
        st.binary(max_size=200),
        _lines(st.lists(NUMBERS, min_size=11, max_size=13).map(" ".join)),
        _lines(st.text(max_size=40))))
    def test_read_pose_file(self, fuzz_dir, payload):
        _fails_only_with_format_error(aio.read_pose_file, fuzz_dir, payload)

    @settings(max_examples=300, deadline=None)
    @given(payload=st.one_of(
        st.binary(max_size=64).map(lambda b: aio.CHECKPOINT_MAGIC + b),
        st.lists(st.tuples(st.binary(max_size=8), st.integers(0, 4),
                           st.binary(max_size=40)), max_size=3).map(
            lambda records: aio.CHECKPOINT_MAGIC
            + struct.pack("<I", aio.CHECKPOINT_VERSION)
            + b"".join(struct.pack("<I", len(name)) + name + struct.pack("<Q", count)
                       + body for name, count, body in records)),
        st.binary(max_size=64)))
    def test_load_checkpoint(self, fuzz_dir, payload):
        _fails_only_with_format_error(aio.load_checkpoint, fuzz_dir, payload)

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(max_size=80),
        st.lists(st.tuples(st.sampled_from(sorted(aio.RunConfig.__dataclass_fields__)
                                           + ["bogus", ""]),
                           st.one_of(NUMBERS, st.text(max_size=8))),
                 max_size=6).map(
            lambda pairs: "\n".join(f"{k} = {v}" for k, v in pairs))))
    def test_parse_config(self, text):
        try:
            aio.parse_config(text)
        except aio.FormatError:
            pass
