"""File formats: LiDAR binary scans, ASCII PLY, pose files, run configuration,
and the binary checkpoint container.

All readers reject malformed input with positioned errors; nothing is read
partially and silently.
"""

from __future__ import annotations

import dataclasses
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backbone import scaled_layer_configs
from .geometry import RigidTransform, as_points

CHECKPOINT_MAGIC = b"ADRG"
CHECKPOINT_VERSION = 1
MIN_TRAIN_POINTS = 64  # smallest synthetic training cloud
POSE_ORTHONORMAL_TOL = 1e-3  # read_pose_file: rounding, not a shear or scale


class FormatError(ValueError):
    """Malformed input file; the message names the offending position."""


class CheckpointError(FormatError):
    pass


def _read_text(path, encoding: str) -> str:
    data = Path(path).read_bytes()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}: line {line}: byte {exc.start} is not "
                          f"valid {encoding}") from None


# ---------------------------------------------------------------------------
# LiDAR binary scans (float32 LE, stride 16: x, y, z, reflectance)


def read_lidar_bin(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) % 16 != 0:
        raise FormatError(
            f"{path}: length {len(data)} is not a multiple of 16 "
            f"(truncated record at byte {len(data) - len(data) % 16})")
    if not data:
        return np.zeros((0, 3))
    records = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    cloud = records[:, :3].astype(np.float64)
    if not np.isfinite(cloud).all():
        bad = int(np.argwhere(~np.isfinite(cloud))[0, 0])
        raise FormatError(f"{path}: non-finite coordinate in record {bad}")
    return cloud


# ---------------------------------------------------------------------------
# ASCII PLY


def write_ply(path, cloud) -> None:
    pts = as_points(cloud)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(pts)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    lines += ["%.9g %.9g %.9g" % (x, y, z) for x, y, z in pts]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_ply(path) -> np.ndarray:
    """The (N, 3) x, y, z columns of an ASCII PLY file's vertex element.

    Other vertex properties are read past; other elements must have count
    0. Each vertex row holds exactly one value per declared property, and
    only blank lines may follow the last row: anything else raises a
    ``FormatError`` naming its line, so no value is dropped unread."""
    lines = _read_text(path, "ascii").splitlines()
    n_vertex = None
    element = None
    properties: list[str] = []
    body_start = None
    if not lines or lines[0].strip() != "ply":
        raise FormatError(f"{path}: line 1: missing 'ply' magic")
    saw_format = False
    for i, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:] != ["ascii", "1.0"]:
                raise FormatError(f"{path}: line {i}: only 'format ascii 1.0' is supported")
            saw_format = True
        elif tokens[0] == "element":
            try:
                count = int(tokens[2]) if len(tokens) == 3 else -1
            except ValueError:
                count = -1
            if count < 0:
                raise FormatError(f"{path}: line {i}: expected 'element <name> <count>' "
                                  "with a nonnegative integer count")
            element = tokens[1]
            if element == "vertex":
                if n_vertex is not None:
                    raise FormatError(f"{path}: line {i}: repeats 'element vertex'")
                n_vertex = count
            elif count > 0:
                raise FormatError(f"{path}: line {i}: unsupported element '{tokens[1]}'")
        elif tokens[0] == "property":
            if element == "vertex":
                if tokens[-1] in properties:
                    raise FormatError(f"{path}: line {i}: repeats property '{tokens[-1]}'")
                properties.append(tokens[-1])
        elif tokens[0] == "end_header":
            body_start = i
            break
        else:
            raise FormatError(f"{path}: line {i}: unexpected header token '{tokens[0]}'")
    if body_start is None:
        raise FormatError(f"{path}: missing end_header")
    if not saw_format:
        raise FormatError(f"{path}: missing format declaration")
    if n_vertex is None:
        raise FormatError(f"{path}: missing 'element vertex' declaration")
    for name in ("x", "y", "z"):
        if name not in properties:
            raise FormatError(f"{path}: vertex element lacks property '{name}'")
    cols = [properties.index(n) for n in ("x", "y", "z")]

    body = lines[body_start:body_start + n_vertex]
    if len(body) < n_vertex:
        raise FormatError(f"{path}: expected {n_vertex} vertex lines, found {len(body)}")
    pts = np.zeros((n_vertex, 3))
    for row, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != len(properties):
            raise FormatError(f"{path}: line {body_start + row + 1}: "
                              f"expected {len(properties)} values, got {len(tokens)}")
        try:
            pts[row] = [float(tokens[c]) for c in cols]
        except ValueError as exc:
            raise FormatError(f"{path}: line {body_start + row + 1}: {exc}") from None
        if not np.isfinite(pts[row]).all():
            raise FormatError(f"{path}: line {body_start + row + 1}: non-finite coordinate")
    rest = body_start + n_vertex
    for lineno, line in enumerate(lines[rest:], start=rest + 1):
        if line.strip():
            raise FormatError(f"{path}: line {lineno}: data after the {n_vertex} vertex lines")
    return pts


# ---------------------------------------------------------------------------
# Pose files (12 reals per line, row-major 3x4)


def orthonormalize_rotation(m: np.ndarray) -> np.ndarray:
    """Project onto the nearest rotation matrix (SVD, determinant fixed)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def read_pose_file(path) -> list[RigidTransform]:
    """One transform per non-blank line of 12 reals, a row-major [R | t].

    Poses printed to 6-9 significant digits (as KITTI's are) hold their
    rotation to about 1e-6; the reader projects it onto the nearest
    rotation. A block with max |M^T M - I| above ``POSE_ORTHONORMAL_TOL``
    or det M <= 0 is a scale, shear, reflection or mistyped row, not
    rounding: projecting it would return another pose, so it raises a
    ``FormatError`` naming its line."""
    transforms = []
    for lineno, line in enumerate(_read_text(path, "utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 12:
            raise FormatError(f"{path}: line {lineno}: expected 12 values, got {len(tokens)}")
        try:
            vals = np.array([float(t) for t in tokens]).reshape(3, 4)
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
        if not np.isfinite(vals).all():
            raise FormatError(f"{path}: line {lineno}: non-finite value")
        block = vals[:, :3]
        with np.errstate(over="ignore", invalid="ignore"):
            off = np.abs(block.T @ block - np.eye(3)).max()
        if not off <= POSE_ORTHONORMAL_TOL:
            raise FormatError(f"{path}: line {lineno}: rotation block is not orthonormal "
                              f"(max |M^T M - I| is {off:.3g})")
        if np.linalg.det(block) <= 0:
            raise FormatError(f"{path}: line {lineno}: rotation block is a reflection")
        transforms.append(RigidTransform(orthonormalize_rotation(block), vals[:, 3]))
    return transforms


def write_pose_file(path, transforms) -> None:
    lines = []
    for t in transforms:
        lines.append(" ".join("%.17g" % v for v in t.as_matrix34().reshape(-1)))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Run configuration (flat "key = value" text)


@dataclass
class RunConfig:
    """Pipeline configuration; field defaults are the reference settings.
    Settings no run varies are constants: the noise betas and Sinkhorn's
    regularization and iterations are the defaults of ``make_schedule`` and
    ``sinkhorn``, and the decode temperature is ``DECODE_TEMPERATURE``."""

    voxel_size: float = 0.3
    sample_count: int = 16384
    gmm_components: int = 8          # J
    bgmm_topk: int = 2               # k of the bidirectional rejection rule
    candidates: int = 3              # K, both stages
    sampling_steps: int = 3          # S
    rot_weight: float = 4.0          # alpha
    trans_weight: float = 1.0        # beta
    diff_weight: float = 1.0         # gamma
    diffusion_steps: int = 1000      # T
    learning_rate: float = 1e-3
    lr_decay: float = 0.5
    lr_decay_every: int = 10
    seed: int = 0
    # Desk-scale training shape
    backbone_scale: float = 0.25
    train_points: int = 512
    train_pairs: int = 16
    val_pairs: int = 4
    batch_size: int = 4
    epochs: int = 50
    max_rot_deg: float = 10.0
    max_trans: float = 2.0
    jitter: float = 0.05
    outlier_clusters: int = 1

    _POSITIVE_COUNTS = (
        "sample_count", "gmm_components", "bgmm_topk",
        "candidates", "sampling_steps", "diffusion_steps", "lr_decay_every",
        "train_points", "train_pairs", "val_pairs", "batch_size", "epochs",
    )

    def __post_init__(self):
        for name in self._POSITIVE_COUNTS:
            if getattr(self, name) < 1:
                raise ValueError(f"config {name} must be >= 1")
        if self.outlier_clusters < 0:
            raise ValueError("config outlier_clusters must be >= 0")
        for name in ("rot_weight", "trans_weight", "diff_weight", "jitter",
                     "max_rot_deg", "max_trans"):
            if getattr(self, name) < 0:
                raise ValueError(f"config {name} must be >= 0")
        for f in dataclasses.fields(self):
            if f.type in (float, "float") and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"config {f.name} must be finite")
        for name in ("voxel_size", "learning_rate", "lr_decay", "backbone_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config {name} must be > 0")
        self._check_layer_sizes()

    def _check_layer_sizes(self):
        """Counts that must fit each other. The GMM, the rejection rule and
        the candidate search run on the coarse superpoints of the scaled
        layers; layer 1 samples its ``n_out`` of the ``sample_count`` points;
        DDIM visits at most ``diffusion_steps`` steps; a synthetic training
        cloud has at least ``MIN_TRAIN_POINTS`` points. A setting that breaks
        a rule would fail at the first registration or training step. Every
        integer field must lie in [0, 2**53): numpy's seeding takes no
        negative seed, and a float64 checkpoint tensor holds every integer
        below 2**53 exactly and not 2**53 + 1."""
        unstored = [f"{f.name} ({getattr(self, f.name)})" for f in dataclasses.fields(self)
                    if f.type in (int, "int") and not 0 <= getattr(self, f.name) < 2 ** 53]
        sizes = [cfg.n_out for cfg in scaled_layer_configs(self.backbone_scale)]
        scale = f"backbone_scale {self.backbone_scale!r}"
        where = f"the {sizes[-1]} coarse superpoints of {scale}"
        rules = (
            (sizes == sorted(sizes, reverse=True),
             f"{scale} gives layer sizes {sizes} that grow from layer to layer"),
            (self.bgmm_topk <= self.gmm_components, f"bgmm_topk ({self.bgmm_topk}) "
             f"must be <= gmm_components ({self.gmm_components})"),
            (self.gmm_components <= sizes[-1],
             f"gmm_components ({self.gmm_components}) must be <= {where}"),
            (max(3, self.candidates) <= sizes[-1],
             f"max(3, candidates) ({max(3, self.candidates)}) must be <= {where}"),
            (self.sample_count >= sizes[0], f"sample_count ({self.sample_count}) "
             f"must be >= the {sizes[0]} points layer 1 of {scale} samples"),
            (self.sampling_steps <= self.diffusion_steps, f"sampling_steps "
             f"({self.sampling_steps}) must be <= diffusion_steps ({self.diffusion_steps})"),
            (self.train_points >= MIN_TRAIN_POINTS,
             f"train_points ({self.train_points}) must be >= {MIN_TRAIN_POINTS}"),
            (not unstored, f"{', '.join(unstored)} must lie in [0, 2**53)"),
        )
        for holds, rule in rules:
            if not holds:
                raise ValueError(f"config {rule}")


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def fields_named_in(exc: ValueError, names) -> list[str]:
    """Those of ``names`` that a ``RunConfig`` error names: the fields whose
    values break its rule."""
    return [name for name in names if re.search(rf"\b{name}\b", str(exc))]


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, val = (p.strip() for p in line.partition("="))
        if key not in _CONFIG_FIELDS:
            raise FormatError(f"{source}: line {lineno}: unknown key '{key}'")
        if key in lines:
            raise FormatError(f"{source}: line {lineno}: '{key}' repeats line {lines[key]}")
        kind = _CONFIG_FIELDS[key]
        try:
            values[key] = int(val) if kind in (int, "int") else float(val)
        except ValueError:
            raise FormatError(f"{source}: line {lineno}: bad value '{val}' for '{key}'") from None
        lines[key] = lineno
    try:
        return RunConfig(**values)
    except ValueError as exc:
        # Point at the last line that set a field the message names.
        named = [lines[key] for key in fields_named_in(exc, lines)]
        where = f"{source}: line {max(named)}" if named else source
        raise FormatError(f"{where}: {exc}") from None


def format_config(cfg: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        lines.append(f"{f.name} = {value!r}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text(), source=str(path))


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(format_config(cfg))


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass
class Checkpoint:
    """Named float64 tensors (stored flat). A model's checkpoint holds its
    parameters, batch-norm buffers and config fields. The optimizer is not
    saved and the noise schedule follows from the config, so ``optim.*``
    and ``schedule.*`` tensors left by older writers are ignored."""

    version: int = CHECKPOINT_VERSION
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", ckpt.version))
        for name, arr in ckpt.tensors.items():
            encoded = name.encode("utf-8")
            flat = np.ascontiguousarray(arr, dtype="<f8").reshape(-1)
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", flat.size))
            fh.write(flat.tobytes())


def load_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 8:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: version {version} does not match supported {CHECKPOINT_VERSION}")
    tensors: dict[str, np.ndarray] = {}
    offset = 8
    while offset < len(data):
        if offset + 4 > len(data):
            raise CheckpointError(f"{path}: truncated record header at byte {offset}")
        (name_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if offset + name_len + 8 > len(data):
            raise CheckpointError(f"{path}: truncated record at byte {offset}")
        try:
            name = data[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"{path}: tensor name at byte {offset} is not valid UTF-8") from None
        if name in tensors:
            raise CheckpointError(
                f"{path}: tensor '{name}' at byte {offset} repeats an earlier tensor")
        offset += name_len
        (count,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        nbytes = count * 8
        if offset + nbytes > len(data):
            raise CheckpointError(f"{path}: tensor '{name}' truncated at byte {offset}")
        tensors[name] = np.frombuffer(data, dtype="<f8", count=count, offset=offset).copy()
        offset += nbytes
    return Checkpoint(version=version, tensors=tensors)
