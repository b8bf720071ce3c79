"""Synthetic flow pairs, flow-file and image I/O, metrics, visualization.

Ground truth is exact by construction: the second image is a backward
warp of the first, so each pixel p of the warped frame corresponds to
position p + gt(p) in the texture frame with no resampling error. The
warped frame is therefore the natural query stream for a matcher, and
the training and evaluation drivers feed it as such.

Everything here is plain numpy; nothing needs gradients.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, FormatError

FLO_MAGIC = 202021.25
# Middlebury convention for unknown flow; used to encode masked pixels
UNKNOWN_FLOW = 1e10
TEXTURES = ("smoothed-noise", "sinusoid-mixture")
MOTIONS = ("constant", "affine", "sinusoidal-field")
# Fl-all counts a pixel as an outlier above this end-point error, in pixels
TAU = 3.0


@dataclass
class FlowField:
    """Dense displacement field (2, H, W); u right-positive, v down-positive.

    ``valid`` is a boolean (H, W) mask; None in the constructor means
    every pixel is valid and is stored as an all-true mask.
    """

    flow: np.ndarray
    valid: np.ndarray | None = None

    def __post_init__(self):
        arr = self.flow
        if arr.ndim != 3 or arr.shape[0] != 2:
            raise DimensionError(f"flow must be (2,H,W), got {arr.shape}")
        if self.valid is None:
            self.valid = np.ones(arr.shape[1:], dtype=bool)
        elif self.valid.shape != arr.shape[1:]:
            raise DimensionError(
                f"valid mask {self.valid.shape} does not match flow {arr.shape}")

    def valid_mask(self) -> np.ndarray:
        return self.valid


@dataclass
class DatasetSpec:
    """Recipe for one rendered dataset: the sample family, then how many
    pairs to draw. ``gen_pair`` reads every field but ``pairs``."""

    height: int = 64
    width: int = 64
    texture: str = "smoothed-noise"
    motion: str = "affine"
    mag_min: float = 0.5
    mag_max: float = 2.0
    seed: int = 0
    pairs: int = 8

    def validate(self) -> None:
        if self.pairs < 1:
            raise ConfigError(f"pairs must be positive, got {self.pairs}")
        if self.height < 16 or self.width < 16:
            raise ConfigError(
                f"generated size must be at least 16x16, got "
                f"{self.height}x{self.width}")
        if self.texture not in TEXTURES:
            raise ConfigError(f"texture must be one of {TEXTURES}")
        if self.motion not in MOTIONS:
            raise ConfigError(f"motion must be one of {MOTIONS}")
        if not (np.isfinite(self.mag_min) and np.isfinite(self.mag_max)):
            raise ConfigError("magnitude range must be finite")
        if self.mag_min < 0 or self.mag_max < self.mag_min:
            raise ConfigError(
                f"need 0 <= mag_min <= mag_max, got {self.mag_min}/{self.mag_max}")
        if self.mag_max >= UNKNOWN_FLOW / 10:
            raise ConfigError(
                f"mag_max must be below {UNKNOWN_FLOW / 10:g}, where read_flo "
                f"marks flow unknown, got {self.mag_max}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# -- synthetic generation ----------------------------------------------------


def _box_blur(img: np.ndarray) -> np.ndarray:
    out = img.copy()
    for axis in (1, 2):
        left = np.roll(out, 1, axis=axis)
        right = np.roll(out, -1, axis=axis)
        out = (left + out + right) / 3.0
    return out


def _texture(spec: DatasetSpec, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.height, spec.width
    if spec.texture == "smoothed-noise":
        img = rng.uniform(size=(3, h, w))
        img = _box_blur(_box_blur(img))
    else:
        ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        img = np.zeros((3, h, w))
        for _ in range(6):
            fy, fx = rng.uniform(0.5, 4.0, size=2)
            phase = rng.uniform(0, 2 * np.pi, size=3)
            amp = rng.uniform(0.05, 0.25, size=3)
            wave = np.sin(2 * np.pi * (fy * ys / h + fx * xs / w))
            img += amp[:, None, None] * np.sin(phase)[:, None, None] + \
                amp[:, None, None] * wave
        img = 0.5 + img / 2.0
    lo, hi = img.min(), img.max()
    return ((img - lo) / max(hi - lo, 1e-9)).astype(np.float64)


def _motion_field(spec: DatasetSpec, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.height, spec.width
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    if spec.motion == "constant":
        angle = rng.uniform(0, 2 * np.pi)
        u = np.full((h, w), np.cos(angle))
        v = np.full((h, w), np.sin(angle))
    elif spec.motion == "affine":
        a = rng.uniform(-1.0, 1.0, size=4) / max(h, w)
        tu, tv = rng.uniform(-1.0, 1.0, size=2)
        u = tu + a[0] * (xs - cx) + a[1] * (ys - cy)
        v = tv + a[2] * (xs - cx) + a[3] * (ys - cy)
    else:
        fy, fx = rng.uniform(0.5, 2.0, size=2)
        py, px = rng.uniform(0, 2 * np.pi, size=2)
        u = np.sin(2 * np.pi * fy * ys / h + py)
        v = np.cos(2 * np.pi * fx * xs / w + px)
    flow = np.stack([u, v])
    # scale so the largest displacement vector has the drawn length
    peak = np.sqrt((flow ** 2).sum(axis=0)).max()
    target = rng.uniform(spec.mag_min, spec.mag_max)
    if peak > 0:
        flow *= target / peak
    return flow


def warp_backward(img: np.ndarray, flow: np.ndarray):
    """Sample ``img`` at p + flow(p); returns the warp and validity mask."""
    c, h, w = img.shape
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    sx = xs + flow[0]
    sy = ys + flow[1]
    valid = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx, fy = sx - x0, sy - y0
    out = np.zeros_like(img)
    for dy in (0, 1):
        for dx in (0, 1):
            wgt = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            yc = np.clip(y0 + dy, 0, h - 1)
            xc = np.clip(x0 + dx, 0, w - 1)
            inside = (y0 + dy >= 0) & (y0 + dy < h) & (x0 + dx >= 0) & (x0 + dx < w)
            out += wgt * inside * img[:, yc, xc]
    return out, valid


def gen_pair(spec: DatasetSpec, index: int = 0):
    """One (I1, I2, gt) triple; ``index`` varies pairs under one seed.

    I2 is the backward warp of I1 by gt, so I2(p) = I1(p + gt(p))
    wherever the source position stays on the map; elsewhere the pixel
    is masked invalid. gt is exact, not estimated.
    """
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
    i1 = _texture(spec, rng)
    gt = _motion_field(spec, rng)
    if spec.mag_max == 0:
        gt = np.zeros_like(gt)
        i2, valid = i1.copy(), np.ones(i1.shape[1:], dtype=bool)
    else:
        i2, valid = warp_backward(i1, gt)
    ff = FlowField(flow=gt.astype(np.float32), valid=valid)
    return i1.astype(np.float32), i2.astype(np.float32), ff


# -- flow file I/O -----------------------------------------------------------


def write_flo(path: str | Path, flow: FlowField) -> None:
    """Middlebury .flo layout; masked pixels encode the unknown sentinel."""
    arr = flow.flow.astype(np.float32)
    if not np.all(np.isfinite(arr)):
        raise ContractError("refusing to serialize non-finite flow values")
    _, h, w = arr.shape
    uv = np.empty((h, w, 2), dtype="<f4")
    uv[..., 0] = arr[0]
    uv[..., 1] = arr[1]
    uv[~flow.valid] = UNKNOWN_FLOW
    with open(path, "wb") as fh:
        fh.write(struct.pack("<f", FLO_MAGIC))
        fh.write(struct.pack("<ii", w, h))
        fh.write(uv.tobytes())


def read_flo(path: str | Path) -> FlowField:
    blob = Path(path).read_bytes()
    if len(blob) < 12:
        raise FormatError(
            f"{path}: truncated header, {len(blob)} bytes (need 12)")
    magic = struct.unpack_from("<f", blob, 0)[0]
    if magic != np.float32(FLO_MAGIC):
        raise FormatError(
            f"{path}: bad magic at byte 0: {magic!r} (expected {FLO_MAGIC})")
    w, h = struct.unpack_from("<ii", blob, 4)
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: nonsensical extents {w}x{h} at byte 4")
    need = 12 + 8 * w * h
    if len(blob) != need:
        raise FormatError(
            f"{path}: payload ends at byte {len(blob)}, expected {need}")
    uv = np.frombuffer(blob, dtype="<f4", offset=12).reshape(h, w, 2)
    flow = np.stack([uv[..., 0], uv[..., 1]])
    known = np.abs(flow).max(axis=0) < UNKNOWN_FLOW / 10
    flow = np.where(known, flow, 0.0).astype(np.float32)
    return FlowField(flow=flow, valid=known)


# -- PPM I/O -----------------------------------------------------------------


def write_ppm(path: str | Path, img: np.ndarray) -> None:
    """Binary P6, maxval 255. Accepts float [0,1] or uint8, (3, H, W)."""
    if img.ndim != 3 or img.shape[0] != 3:
        raise DimensionError(f"PPM image must be (3,H,W), got {img.shape}")
    if img.dtype != np.uint8:
        img = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    _, h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.transpose(1, 2, 0).tobytes())


def read_ppm(path: str | Path) -> np.ndarray:
    """Returns float32 (3, H, W) in [0, 1]."""
    blob = Path(path).read_bytes()
    if not blob.startswith(b"P6"):
        raise FormatError(f"{path}: not a binary PPM (magic {blob[:2]!r})")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: malformed header at byte {start}")
        fields.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    labels = ("width of the extents", "height of the extents", "maxval")
    for label, f in zip(labels, fields):
        # bytes.isdigit is ASCII-only; int() alone would take "+2" or "1_0"
        if not f.isdigit():
            raise FormatError(f"{path}: header field {f!r} ({label}) is not "
                              f"plain decimal digits")
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError:             # more digits than int() converts
        raise FormatError(f"{path}: header field of {max(map(len, fields))} "
                          f"digits is too long") from None
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: nonsensical extents {w}x{h} in the header")
    need = pos + 3 * w * h
    if len(blob) < need:
        raise FormatError(f"{path}: pixel data ends at {len(blob)}, expected {need}")
    if len(blob) > need:
        raise FormatError(f"{path}: {len(blob) - need} trailing bytes after the pixel data")
    raw = np.frombuffer(blob, dtype=np.uint8, count=3 * w * h, offset=pos)
    return (raw.reshape(h, w, 3).transpose(2, 0, 1) / np.float32(255.0))


# -- visualization -----------------------------------------------------------


def _hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    h, s, v = hsv[0], hsv[1], hsv[2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - f * s)
    t = v * (1.0 - (1.0 - f) * s)
    i = i.astype(np.int64) % 6
    rgb = np.zeros_like(hsv)
    for idx, (rr, gg, bb) in enumerate([(v, t, p), (q, v, p), (p, v, t),
                                        (p, q, v), (t, p, v), (v, p, q)]):
        mask = i == idx
        rgb[0][mask] = rr[mask]
        rgb[1][mask] = gg[mask]
        rgb[2][mask] = bb[mask]
    return rgb


def flow_to_color(flow: np.ndarray, cap: float | None = None) -> np.ndarray:
    """Direction as hue, magnitude as saturation; zero flow is white.

    Magnitude is normalized by ``cap`` when given, otherwise by the
    field's own maximum. Returns uint8 (3, H, W).
    """
    if flow.ndim != 3 or flow.shape[0] != 2:
        raise DimensionError(f"flow must be (2,H,W), got {flow.shape}")
    u, v = flow[0].astype(np.float64), flow[1].astype(np.float64)
    mag = np.sqrt(u * u + v * v)
    scale = float(cap) if cap is not None else float(mag.max())
    if scale <= 0:
        scale = 1.0
    hue = (np.arctan2(v, u) / (2 * np.pi)) % 1.0
    sat = np.clip(mag / scale, 0.0, 1.0)
    val = np.ones_like(sat)
    rgb = _hsv_to_rgb(np.stack([hue, sat, val]))
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)


# -- metrics -----------------------------------------------------------------


def _metric_inputs(pred: np.ndarray, gt: FlowField):
    garr = gt.flow
    if pred.shape != garr.shape:
        raise DimensionError(
            f"prediction {pred.shape} does not match ground truth {garr.shape}")
    valid = gt.valid_mask()
    if not valid.any():
        raise ContractError("no valid pixels to evaluate")
    err = np.sqrt(((pred.astype(np.float64) - garr.astype(np.float64)) ** 2)
                  .sum(axis=0))
    return err, valid


def epe(pred: np.ndarray, gt: FlowField) -> float:
    """Mean Euclidean end-point error over the valid pixels."""
    err, valid = _metric_inputs(pred, gt)
    return float(err[valid].sum() / valid.sum())


def f1_all(pred: np.ndarray, gt: FlowField) -> float:
    """Percentage of valid pixels whose end-point error exceeds ``TAU``
    pixels (the single-threshold definition)."""
    err, valid = _metric_inputs(pred, gt)
    bad = err > TAU
    return float(100.0 * bad[valid].sum() / valid.sum())


# -- manifests ---------------------------------------------------------------


@dataclass
class ManifestEntry:
    pair_id: str
    img1: Path
    img2: Path
    flo: Path


def write_manifest(path: str | Path, rows: list[tuple[str, str, str, str]]) -> None:
    """Rows are (pair_id, img1, img2, flo) with paths relative to the manifest."""
    lines = ["\t".join(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"manifest not found: {path}")
    try:
        text = p.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: manifest is not UTF-8 text (byte {exc.start})") from None
    root = p.parent
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(
                f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        entries.append(ManifestEntry(parts[0], root / parts[1], root / parts[2],
                                     root / parts[3]))
    if not entries:
        raise FormatError(f"{path}: manifest is empty")
    return entries


# -- dataset rendering -------------------------------------------------------


def gen_dataset(spec: DatasetSpec, out_dir: str | Path) -> Path:
    """Render ``spec.pairs`` samples into ``out_dir``; returns the manifest.

    File bytes depend only on the spec, so identical specs produce
    identical datasets down to the manifest hash.
    """
    spec.validate()
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for index in range(spec.pairs):
        i1, i2, gt = gen_pair(spec, index=index)
        pid = f"pair_{index:04d}"
        names = (f"{pid}_1.ppm", f"{pid}_2.ppm", f"{pid}.flo")
        write_ppm(root / names[0], i1)
        write_ppm(root / names[1], i2)
        write_flo(root / names[2], gt)
        rows.append((pid, *names))
    manifest = root / "manifest.tsv"
    write_manifest(manifest, rows)
    return manifest
