"""Pipeline configuration and its flat key-value file format.

The on-disk format is one `dotted.key=value` per line (diff-friendly, no
schema dependency), e.g. `cluster.eta=20.0`. Quads are four `x,y` pairs
separated by spaces in TL TR BR BL order. Floats are written with repr()
so a serialize/parse round trip reproduces the exact value.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

from ._files import overwrite
from .errors import CalibrationError, ConfigError
from .homography import QuadCorrespondence

__all__ = ["PipelineConfig", "default_config", "parse_config", "format_config", "load_config", "save_config"]


def _default_calibration() -> QuadCorrespondence:
    # road trapezoid for 360x480 dashcam framing -> 480-tall BEV strip
    return QuadCorrespondence(
        src=((100, 200), (380, 200), (460, 360), (20, 360)),
        dst=((120, 0), (360, 0), (360, 480), (120, 480)),
    )


@dataclass(frozen=True)
class PipelineConfig:
    crop_top: int = 0
    crop_bottom: int = 0
    crop_left: int = 0
    crop_right: int = 0
    target_rows: int = 360
    target_cols: int = 480
    mask_threshold: int = 127
    connectivity: int = 8
    min_instance_size: int = 15
    calibration: QuadCorrespondence = field(default_factory=_default_calibration)
    eta: float = 20.0
    sample_count: int = 50
    loss_alpha: float = 1e-2
    loss_epsilon: float = 1e-5

    def __post_init__(self):
        for _, name, kind in _KEYS:
            if kind is int:
                _check_integer(name, getattr(self, name))
            elif kind is float:
                _check_real(name, getattr(self, name))
        if min(self.crop_top, self.crop_bottom, self.crop_left, self.crop_right) < 0:
            raise ConfigError("crop margins must be non-negative")
        if self.target_rows < 1 or self.target_cols < 1:
            raise ConfigError("target size must be at least 1x1")
        if not 0 <= self.mask_threshold <= 255:
            raise ConfigError(f"mask threshold must be in 0..255, got {self.mask_threshold}")
        if self.connectivity not in (4, 8):
            raise ConfigError(f"connectivity must be 4 or 8, got {self.connectivity}")
        if self.min_instance_size < 0:
            raise ConfigError("min instance size must be non-negative")
        if not isinstance(self.calibration, QuadCorrespondence):
            raise ConfigError(f"calibration must be a QuadCorrespondence, got {self.calibration!r}")
        if not 0 < self.eta < math.inf:
            raise ConfigError(f"eta must be positive and finite, got {self.eta}")
        if self.sample_count < 2:
            raise ConfigError(f"sample count must be at least 2, got {self.sample_count}")
        if not (0 < self.loss_alpha < math.inf and 0 < self.loss_epsilon < math.inf):
            raise ConfigError("loss alpha and epsilon must be positive and finite")


def _check_integer(name: str, value) -> None:
    try:
        operator.index(value)  # Python and NumPy integers, not floats
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _check_real(name: str, value) -> None:
    if not isinstance(value, numbers.Real):  # Python and NumPy numbers, not strings or complex
        raise ConfigError(f"{name} must be a number, got {value!r}")


def default_config() -> PipelineConfig:
    return PipelineConfig()


def _format_quad(quad) -> str:
    return " ".join(f"{x!r},{y!r}" for x, y in quad)


def _parse_quad(value: str, key: str):
    pairs = value.split()
    if len(pairs) != 4:
        raise ConfigError(f"{key}: expected 4 x,y pairs, got {len(pairs)}")
    points = []
    for pair in pairs:
        parts = pair.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{key}: bad point {pair!r}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"{key}: bad point {pair!r}") from None
    return tuple(points)


# every key in file order: (key, PipelineConfig field, type); the two
# tuple keys are the quads of the calibration, which hold src and dst
_KEYS = (
    ("crop.top", "crop_top", int),
    ("crop.bottom", "crop_bottom", int),
    ("crop.left", "crop_left", int),
    ("crop.right", "crop_right", int),
    ("resize.rows", "target_rows", int),
    ("resize.cols", "target_cols", int),
    ("mask.threshold", "mask_threshold", int),
    ("instances.connectivity", "connectivity", int),
    ("instances.min_size", "min_instance_size", int),
    ("calibration.src", "src", tuple),
    ("calibration.dst", "dst", tuple),
    ("cluster.eta", "eta", float),
    ("curve.samples", "sample_count", int),
    ("loss.alpha", "loss_alpha", float),
    ("loss.epsilon", "loss_epsilon", float),
)


def format_config(cfg: PipelineConfig) -> str:
    lines = []
    for key, name, kind in _KEYS:
        if kind is tuple:
            value = _format_quad(getattr(cfg.calibration, name))
        else:
            value = repr(kind(getattr(cfg, name)))
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> PipelineConfig:
    """Parse the key-value format, starting from defaults. Unknown keys and
    malformed values raise ConfigError."""
    table = {key: (name, kind) for key, name, kind in _KEYS}
    fields = {}
    quads = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in table:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name, kind = table[key]
        if kind is tuple:
            quads[name] = _parse_quad(value, key)
            continue
        try:
            fields[name] = kind(value)
        except ValueError:
            wanted = "an integer" if kind is int else "a number"
            raise ConfigError(f"line {lineno}: {key} needs {wanted}, got {value!r}") from None
    if len(quads) == 1:
        raise ConfigError("calibration.src and calibration.dst must be given together")
    if quads:
        try:
            fields["calibration"] = QuadCorrespondence(quads["src"], quads["dst"])
        except CalibrationError as exc:
            raise ConfigError(f"bad calibration: {exc}") from exc
    return PipelineConfig(**fields)


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def save_config(cfg: PipelineConfig, path) -> None:
    overwrite(path, format_config(cfg).encode("utf-8"))
