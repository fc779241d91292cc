"""Stereo sonification: x maps to left/right pan, y maps to pitch.

Discrete mode plays one sine tone per point (sorted by x so time
reinforces the pan axis); sweep mode interpolates pitch and pan
continuously with accumulated phase, which suits line charts and fitted
regression lines. Output is rendered to 16-bit PCM WAV with exact header
fields.

numpy is imported inside the functions that make audio, so commands that
make none start without loading it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DataError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SonifyConfig:
    duration_s: float = 5.0
    sample_rate: int = 44100
    f_min: float = 440.0
    f_max: float = 880.0
    log_pitch: bool = False

    def __post_init__(self):
        if self.duration_s <= 0:
            raise DataError("duration must be positive")
        if self.sample_rate < 8:
            raise DataError("sample rate too low")
        if not (0.0 < self.f_min < self.f_max < self.sample_rate / 2):
            raise DataError(
                "need 0 < f_min < f_max < sample_rate/2, got "
                f"{self.f_min}..{self.f_max} at {self.sample_rate} Hz"
            )


@dataclass(frozen=True)
class AudioBuffer:
    samples: np.ndarray  # shape (frames, 2), float64 in [-1, 1]
    rate: int

    def __post_init__(self):
        import numpy as np

        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise DataError("audio buffer must be stereo frames")
        if self.samples.size and float(np.abs(self.samples).max()) > 1.0 + 1e-12:
            raise DataError("sample magnitude exceeds 1")

    @property
    def frames(self) -> int:
        return self.samples.shape[0]


def map_pitch(y: float, y_lo: float, y_hi: float, cfg: SonifyConfig) -> float:
    """Frequency for a y value, or elementwise for a numpy array of them; the
    midpoint frequency (a scalar) when the range is flat."""
    if y_lo == y_hi:
        return (
            math.sqrt(cfg.f_min * cfg.f_max)
            if cfg.log_pitch
            else (cfg.f_min + cfg.f_max) / 2.0
        )
    t = (y - y_lo) / (y_hi - y_lo)
    if cfg.log_pitch:
        return cfg.f_min * (cfg.f_max / cfg.f_min) ** t
    return cfg.f_min + t * (cfg.f_max - cfg.f_min)


def map_pan(x: float, x_lo: float, x_hi: float) -> float:
    """Pan position in [0, 1]; 0.5 when the range is flat."""
    if x_lo == x_hi:
        return 0.5
    return (x - x_lo) / (x_hi - x_lo)


def pan_gains(pan: float) -> tuple[float, float]:
    """Constant-power stereo gains: left^2 + right^2 = 1."""
    return math.cos(pan * math.pi / 2.0), math.sin(pan * math.pi / 2.0)


def _clean_pairs(
    x: list[float | None], y: list[float | None]
) -> list[tuple[float, float]]:
    if len(x) != len(y):
        raise DataError(f"series lengths differ: {len(x)} vs {len(y)}")
    pairs = [(a, b) for a, b in zip(x, y) if a is not None and b is not None]
    if not pairs:
        raise DataError("nothing to sonify: no complete points")
    pairs.sort(key=lambda p: p[0])
    return pairs


FADE_S = 0.005  # linear fade per tone edge, suppresses clicks
GAP_FRACTION = 0.15  # silent share of each discrete tone's time slot
AMPLITUDE = 0.8  # peak sample magnitude of every tone and sweep


def sonify_points(
    x: list[float | None], y: list[float | None], cfg: SonifyConfig | None = None
) -> AudioBuffer:
    """One sine tone per point, equal time slots, trailing-gap silence.

    Point i of n gets frames `i * n_frames // n` up to the next point's,
    and its tone fills the first `1 - GAP_FRACTION` of them, rounded. When
    points outnumber frames, some slots get no frame; their tones are
    skipped and those points make no sound (10 points in 4 frames sound 4
    tones). Shorter tones are silent too: a tone starts at phase 0, so a
    one-frame tone is a zero sample, and above 100 Hz the fades zero
    both frames of a two-frame tone."""
    import numpy as np

    cfg = cfg or SonifyConfig()
    pairs = _clean_pairs(x, y)
    n_frames = round(cfg.duration_s * cfg.sample_rate)
    if n_frames < 1:
        raise DataError("duration too short for the sample rate")
    out = np.zeros((n_frames, 2))
    x_lo, x_hi = pairs[0][0], pairs[-1][0]
    ys = [p[1] for p in pairs]
    y_lo, y_hi = min(ys), max(ys)

    fade_max = round(FADE_S * cfg.sample_rate)
    for i, (xv, yv) in enumerate(pairs):
        s0 = (i * n_frames) // len(pairs)
        s1 = ((i + 1) * n_frames) // len(pairs)
        tone_len = round((s1 - s0) * (1.0 - GAP_FRACTION))
        if tone_len < 1:
            continue
        f = map_pitch(yv, y_lo, y_hi, cfg)
        left, right = pan_gains(map_pan(xv, x_lo, x_hi))
        t = np.arange(tone_len) / cfg.sample_rate
        wave = AMPLITUDE * np.sin(2.0 * math.pi * f * t)
        fade = min(fade_max, tone_len // 2)
        if fade > 0:
            ramp = np.linspace(0.0, 1.0, fade, endpoint=False)
            wave[:fade] *= ramp
            wave[-fade:] *= ramp[::-1]
        out[s0 : s0 + tone_len, 0] = wave * left
        out[s0 : s0 + tone_len, 1] = wave * right
    return AudioBuffer(out, cfg.sample_rate)


def sonify_sweep(
    x: list[float | None], y: list[float | None], cfg: SonifyConfig | None = None
) -> AudioBuffer:
    """Continuous sweep: instantaneous frequency interpolates the mapped
    pitches between consecutive sorted points, with accumulated phase so
    the waveform never jumps."""
    import numpy as np

    cfg = cfg or SonifyConfig()
    pairs = _clean_pairs(x, y)
    if len(pairs) < 2:
        raise DataError("sweep needs at least 2 points")
    n_frames = round(cfg.duration_s * cfg.sample_rate)
    if n_frames < 2:
        raise DataError("duration too short for the sample rate")
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_lo, x_hi = float(xs[0]), float(xs[-1])

    pan = (
        np.full(n_frames, 0.5)
        if x_lo == x_hi
        else np.linspace(0.0, 1.0, n_frames)
    )
    yq = np.interp(x_lo + pan * (x_hi - x_lo), xs, ys)
    f = np.broadcast_to(map_pitch(yq, y_lo, y_hi, cfg), n_frames)

    phase = np.empty(n_frames)
    phase[0] = 0.0
    np.cumsum(2.0 * math.pi * f[:-1] / cfg.sample_rate, out=phase[1:])
    wave = AMPLITUDE * np.sin(phase)
    out = np.empty((n_frames, 2))
    out[:, 0] = wave * np.cos(pan * math.pi / 2.0)
    out[:, 1] = wave * np.sin(pan * math.pi / 2.0)
    return AudioBuffer(out, cfg.sample_rate)


def write_wav(buf: AudioBuffer) -> bytes:
    """RIFF/WAVE container: PCM, 2 channels, 16 bits, exact chunk sizes.

    Floats are quantized by rounding half away from zero at 16-bit scale.
    """
    import numpy as np

    x = buf.samples * 32767.0
    ints = np.sign(x) * np.floor(np.abs(x) + 0.5)
    ints = np.clip(ints, -32768, 32767).astype("<i2")
    payload = ints.tobytes()  # C order interleaves L,R per frame

    header = b"RIFF"
    header += struct.pack("<I", 36 + len(payload))
    header += b"WAVE"
    header += b"fmt "
    header += struct.pack("<IHHIIHH", 16, 1, 2, buf.rate, buf.rate * 4, 4, 16)
    header += b"data"
    header += struct.pack("<I", len(payload))
    return header + payload
