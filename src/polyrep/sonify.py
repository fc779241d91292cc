"""Stereo sonification: x maps to left/right pan, y maps to pitch.

Discrete mode plays one sine tone per point (sorted by x so time
reinforces the pan axis); sweep mode interpolates pitch and pan
continuously with accumulated phase, which suits line charts and fitted
regression lines. Output is rendered to 16-bit PCM WAV with exact header
fields.

Discrete tones are built one block per tone length: slots differ by at
most one frame, so the tones come in at most two lengths, and each length
is synthesized as one (tones, length) array whose rows are then scaled by
their pan gains into their slots. Pitch and pan stay scalar `map_pitch`
and `pan_gains` calls per sounding tone, because `np.power` and Python's
`**` can differ in the last bit. The sweep and the WAV quantization work
in place in preallocated buffers. Quantization rounds half away from zero
as `trunc(x + copysign(0.5, x))`; `np.rint` would round half to even and
change bytes.

numpy is imported inside the functions that make audio, so commands that
make none start without loading it.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DataError

if TYPE_CHECKING:
    import numpy as np


# a WAV header stores the byte rate (4 bytes per stereo 16-bit frame) and
# the RIFF chunk size (36 header bytes plus the frames) in 32 bits each
MAX_RATE = (2**32 - 1) // 4
MAX_FRAMES = (2**32 - 1 - 36) // 4


@dataclass(frozen=True)
class SonifyConfig:
    duration_s: float = 5.0
    sample_rate: int = 44100
    f_min: float = 440.0
    f_max: float = 880.0
    log_pitch: bool = False

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf:
            raise DataError(f"duration must be positive and finite, got {self.duration_s}")
        if self.sample_rate < 8:
            raise DataError("sample rate too low")
        if self.sample_rate > MAX_RATE:
            raise DataError(f"sample rate too high for a WAV file (at most {MAX_RATE} Hz)")
        # the first test keeps round() from meeting an infinite product
        if self.duration_s * self.sample_rate >= 2**32 or self.n_frames > MAX_FRAMES:
            raise DataError(
                f"{self.duration_s} s at {self.sample_rate} Hz is more than "
                f"{MAX_FRAMES} frames, the most a WAV file holds"
            )
        if not (0.0 < self.f_min < self.f_max < self.sample_rate / 2):
            raise DataError(
                "need 0 < f_min < f_max < sample_rate/2, got "
                f"{self.f_min}..{self.f_max} at {self.sample_rate} Hz"
            )

    @property
    def n_frames(self) -> int:
        return round(self.duration_s * self.sample_rate)


@dataclass(frozen=True)
class AudioBuffer:
    samples: np.ndarray  # shape (frames, 2), float64 in [-1, 1]
    rate: int

    def __post_init__(self):
        samples = self.samples
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise DataError("audio buffer must be stereo frames")
        if samples.size and not (max(samples.max(), -samples.min()) <= 1.0 + 1e-12):
            raise DataError("sample magnitude exceeds 1 or is not finite")

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
    if not all(map(math.isfinite, itertools.chain.from_iterable(pairs))):
        raise DataError("x and y must be finite")
    pairs.sort(key=operator.itemgetter(0))
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
    n_frames = cfg.n_frames
    if n_frames < 1:
        raise DataError("duration too short for the sample rate")
    out = np.zeros((n_frames, 2))
    x_lo, x_hi = pairs[0][0], pairs[-1][0]
    ys = [p[1] for p in pairs]
    y_lo, y_hi = min(ys), max(ys)

    # slots are floor or ceil(n_frames / n) frames long, so the sounding
    # tones come in at most two lengths; each length is synthesized as one
    # (tones, length) block whose rows are then scaled into their slots
    n = len(pairs)
    by_length: dict[int, list[tuple[int, float, float, float]]] = {}
    for i, (xv, yv) in enumerate(pairs):
        s0 = (i * n_frames) // n
        s1 = ((i + 1) * n_frames) // n
        tone_len = round((s1 - s0) * (1.0 - GAP_FRACTION))
        if tone_len < 1:
            continue
        f = map_pitch(yv, y_lo, y_hi, cfg)
        left, right = pan_gains(map_pan(xv, x_lo, x_hi))
        by_length.setdefault(tone_len, []).append((s0, 2.0 * math.pi * f, left, right))
    fade_max = round(FADE_S * cfg.sample_rate)
    for tone_len, tones in by_length.items():
        t = np.arange(tone_len) / cfg.sample_rate
        block = np.multiply.outer([tone[1] for tone in tones], t)
        np.sin(block, out=block)
        block *= AMPLITUDE
        fade = min(fade_max, tone_len // 2)
        if fade > 0:
            ramp = np.linspace(0.0, 1.0, fade, endpoint=False)
            block[:, :fade] *= ramp
            block[:, -fade:] *= ramp[::-1]
        for (s0, _, left, right), wave in zip(tones, block):
            np.multiply(wave, left, out=out[s0 : s0 + tone_len, 0])
            np.multiply(wave, right, out=out[s0 : s0 + tone_len, 1])
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
    n_frames = cfg.n_frames
    if n_frames < 2:
        raise DataError("duration too short for the sample rate")
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_lo, x_hi = float(xs[0]), float(xs[-1])

    # `scratch` holds the query x, then the phase steps, then the pan angle
    scratch = np.empty(n_frames)
    pan = (
        np.full(n_frames, 0.5)
        if x_lo == x_hi
        else np.linspace(0.0, 1.0, n_frames)
    )
    xq = np.multiply(pan, x_hi - x_lo, out=scratch)
    xq += x_lo
    yq = np.interp(xq, xs, ys)
    f = np.broadcast_to(map_pitch(yq, y_lo, y_hi, cfg), n_frames)

    step = np.multiply(2.0 * math.pi, f[:-1], out=scratch[:-1])
    step /= cfg.sample_rate
    wave = yq  # the steps are taken, so yq's buffer takes the phase, then the wave
    wave[0] = 0.0
    np.cumsum(step, out=wave[1:])
    np.sin(wave, out=wave)
    wave *= AMPLITUDE
    angle = np.multiply(pan, math.pi, out=scratch)
    angle /= 2.0
    out = np.empty((n_frames, 2))
    for ch, gain in enumerate((np.cos, np.sin)):
        gain(angle, out=out[:, ch])
        out[:, ch] *= wave
    return AudioBuffer(out, cfg.sample_rate)


# samples quantized per block in write_wav: the float scratch stays small
# and is reused, instead of two fresh arrays the size of the buffer
_WAV_BLOCK = 16384


def write_wav(buf: AudioBuffer) -> bytes:
    """RIFF/WAVE container: PCM, 2 channels, 16 bits, exact chunk sizes.

    Floats are rounded half away from zero at 16-bit scale: IEEE addition
    is sign-symmetric, so `x - 0.5 == -(|x| + 0.5)` and truncating
    `x + copysign(0.5, x)` rounds both signs alike. The clip stays because
    `samples` can be changed after the buffer checked it. The PCM is written
    straight into the output behind its header, a block at a time.
    """
    import numpy as np

    flat = buf.samples.reshape(-1)  # C order interleaves L,R per frame
    n_bytes = 2 * flat.size
    wav = bytearray(44 + n_bytes)
    wav[:44] = b"".join((
        b"RIFF", struct.pack("<I", 36 + n_bytes), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, 1, 2, buf.rate, buf.rate * 4, 4, 16),
        b"data", struct.pack("<I", n_bytes),
    ))
    pcm = np.frombuffer(wav, dtype="<i2", offset=44)
    x = np.empty(min(_WAV_BLOCK, flat.size))
    half = np.empty_like(x)
    for i in range(0, flat.size, _WAV_BLOCK):
        block = flat[i:i + _WAV_BLOCK]
        t, h = x[:block.size], half[:block.size]
        np.multiply(block, 32767.0, out=t)
        np.copysign(0.5, t, out=h)
        t += h
        np.trunc(t, out=t)
        np.clip(t, -32768, 32767, out=t)
        pcm[i:i + block.size] = t
    return bytes(wav)
