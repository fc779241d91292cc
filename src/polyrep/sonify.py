"""Stereo sonification: x maps to left/right pan, y maps to pitch.

Discrete mode plays one sine tone per point (sorted by x so time
reinforces the pan axis); sweep mode interpolates pitch and pan
continuously with accumulated phase, which suits line charts and fitted
regression lines. Output is rendered to 16-bit PCM WAV with exact header
fields.

Audio is synthesized a block of `_BLOCK` values at a time, so besides
the (frames, 2) output no array grows with the clip. Discrete tones come
in at most two lengths, since slots differ by at most one frame; each
length is synthesized as (tones, frames) chunks of at most one block,
whose rows are then scaled by their pan gains into their slots. Pitch and
pan stay scalar `map_pitch` and `pan_gains` calls per sounding tone,
because `np.power` and Python's `**` can differ in the last bit. The sweep
computes pan, pitch, phase and gains for one block of frames at a time
and carries the phase across blocks as the first term of the next block's
running sum, so it adds in the order one whole-clip `np.cumsum` would.
`write_wav` quantizes a block at a time straight into the bytearray it
returns. Quantization rounds half away from zero as
`trunc(x + copysign(0.5, x))`; `np.rint` would round half to even and
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

# values made per step of synthesis and of quantization: the float scratch
# stays small, instead of whole-clip arrays beside the output
_BLOCK = 16384


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
    # tones come in at most two lengths; each length is synthesized in
    # (tones, frames) chunks whose rows are then scaled into their slots
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
        fade = min(fade_max, tone_len // 2)
        rise = np.linspace(0.0, 1.0, fade, endpoint=False)
        fall = rise[::-1]
        # a chunk is `rows` tones by `cols` frames, at most one block
        cols = min(tone_len, _BLOCK)
        rows = _BLOCK // cols
        for c0 in range(0, tone_len, cols):
            c1 = min(c0 + cols, tone_len)
            t = np.arange(c0, c1) / cfg.sample_rate
            head = min(c1, fade) - c0  # frames from c0 on that fade in
            tail = c1 - max(c0, tone_len - fade)  # frames up to c1 that fade out
            end = c1 - (tone_len - fade)  # `fall` index of frame c1
            for r0 in range(0, len(tones), rows):
                chunk = tones[r0 : r0 + rows]
                block = np.multiply.outer([tone[1] for tone in chunk], t)
                np.sin(block, out=block)
                block *= AMPLITUDE
                if head > 0:
                    block[:, :head] *= rise[c0 : c0 + head]
                if tail > 0:
                    block[:, -tail:] *= fall[end - tail : end]
                for (s0, _, left, right), wave in zip(chunk, block):
                    np.multiply(wave, left, out=out[s0 + c0 : s0 + c1, 0])
                    np.multiply(wave, right, out=out[s0 + c0 : s0 + c1, 1])
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

    # np.linspace(0, 1, n_frames) is k * step at frame k, and exactly 1 last
    step = 1.0 / (n_frames - 1)
    out = np.empty((n_frames, 2))
    phase = 0.0
    for b0 in range(0, n_frames, _BLOCK):
        b1 = min(b0 + _BLOCK, n_frames)
        if x_lo == x_hi:
            pan = np.full(b1 - b0, 0.5)
        else:
            pan = np.arange(b0, b1) * step
            if b1 == n_frames:
                pan[-1] = 1.0
        xq = pan * (x_hi - x_lo)
        xq += x_lo
        f = map_pitch(np.interp(xq, xs, ys), y_lo, y_hi, cfg)
        # the phase at b0, then the steps of frames b0..b1-1: their running
        # sum is the phase at b0..b1, added as one whole-clip cumsum would
        phases = np.empty(b1 - b0 + 1)
        phases[0] = phase
        np.multiply(2.0 * math.pi, f, out=phases[1:])
        phases[1:] /= cfg.sample_rate
        np.cumsum(phases, out=phases)
        phase = phases[-1]
        wave = np.sin(phases[:-1], out=phases[:-1])
        wave *= AMPLITUDE
        angle = np.multiply(pan, math.pi, out=xq)
        angle /= 2.0
        for ch, gain in enumerate((np.cos, np.sin)):
            gain(angle, out=out[b0:b1, ch])
            out[b0:b1, ch] *= wave
    return AudioBuffer(out, cfg.sample_rate)


def write_wav(buf: AudioBuffer) -> bytearray:
    """RIFF/WAVE container: PCM, 2 channels, 16 bits, exact chunk sizes.

    Floats are rounded half away from zero at 16-bit scale: IEEE addition
    is sign-symmetric, so `x - 0.5 == -(|x| + 0.5)` and truncating
    `x + copysign(0.5, x)` rounds both signs alike. The clip stays because
    `samples` can be changed after the buffer checked it. The PCM is written
    straight into the returned bytearray behind its header, a block at a
    time, so the file is never held twice.
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
    x = np.empty(min(_BLOCK, flat.size))
    half = np.empty_like(x)
    for i in range(0, flat.size, _BLOCK):
        block = flat[i:i + _BLOCK]
        t, h = x[:block.size], half[:block.size]
        np.multiply(block, 32767.0, out=t)
        np.copysign(0.5, t, out=h)
        t += h
        np.trunc(t, out=t)
        np.clip(t, -32768, 32767, out=t)
        pcm[i:i + block.size] = t
    return wav
