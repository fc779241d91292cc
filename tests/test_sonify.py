from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden import CASES
from oracles import (
    check_wav_header,
    read_wav_oracle,
    sonify_points_oracle,
    sonify_sweep_oracle,
    write_wav_oracle,
    zero_crossing_freq,
)
from polyrep.errors import DataError
from polyrep.sonify import (
    AMPLITUDE,
    GAP_FRACTION,
    MAX_FRAMES,
    MAX_RATE,
    AudioBuffer,
    SonifyConfig,
    map_pan,
    map_pitch,
    pan_gains,
    sonify_points,
    sonify_sweep,
    write_wav,
)

CFG = SonifyConfig()


def slot_bounds(i: int, n: int, frames: int) -> tuple[int, int]:
    return (i * frames) // n, ((i + 1) * frames) // n


def tone_slice(buf: AudioBuffer, i: int, n: int) -> np.ndarray:
    s0, s1 = slot_bounds(i, n, buf.frames)
    tone_len = round((s1 - s0) * (1.0 - GAP_FRACTION))
    mono = buf.samples[s0 : s0 + tone_len, 0] + buf.samples[s0 : s0 + tone_len, 1]
    return mono


# -- mappings ----------------------------------------------------------------


def test_pitch_endpoints_and_midpoint():
    assert map_pitch(0.0, 0.0, 1.0, CFG) == 440.0
    assert map_pitch(1.0, 0.0, 1.0, CFG) == 880.0
    assert map_pitch(0.5, 0.0, 1.0, CFG) == 660.0


def test_pitch_degenerate_range_mid():
    assert map_pitch(3.0, 3.0, 3.0, CFG) == 660.0


def test_pitch_log_mapping():
    cfg = SonifyConfig(log_pitch=True)
    assert map_pitch(0.5, 0.0, 1.0, cfg) == pytest.approx(math.sqrt(440 * 880))


def test_pan_endpoints_and_gains():
    assert pan_gains(map_pan(0.0, 0.0, 1.0)) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert pan_gains(map_pan(1.0, 0.0, 1.0)) == pytest.approx((0.0, 1.0), abs=1e-15)
    l, r = pan_gains(map_pan(0.5, 0.0, 1.0))
    assert l == pytest.approx(math.sqrt(2) / 2)
    assert r == pytest.approx(math.sqrt(2) / 2)


def test_pan_degenerate_range_centered():
    assert map_pan(5.0, 5.0, 5.0) == 0.5


@given(st.floats(0.0, 1.0))
def test_constant_power_identity(pan):
    l, r = pan_gains(pan)
    assert abs(l * l + r * r - 1.0) < 1e-12


def test_config_validation():
    with pytest.raises(DataError):
        SonifyConfig(f_min=500, f_max=400)
    with pytest.raises(DataError):
        SonifyConfig(f_max=30000, sample_rate=44100)
    with pytest.raises(DataError):
        SonifyConfig(duration_s=0)


@pytest.mark.parametrize("duration_s", [math.inf, -math.inf, math.nan, -1.0, 1e308])
def test_config_rejects_durations_no_wav_can_hold(duration_s):
    with pytest.raises(DataError, match="duration|frames"):
        SonifyConfig(duration_s=duration_s)


def test_config_frame_and_rate_limits_fit_a_riff_header():
    # 36 header bytes plus 4 per frame must fit the 32-bit RIFF chunk size,
    # and 4 bytes per frame at the sample rate the 32-bit byte rate; no
    # buffer is made here
    assert 36 + 4 * MAX_FRAMES <= 2**32 - 1 < 36 + 4 * (MAX_FRAMES + 1)
    assert 4 * MAX_RATE <= 2**32 - 1 < 4 * (MAX_RATE + 1)
    rate = CFG.sample_rate
    assert SonifyConfig(duration_s=MAX_FRAMES / rate).n_frames == MAX_FRAMES
    with pytest.raises(DataError, match=f"more than {MAX_FRAMES} frames"):
        SonifyConfig(duration_s=(MAX_FRAMES + 1) / rate)
    assert SonifyConfig(duration_s=1e-6, sample_rate=MAX_RATE).n_frames == 1074
    with pytest.raises(DataError, match="sample rate too high"):
        SonifyConfig(duration_s=1e-6, sample_rate=MAX_RATE + 1)


# -- discrete ----------------------------------------------------------------


def test_discrete_frame_count_and_amplitude():
    buf = sonify_points([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    assert buf.frames == round(CFG.duration_s * CFG.sample_rate) == 220500
    assert float(np.abs(buf.samples).max()) <= AMPLITUDE + 1e-12


def test_discrete_rising_line_pitch_and_pan():
    buf = sonify_points([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    estimates = []
    for i in range(5):
        mono = tone_slice(buf, i, 5)
        estimates.append(zero_crossing_freq(mono, buf.rate))
    assert all(b > a for a, b in zip(estimates, estimates[1:]))
    assert abs(estimates[0] - 440.0) / 440.0 < 0.02
    assert abs(estimates[-1] - 880.0) / 880.0 < 0.02
    # pan: first tone fully left, last fully right
    first = buf.samples[slice(*slot_bounds(0, 5, buf.frames))]
    last = buf.samples[slice(*slot_bounds(4, 5, buf.frames))]
    assert np.abs(first[:, 1]).max() < 1e-9
    assert np.abs(last[:, 0]).max() < 1e-9


def test_discrete_single_point_centered_midpoint():
    buf = sonify_points([3.0], [7.0])
    left = buf.samples[:, 0]
    right = buf.samples[:, 1]
    assert np.allclose(left, right)
    tone = left[: round(buf.frames * (1 - GAP_FRACTION))] + right[
        : round(buf.frames * (1 - GAP_FRACTION))
    ]
    f = zero_crossing_freq(tone, buf.rate)
    assert abs(f - 660.0) / 660.0 < 0.02


def test_discrete_constant_y_equal_frequencies():
    buf = sonify_points([1, 2, 3, 4], [5, 5, 5, 5])
    for i in range(4):
        f = zero_crossing_freq(tone_slice(buf, i, 4), buf.rate)
        assert abs(f - 660.0) / 660.0 < 0.02


def test_discrete_gap_is_silent():
    buf = sonify_points([1, 2], [1, 2])
    s0, s1 = slot_bounds(0, 2, buf.frames)
    tone_len = round((s1 - s0) * (1.0 - GAP_FRACTION))
    gap = buf.samples[s0 + tone_len : s1]
    assert np.abs(gap).max() == 0.0


def test_discrete_points_outnumbering_frames_go_silent(monkeypatch):
    """10 points in 4 frames: only the slots of points 2, 4, 7 and 9 get a
    frame, so the other 6 tones are skipped. At 44.1 kHz two-frame tones
    are all zero and three-frame tones are not."""
    import polyrep.sonify as sonify

    short = SonifyConfig(duration_s=0.001)  # 44 frames
    assert not sonify_points(list(range(22)), list(range(22)), short).samples.any()
    assert sonify_points(list(range(14)), list(range(14)), short).samples.any()

    pitched = []

    def recording(y, *args):
        pitched.append(y)
        return map_pitch(y, *args)

    monkeypatch.setattr(sonify, "map_pitch", recording)
    cfg = SonifyConfig(duration_s=0.5, sample_rate=8, f_min=1, f_max=2)
    buf = sonify_points(list(range(10)), list(range(10)), cfg)
    assert buf.frames == 4
    assert pitched == [2, 4, 7, 9]


def test_discrete_unsorted_input_sorted_by_x():
    a = sonify_points([5, 4, 3, 2, 1], [5, 4, 3, 2, 1])
    b = sonify_points([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    assert np.array_equal(a.samples, b.samples)


def test_discrete_missing_dropped_and_empty_errors():
    buf = sonify_points([1, None, 2], [1, 9, None])
    assert buf.frames == 220500
    with pytest.raises(DataError):
        sonify_points([None], [1])


@st.composite
def point_sets(draw, min_n=1):
    """min_n to 3,000 points, with x and y each flat, drawn from a few
    repeated values, or spread out (so x is unsorted)."""
    n = draw(st.integers(min_n, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(2):
        shape = draw(st.sampled_from(["flat", "few", "spread"]))
        if shape == "flat":
            columns.append([float(draw(st.integers(-50, 50)))] * n)
        elif shape == "few":
            columns.append(rng.choice([-3.5, 0.0, 2.25, 7.0], size=n).tolist())
        else:
            columns.append(np.round(rng.normal(0.0, 40.0, size=n), 2).tolist())
    return columns


@st.composite
def configs(draw):
    """A valid config of 1 to 40,000 frames, at a rate from 8 Hz to 48 kHz."""
    rate = draw(st.sampled_from([8, 1000, 8000, 22050, 44100, 48000]))
    frames = draw(st.integers(1, 40_000))
    lo = draw(st.floats(0.01, 0.45))
    hi = draw(st.floats(0.5, 0.99))
    return SonifyConfig(
        duration_s=frames / rate,
        sample_rate=rate,
        f_min=lo * rate / 2,
        f_max=hi * rate / 2,
        log_pitch=draw(st.booleans()),
    )


@settings(max_examples=40, deadline=None)
@given(point_sets(), configs())
@example(([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]), CFG)
@example(([0.0] * 500, [1.0, 2.0] * 250), SonifyConfig(duration_s=0.01, sample_rate=8000))
def test_sonify_points_matches_loop_oracle(points, cfg):
    x, y = points
    buf = sonify_points(x, y, cfg)
    want = sonify_points_oracle(x, y, cfg)
    assert buf.samples.dtype == np.float64
    assert np.array_equal(buf.samples, want.samples)
    assert write_wav(buf) == write_wav_oracle(want)


def _near_half_steps(k: int) -> list[float]:
    """Samples whose 16-bit scale value is k + 0.5 or a few ulps either side."""
    s = (k + 0.5) / 32767.0
    out = [s]
    up = down = s
    for _ in range(3):
        up, down = np.nextafter(up, 2.0), np.nextafter(down, -2.0)
        out += [float(up), float(down)]
    return [v for v in out if -1.0 <= v <= 1.0]


def test_near_half_steps_hit_the_half_and_one_ulp_either_side():
    # true for every k except 0, -1, 16383 and -16384, where the half sits
    # beside a power of two and one neighbour is not reached
    for k in (1, 2, -2, -3, 1000, -20000, 32766, -32767):
        scaled = {v * 32767.0 for v in _near_half_steps(k)}
        half = k + 0.5
        assert {half, math.nextafter(half, -math.inf), math.nextafter(half, math.inf)} <= scaled


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-32767, 32766), max_size=40),
    st.lists(st.floats(-1.0, 1.0), max_size=40),
)
def test_write_wav_matches_quantization_oracle(halves, anywhere):
    values = [0.0, -0.0, 1.0, -1.0, *anywhere]
    for k in halves:
        values += _near_half_steps(k)
    if len(values) % 2:
        values.append(0.5 / 32767.0)
    buf = AudioBuffer(np.array(values).reshape(-1, 2), 44100)
    assert write_wav(buf) == write_wav_oracle(buf)


def test_write_wav_clips_a_buffer_changed_after_construction():
    buf = AudioBuffer(np.zeros((2, 2)), 44100)
    buf.samples[:] = [[1.5, -1.5], [1.0 + 1e-9, -1.0 - 1e-9]]
    frames, _ = read_wav_oracle(write_wav(buf))
    assert frames.tolist() == [[32767, -32768], [32767, -32767]]
    assert write_wav(buf) == write_wav_oracle(buf)


# -- sweep -------------------------------------------------------------------


def test_sweep_constant_y_pure_tone():
    cfg = SonifyConfig(duration_s=1.0)
    buf = sonify_sweep([0, 1], [3, 3], cfg)
    f = zero_crossing_freq(buf.samples.sum(axis=1), buf.rate)
    assert abs(f - 660.0) / 660.0 < 0.01
    spectrum = np.abs(np.fft.rfft(buf.samples.sum(axis=1)))
    peak_hz = float(np.fft.rfftfreq(buf.frames, 1 / buf.rate)[spectrum.argmax()])
    assert abs(peak_hz - 660.0) < 2.0


def test_sweep_line_endpoints_and_monotone_density():
    buf = sonify_sweep([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    mono = buf.samples.sum(axis=1)
    n = buf.frames
    windows = [mono[i * n // 10 : (i + 1) * n // 10] for i in range(10)]
    freqs = [zero_crossing_freq(w, buf.rate) for w in windows]
    assert all(b > a for a, b in zip(freqs, freqs[1:]))
    assert abs(freqs[0] - (440 + 22)) < 440 * 0.05  # first window mid ~ 462 Hz
    assert abs(freqs[-1] - (880 - 22)) < 880 * 0.05


def test_sweep_piecewise_tracks_target_within_3pct():
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [0.0, 3.0, 1.0, 2.0]
    cfg = SonifyConfig(duration_s=4.0)
    buf = sonify_sweep(xs, ys, cfg)
    mono = buf.samples.sum(axis=1)
    n = buf.frames
    # 20 windows; compare against the interpolated instantaneous target
    y_lo, y_hi = 0.0, 3.0
    for w in range(20):
        a, b = w * n // 20, (w + 1) * n // 20
        x_mid = 0.0 + (a + b) / 2 / n * 3.0
        y_mid = float(np.interp(x_mid, xs, ys))
        target = map_pitch(y_mid, y_lo, y_hi, cfg)
        est = zero_crossing_freq(mono[a:b], buf.rate)
        assert abs(est - target) / target < 0.03, (w, est, target)


def test_sweep_phase_continuity():
    buf = sonify_sweep([1, 2, 3, 4, 5], [5, 1, 4, 2, 3])
    for ch in (0, 1):
        jumps = np.abs(np.diff(buf.samples[:, ch]))
        bound = AMPLITUDE * 2 * math.pi * CFG.f_max / CFG.sample_rate
        assert float(jumps.max()) <= bound * 1.01


def test_sweep_needs_two_points():
    with pytest.raises(DataError):
        sonify_sweep([1.0], [1.0])


def test_sweep_log_pitch_midpoint_is_geometric():
    cfg = SonifyConfig(duration_s=1.0, log_pitch=True)
    buf = sonify_sweep([0, 1, 2], [0, 1, 2], cfg)
    mono = buf.samples.sum(axis=1)
    n = buf.frames
    mid = mono[n * 9 // 20 : n * 11 // 20]
    f_mid = zero_crossing_freq(mid, buf.rate)
    assert abs(f_mid - math.sqrt(440 * 880)) / f_mid < 0.03


@settings(max_examples=40, deadline=None)
@given(point_sets(min_n=2), configs().filter(lambda cfg: cfg.n_frames >= 2))
@example(CASES["sweep_unsorted_x"], SonifyConfig(duration_s=0.25, log_pitch=True))
@example(CASES["sweep_repeated_x"], SonifyConfig(duration_s=0.25))
def test_sonify_sweep_matches_oracle(points, cfg):
    x, y = points
    buf = sonify_sweep(x, y, cfg)
    want = sonify_sweep_oracle(x, y, cfg)
    assert np.array_equal(buf.samples, want.samples)
    assert write_wav(buf) == write_wav_oracle(want)


# -- wav ---------------------------------------------------------------------


def test_wav_header_fields_one_second():
    cfg = SonifyConfig(duration_s=1.0)
    buf = sonify_points([1, 2], [1, 2], cfg)
    data = write_wav(buf)
    check_wav_header(data, rate=44100, n_frames=44100)
    assert len(data) - 44 == 176400


def test_wav_silence_all_zero_words():
    buf = AudioBuffer(np.zeros((100, 2)), 44100)
    data = write_wav(buf)
    check_wav_header(data, rate=44100, n_frames=100)
    frames, rate = read_wav_oracle(data)
    assert not frames.any()


def test_wav_roundtrip_bit_exact():
    buf = sonify_points([1, 2, 3], [3, 1, 2], SonifyConfig(duration_s=0.5))
    first = write_wav(buf)
    frames, rate = read_wav_oracle(first)
    again = write_wav(AudioBuffer(frames.astype(np.float64) / 32767.0, rate))
    assert again == first


def test_wav_rounding_half_away_from_zero():
    vals = np.array([[0.5 / 32767.0, -0.5 / 32767.0], [1.49 / 32767.0, -1.5 / 32767.0]])
    frames, _ = read_wav_oracle(write_wav(AudioBuffer(vals, 44100)))
    assert frames.tolist() == [[1, -1], [1, -2]]


def test_buffer_validation():
    with pytest.raises(DataError):
        AudioBuffer(np.ones((4, 3)), 44100)
    with pytest.raises(DataError):
        AudioBuffer(np.full((4, 2), 1.5), 44100)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_buffer_rejects_non_finite_samples(bad):
    samples = np.zeros((4, 2))
    samples[2, 1] = bad
    with pytest.raises(DataError, match="not finite"):
        AudioBuffer(samples, 44100)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("synth", [sonify_points, sonify_sweep])
def test_non_finite_points_rejected(synth, axis, bad):
    x, y = [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]
    (x if axis == "x" else y)[1] = bad
    with pytest.raises(DataError, match="x and y must be finite"):
        synth(x, y, SonifyConfig(duration_s=0.01))


def test_missing_values_are_dropped_before_the_finite_check():
    buf = sonify_points([0.0, None, 2.0], [1.0, math.nan, None], SonifyConfig(duration_s=0.01))
    assert buf.frames == 441
