from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import check_wav_header, read_wav_oracle, zero_crossing_freq
from polyrep.errors import DataError
from polyrep.sonify import (
    AMPLITUDE,
    GAP_FRACTION,
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


SWEEP_CASES = {
    "flat_x": ([2.0, 2.0, 2.0], [1.0, 4.0, 2.0]),
    "flat_y": ([0.0, 1.0, 2.0], [4.0, 4.0, 4.0]),
    "both_flat": ([5.0, 5.0], [7.0, 7.0]),
    "unsorted_x": ([3.0, 0.0, 2.0, 1.0], [1.0, 0.0, 5.0, 2.0]),
    "repeated_x": ([0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]),
}

SWEEP_SHA256 = {  # (linear pitch, log pitch) WAV digests at 0.25 s
    "flat_x": (
        "36d4ee454f91ae151c2f26a28221dd652231567734628a6cf899037c98c96c1c",
        "af0e32cbc3c7be1591a39997eb3898a8fac24d5f181487bb292bfc4584acf576",
    ),
    "flat_y": (
        "dd5188b67e9a88d6623b726786147417705129128b3936a607d0cadd77b3a20d",
        "cc20ea0fee122f35e72697673531727c6413b85f653da9c21ce8ce753f7be878",
    ),
    "both_flat": (
        "ce73745c3fd929c6c1b179342448790797973d124cd0957a90754d55bcf1a109",
        "6df5c01bae61c5f8519fed582bcd63f80339b618a69a24fea823798f9fb36b5b",
    ),
    "unsorted_x": (
        "25047cb1c8b44b64415ddac53448b7bfbc8870008940013bddea3d1de4dbbad0",
        "72da4d44424c2c873f9cd64b5dd48e89ee2c5394bd5d0e9db83eed698a666710",
    ),
    "repeated_x": (
        "5055a6d4cd28fc5c7117a1741e6b3bc840c8b9146a05f29acc8bb8c411c7a9cf",
        "36f13ea7b95c3fc1bdfab7fcd51d2e3fca80253dae182d919bff205c61be260a",
    ),
}


@pytest.mark.parametrize("log_pitch", [False, True])
@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_wav_bytes_pinned(name, log_pitch):
    x, y = SWEEP_CASES[name]
    cfg = SonifyConfig(duration_s=0.25, log_pitch=log_pitch)
    digest = hashlib.sha256(write_wav(sonify_sweep(x, y, cfg))).hexdigest()
    assert digest == SWEEP_SHA256[name][log_pitch]


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
