import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdrdeghost.codecs import (CodecError, DatasetError, _load_sample,
                               load_dataset, read_pfm, read_ppm, write_pfm,
                               write_ppm)


class TestPpm:
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_round_trip_within_quantization(self, tmp_path, maxval):
        rng = np.random.default_rng(0)
        pix = rng.uniform(0, 1, size=(7, 5, 3))
        path = tmp_path / "img.ppm"
        write_ppm(path, pix, maxval=maxval)
        back = read_ppm(path)
        assert np.abs(back.pixels - pix).max() <= 1.0 / (2 * maxval)

    def test_single_red_pixel(self, tmp_path):
        path = tmp_path / "p.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = read_ppm(path)
        np.testing.assert_array_equal(img.pixels[0, 0], [1.0, 0.0, 0.0])

    def test_2x2_header(self, tmp_path):
        path = tmp_path / "p.ppm"
        path.write_bytes(b"P6 2 2 255\n" + bytes(range(12)))
        assert read_ppm(path).pixels.shape == (2, 2, 3)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "p.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n" + bytes(3))
        assert read_ppm(path).pixels.shape == (1, 1, 3)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "p.ppm"
        path.write_bytes(b"P6\n2 2 255\n" + bytes(5))
        with pytest.raises(CodecError, match="byte offset") as exc:
            read_ppm(path)
        assert exc.value.offset is not None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0")
        with pytest.raises(CodecError, match="magic"):
            read_ppm(path)

    # int() also takes digit separators and a plus sign: a width of 1_0 would
    # decode as 10 pixels wide
    @pytest.mark.parametrize("header, at", [(b"P6\n1_0 1\n255\n", 3),
                                            (b"P6\n+5 1\n255\n", 3),
                                            (b"P6\n1 1\n2_55\n", 7)])
    def test_header_integers_are_ascii_digits(self, tmp_path, header, at):
        path = tmp_path / "p.ppm"
        path.write_bytes(header + bytes(30))
        with pytest.raises(CodecError, match="malformed header field") as exc:
            read_ppm(path)
        assert exc.value.offset == at

    def test_sixteen_bit_big_endian(self, tmp_path):
        path = tmp_path / "p.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + b"\xff\xff\x00\x00\x80\x00")
        img = read_ppm(path)
        assert img.pixels[0, 0, 0] == 1.0
        assert img.pixels[0, 0, 2] == pytest.approx(0x8000 / 65535)


class TestPfm:
    def test_signalling_nan_raises_without_a_warning(self, tmp_path):
        # the cast to f64 quiets a signalling NaN; HdrImage then rejects it
        path = tmp_path / "snan.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + struct.pack("<3I", 0x7F800001, 0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CodecError, match=r"finite .*\(byte offset 12\)$"):
                read_pfm(path)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        pix = rng.uniform(0, 10, size=(6, 4, 3)).astype(np.float32)
        path = tmp_path / "img.pfm"
        write_pfm(path, pix)
        back = read_pfm(path)
        np.testing.assert_array_equal(back.pixels.astype(np.float32), pix)

    def test_negative_scale_is_little_endian(self, tmp_path):
        path = tmp_path / "img.pfm"
        payload = np.arange(3, dtype="<f4").tobytes()
        path.write_bytes(b"PF\n1 1\n-1.0\n" + payload)
        img = read_pfm(path)
        np.testing.assert_array_equal(img.pixels[0, 0], [0.0, 1.0, 2.0])

    def test_positive_scale_is_big_endian(self, tmp_path):
        path = tmp_path / "img.pfm"
        payload = np.arange(3, dtype=">f4").tobytes()
        path.write_bytes(b"PF\n1 1\n1.0\n" + payload)
        img = read_pfm(path)
        np.testing.assert_array_equal(img.pixels[0, 0], [0.0, 1.0, 2.0])

    def test_rows_stored_bottom_up(self, tmp_path):
        pix = np.zeros((2, 1, 3), dtype=np.float32)
        pix[0, 0, 0] = 7.0  # top row in memory
        path = tmp_path / "img.pfm"
        write_pfm(path, pix)
        raw = path.read_bytes()
        first_stored = np.frombuffer(raw[-24:-12], dtype="<f4")
        assert first_stored[0] == 0.0  # bottom row comes first on disk

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "img.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + bytes(10))
        with pytest.raises(CodecError, match="mismatch"):
            read_pfm(path)

    # float() also takes nan and inf; a zero scale gives no byte order
    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf", b"0", b"-0.0"])
    def test_scale_is_finite_and_non_zero(self, tmp_path, scale):
        path = tmp_path / "img.pfm"
        path.write_bytes(b"PF\n1 1\n" + scale + b"\n" + bytes(12))
        with pytest.raises(CodecError, match="malformed header field") as exc:
            read_pfm(path)
        assert exc.value.offset == len(b"PF\n1 1\n")

    def test_grayscale_unsupported(self, tmp_path):
        path = tmp_path / "img.pfm"
        path.write_bytes(b"Pf\n1 1\n-1.0\n" + bytes(4))
        with pytest.raises(CodecError, match="grayscale"):
            read_pfm(path)

    @pytest.mark.parametrize("dims", [b"-1 -2", b"-2 1", b"0 2", b"2 0"])
    def test_bad_dimensions(self, tmp_path, dims):
        path = tmp_path / "img.pfm"
        path.write_bytes(b"PF\n" + dims + b"\n-1.0\n" + bytes(24))
        with pytest.raises(CodecError, match="bad dimensions"):
            read_pfm(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_payload(self, tmp_path, value):
        path = tmp_path / "img.pfm"
        write_pfm(path, np.full((1, 2, 3), value))
        with pytest.raises(CodecError, match="finite and non-negative"):
            read_pfm(path)


@pytest.fixture(scope="module")
def valid_images(tmp_path_factory):
    root = tmp_path_factory.mktemp("codec_fuzz")
    pix = np.random.default_rng(0).uniform(0, 1, size=(2, 3, 3))
    write_ppm(root / "v.ppm", pix)
    write_pfm(root / "v.pfm", pix)
    return root


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_image_decodes_or_raises_codec_error(valid_images, data):
    ext, reader = data.draw(st.sampled_from([("ppm", read_ppm),
                                             ("pfm", read_pfm)]), label="codec")
    blob = (valid_images / f"v.{ext}").read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        # most flips land in the payload; the header is drawn on its own
        at = data.draw(st.one_of(st.integers(0, 12),
                                 st.integers(0, len(blob) - 1)), label="at")
        bad = bytearray(blob)
        bad[at] ^= data.draw(st.integers(1, 255), label="xor")
    path = valid_images / f"fuzz.{ext}"
    path.write_bytes(bytes(bad))
    try:
        img = reader(path)
    except CodecError:
        return
    assert img.pixels.ndim == 3 and img.pixels.shape[2] == 3


# exposures.txt: stops that parse, overflow, repeat or are not numbers, laid
# out with any whitespace, or raw bytes that need not be UTF-8
_STOP = st.one_of(st.integers(-1100, 1100).map(str),
                  st.floats().map(repr),
                  st.sampled_from(["nan", "-inf", "1e400", "-1e400", "0x10",
                                   "1_0", "\u0663", "\x00", "e", ""]),
                  st.text(max_size=6))
_EXPOSURES = st.one_of(
    st.tuples(st.lists(_STOP, max_size=5), st.sampled_from([" ", "\n", "\t",
                                                            "\r\n", "\u2003"]))
    .map(lambda t: t[1].join(t[0]).encode()),
    st.binary(max_size=24))


@settings(max_examples=300, deadline=None)
@given(blob=_EXPOSURES)
def test_fuzzed_exposures_load_or_raise_dataset_error(valid_images, blob):
    sample = valid_images / "sample"
    if not sample.exists():
        sample.mkdir()
        for i in range(3):
            (sample / f"ldr_{i}.ppm").write_bytes((valid_images / "v.ppm").read_bytes())
    (sample / "exposures.txt").write_bytes(blob)
    try:
        s = _load_sample(sample)
    except DatasetError as e:
        assert str(e).startswith(f"{sample}: ")
        return
    times = [ldr.exposure_time for ldr in s.ldr]
    assert all(0.0 < t < np.inf for t in times) and times == sorted(set(times))


def write_sample(root, name, h=4, w=4, stops=(-2, 0, 2), with_gt=True, seed=0):
    rng = np.random.default_rng(seed)
    d = root / name
    d.mkdir(parents=True)
    for i in range(3):
        write_ppm(d / f"ldr_{i}.ppm", rng.uniform(0, 1, size=(h, w, 3)))
    (d / "exposures.txt").write_text("\n".join(str(s) for s in stops) + "\n")
    if with_gt:
        write_pfm(d / "gt.pfm", rng.uniform(0, 2, size=(h, w, 3)).astype(np.float32))
    return d


class TestLoadDataset:
    def test_exposure_stops_to_times(self, tmp_path):
        write_sample(tmp_path, "s0")
        (sample,) = load_dataset(tmp_path)
        assert [im.exposure_time for im in sample.ldr] == [0.25, 1.0, 4.0]

    def test_missing_gt_allowed(self, tmp_path):
        write_sample(tmp_path, "s0", with_gt=False)
        (sample,) = load_dataset(tmp_path)
        assert sample.ground_truth is None

    def test_gt_normalized_with_recorded_scale(self, tmp_path):
        write_sample(tmp_path, "s0")
        (sample,) = load_dataset(tmp_path)
        gt = sample.ground_truth
        assert gt.scale > 0
        assert np.percentile(gt.pixels, 99.9) == pytest.approx(1.0, abs=1e-5)

    def test_duplicate_exposures_rejected(self, tmp_path):
        write_sample(tmp_path, "s0", stops=(0, 0, 2))
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("stop", ["abc", "nan", "inf", "-2000", "2000"])
    def test_bad_exposure_stop_rejected(self, tmp_path, stop):
        write_sample(tmp_path, "s0", stops=(-2, stop, 2))
        with pytest.raises(DatasetError, match=f"s0: exposure stop '{stop}'"):
            load_dataset(tmp_path)

    def test_missing_ldr_rejected(self, tmp_path):
        d = write_sample(tmp_path, "s0")
        (d / "ldr_1.ppm").unlink()
        with pytest.raises(DatasetError, match="missing"):
            load_dataset(tmp_path)

    def test_codec_error_names_the_file_and_keeps_its_offset(self, tmp_path):
        d = write_sample(tmp_path, "s0")
        (d / "ldr_2.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(CodecError) as e:
            load_dataset(tmp_path)
        assert str(e.value) == (f"{d / 'ldr_2.ppm'}: truncated payload: need 48 "
                                f"bytes, have 10 (byte offset 21)")
        assert e.value.offset == 21

    def test_samples_ordered_by_id(self, tmp_path):
        write_sample(tmp_path, "s1", seed=1)
        write_sample(tmp_path, "s0", seed=2)
        names = [s.name for s in load_dataset(tmp_path)]
        assert names == ["s0", "s1"]

    def test_thread_count_does_not_change_result(self, tmp_path, monkeypatch):
        for i in range(5):
            write_sample(tmp_path, f"s{i}", seed=i)
        monkeypatch.setenv("HDT_THREADS", "1")
        a = load_dataset(tmp_path)
        monkeypatch.setenv("HDT_THREADS", "4")
        b = load_dataset(tmp_path)
        for sa, sb in zip(a, b):
            for ia, ib in zip(sa.ldr, sb.ldr):
                np.testing.assert_array_equal(ia.pixels, ib.pixels)
