"""Synthetic pairs, .flo and PPM containers, metrics, manifests."""

import re
import struct

import numpy as np
import pytest

from graphflow.data import (DatasetSpec, FlowField, epe, f1_all,
                            flow_to_color, gen_pair, read_flo, read_manifest,
                            read_ppm, warp_backward, write_flo, write_manifest,
                            write_ppm)
from graphflow.errors import ConfigError, ContractError, DimensionError, FormatError

from oracles import naive_epe, naive_f1_all


def spec(**kw):
    base = dict(height=24, width=32, texture="smoothed-noise", motion="constant",
                mag_min=1.0, mag_max=3.0, seed=7)
    base.update(kw)
    return DatasetSpec(**base)


class TestGenPair:
    def test_outputs_are_float32_in_unit_range(self):
        i1, i2, gt = gen_pair(spec())
        assert i1.dtype == np.float32 and i2.dtype == np.float32
        assert i1.shape == (3, 24, 32) and i2.shape == (3, 24, 32)
        assert i1.min() >= 0.0 and i1.max() <= 1.0
        assert gt.flow.shape == (2, 24, 32)

    def test_same_seed_and_index_reproduce_bitwise(self):
        a = gen_pair(spec(), index=4)
        b = gen_pair(spec(), index=4)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2].flow, b[2].flow)

    def test_index_changes_the_sample(self):
        a = gen_pair(spec(), index=0)
        b = gen_pair(spec(), index=1)
        assert not np.array_equal(a[0], b[0])

    def test_zero_magnitude_motion_copies_the_frame(self):
        i1, i2, gt = gen_pair(spec(mag_min=0.0, mag_max=0.0))
        assert np.array_equal(i1, i2)
        assert np.array_equal(gt.flow, np.zeros_like(gt.flow))
        assert gt.valid_mask().all()

    def test_peak_displacement_lands_inside_the_magnitude_band(self):
        for idx in range(5):
            _, _, gt = gen_pair(spec(motion="sinusoidal-field", mag_min=2.0,
                                     mag_max=4.0), index=idx)
            peak = np.sqrt((gt.flow ** 2).sum(axis=0)).max()
            assert 2.0 - 1e-4 <= peak <= 4.0 + 1e-4

    def test_second_frame_is_the_backward_warp_of_the_first(self):
        i1, i2, gt = gen_pair(spec(motion="affine"))
        warped, valid = warp_backward(i1, gt.flow)
        assert np.array_equal(valid, gt.valid_mask())
        assert np.allclose(i2[:, valid], warped[:, valid], atol=1e-6)

    def test_constant_motion_by_integer_shift_is_an_exact_roll(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(3, 8, 8)).astype(np.float32)
        flow = np.zeros((2, 8, 8), dtype=np.float32)
        flow[0] = 2.0   # sample from x+2
        warped, valid = warp_backward(img, flow)
        assert np.array_equal(warped[:, :, :6], img[:, :, 2:])
        assert valid[:, :6].all() and not valid[:, 6:].any()

    @pytest.mark.parametrize("texture", ["smoothed-noise", "sinusoid-mixture"])
    @pytest.mark.parametrize("motion", ["constant", "affine", "sinusoidal-field"])
    def test_every_texture_and_motion_family_generates(self, texture, motion):
        i1, i2, gt = gen_pair(spec(texture=texture, motion=motion))
        assert np.all(np.isfinite(i1)) and np.all(np.isfinite(gt.flow))
        assert gt.valid_mask().any()

    def test_unknown_family_names_are_rejected(self):
        with pytest.raises(ConfigError):
            gen_pair(spec(texture="plaid"))
        with pytest.raises(ConfigError):
            gen_pair(spec(motion="brownian"))
        with pytest.raises(ConfigError):
            gen_pair(spec(height=8))


class TestFloContainer:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        flow = rng.normal(size=(2, 6, 9)).astype(np.float32)
        path = tmp_path / "a.flo"
        write_flo(path, FlowField(flow=flow))
        back = read_flo(path)
        assert np.array_equal(back.flow, flow)
        assert back.valid_mask().all()

    def test_single_pixel_file_is_twenty_bytes_little_endian(self, tmp_path):
        path = tmp_path / "b.flo"
        flow = np.array([[[1.5]], [[-2.0]]], dtype=np.float32)
        write_flo(path, FlowField(flow=flow))
        raw = path.read_bytes()
        assert len(raw) == 20
        magic, w, h, u, v = struct.unpack("<fiiff", raw)
        assert magic == np.float32(202021.25)
        assert (w, h, u, v) == (1, 1, 1.5, -2.0)

    def test_invalid_pixels_survive_the_round_trip(self, tmp_path):
        flow = np.ones((2, 3, 3), dtype=np.float32)
        valid = np.ones((3, 3), dtype=bool)
        valid[1, 2] = False
        path = tmp_path / "c.flo"
        write_flo(path, FlowField(flow=flow, valid=valid))
        back = read_flo(path)
        assert np.array_equal(back.valid_mask(), valid)
        assert np.array_equal(back.flow[:, valid], flow[:, valid])

    def test_wrong_magic_is_rejected_with_offset(self, tmp_path):
        path = tmp_path / "d.flo"
        path.write_bytes(struct.pack("<fii", 1.0, 1, 1) + b"\x00" * 8)
        with pytest.raises(FormatError, match="byte 0"):
            read_flo(path)

    def test_truncated_payload_is_rejected(self, tmp_path):
        path = tmp_path / "e.flo"
        path.write_bytes(struct.pack("<fii", 202021.25, 2, 2) + b"\x00" * 8)
        with pytest.raises(FormatError, match="truncated"):
            read_flo(path)

    def test_nonpositive_extents_are_rejected(self, tmp_path):
        path = tmp_path / "f.flo"
        path.write_bytes(struct.pack("<fii", 202021.25, 0, 4))
        with pytest.raises(FormatError):
            read_flo(path)


class TestPpmContainer:
    def test_round_trip_preserves_quantized_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(3, 5, 7), dtype=np.uint8)
        path = tmp_path / "a.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (3, 5, 7) and back.dtype == np.float32
        assert np.array_equal(np.rint(back * 255).astype(np.uint8), img)

    def test_float_frames_quantize_through_the_writer(self, tmp_path):
        img = np.zeros((3, 2, 2), dtype=np.float32)
        img[0] = 1.0
        path = tmp_path / "b.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert np.array_equal(back[0], np.ones((2, 2), np.float32))
        assert np.array_equal(back[1:], np.zeros((2, 2, 2), np.float32))

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# made by hand\n2 1\n255\n" + bytes(range(6)))
        img = read_ppm(path)
        assert img.shape == (3, 1, 2)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "d.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_ppm(path)

    def test_short_pixel_payload_is_rejected(self, tmp_path):
        path = tmp_path / "e.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(FormatError, match="ends at"):
            read_ppm(path)

    def test_trailing_bytes_are_rejected(self, tmp_path):
        path = tmp_path / "g.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 14)
        with pytest.raises(FormatError, match="2 trailing bytes"):
            read_ppm(path)

    @pytest.mark.parametrize("extents", [b"-2 3", b"2 0", b"0 0"])
    def test_non_positive_extents_are_rejected(self, tmp_path, extents):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n" + extents + b"\n255\n" + b"\x00" * 12)
        with pytest.raises(FormatError, match="extents"):
            read_ppm(path)

    @pytest.mark.parametrize("header,field", [
        (b"+2 1_0\n255", "+2"), (b"2 1_0\n255", "1_0"), (b"2 1\n+255", "+255"),
        (b"2 \xd9\xa3\n255", "\\xd9\\xa3"), (b"0x2 1\n255", "0x2"),
    ], ids=["sign", "underscore", "signed-maxval", "arabic-digit", "hex"])
    def test_header_fields_must_be_plain_decimal_digits(self, tmp_path,
                                                        header, field):
        path = tmp_path / "h.ppm"
        # enough pixels for any extents the fields could be read as
        path.write_bytes(b"P6\n" + header + b"\n" + b"\x00" * 60)
        with pytest.raises(FormatError, match="plain decimal digits"):
            read_ppm(path)
        with pytest.raises(FormatError, match=re.escape(field)):
            read_ppm(path)

    def test_a_field_beyond_the_integer_digit_limit_is_rejected(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P6\n" + b"9" * 5000 + b" 1\n255\n")
        with pytest.raises(FormatError, match="5000 digits"):
            read_ppm(path)


class TestFlowColor:
    def test_zero_flow_renders_white(self):
        img = flow_to_color(np.zeros((2, 4, 4), dtype=np.float32))
        assert img.dtype == np.uint8
        assert np.array_equal(img, np.full((3, 4, 4), 255, np.uint8))

    def test_opposite_vectors_take_complementary_hues(self):
        flow = np.zeros((2, 1, 2), dtype=np.float32)
        flow[0, 0, 0] = 4.0
        flow[0, 0, 1] = -4.0
        img = flow_to_color(flow).astype(np.int32)
        left, right = img[:, 0, 0], img[:, 0, 1]
        assert not np.array_equal(left, right)
        # both fully saturated: one channel at max, complementary ordering flips
        assert left.max() == 255 and right.max() == 255

    def test_cap_controls_saturation(self):
        flow = np.zeros((2, 1, 1), dtype=np.float32)
        flow[0] = 1.0
        mild = flow_to_color(flow, cap=10.0)
        vivid = flow_to_color(flow, cap=1.0)
        # larger cap leaves the short vector closer to white
        assert mild.min() > vivid.min()


class TestMetrics:
    def test_three_four_five_triangle(self):
        pred = np.zeros((2, 2, 2), dtype=np.float32)
        gt = np.zeros((2, 2, 2), dtype=np.float32)
        pred[0] += 3.0
        pred[1] += 4.0
        assert epe(pred, FlowField(flow=gt)) == 5.0
        assert f1_all(pred, FlowField(flow=gt)) == 100.0

    def test_half_the_pixels_off_by_four(self):
        pred = np.zeros((2, 2, 2), dtype=np.float32)
        pred[0, :, 1] = 4.0
        gt = FlowField(flow=np.zeros((2, 2, 2), dtype=np.float32))
        assert epe(pred, gt) == 2.0
        assert f1_all(pred, gt) == 50.0

    def test_threshold_is_strictly_greater_than_tau(self):
        pred = np.zeros((2, 1, 1), dtype=np.float32)
        pred[0] = 3.0
        gt = FlowField(flow=np.zeros((2, 1, 1), dtype=np.float32))
        assert f1_all(pred, gt) == 0.0

    def test_invalid_pixels_do_not_count(self):
        pred = np.zeros((2, 2, 2), dtype=np.float32)
        pred[0, 0, 0] = 100.0
        valid = np.ones((2, 2), dtype=bool)
        valid[0, 0] = False
        gt = FlowField(flow=np.zeros((2, 2, 2), dtype=np.float32), valid=valid)
        assert epe(pred, gt) == 0.0
        assert f1_all(pred, gt) == 0.0

    def test_matches_loop_oracle_on_random_fields(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(2, 6, 7)).astype(np.float32) * 3
        gt_arr = rng.normal(size=(2, 6, 7)).astype(np.float32)
        valid = rng.uniform(size=(6, 7)) > 0.2
        gt = FlowField(flow=gt_arr, valid=valid)
        assert np.isclose(epe(pred, gt),
                          naive_epe(pred, gt_arr, valid), atol=1e-6)
        assert np.isclose(f1_all(pred, gt),
                          naive_f1_all(pred, gt_arr, valid), atol=1e-6)

    def test_shape_mismatch_and_empty_mask_are_rejected(self):
        a = np.zeros((2, 2, 2), dtype=np.float32)
        b = FlowField(flow=np.zeros((2, 3, 2), dtype=np.float32))
        with pytest.raises(DimensionError):
            epe(a, b)
        none_valid = FlowField(flow=np.zeros((2, 2, 2), dtype=np.float32),
                               valid=np.zeros((2, 2), dtype=bool))
        with pytest.raises(ContractError):
            epe(a, none_valid)


class TestManifest:
    def test_round_trip_resolves_relative_paths(self, tmp_path):
        rows = [("pair_0000", "pair_0000_1.ppm", "pair_0000_2.ppm",
                 "pair_0000.flo"),
                ("pair_0001", "pair_0001_1.ppm", "pair_0001_2.ppm",
                 "pair_0001.flo")]
        path = tmp_path / "manifest.tsv"
        write_manifest(path, rows)
        entries = read_manifest(path)
        assert [e.pair_id for e in entries] == ["pair_0000", "pair_0001"]
        assert entries[0].img1 == tmp_path / "pair_0000_1.ppm"
        assert entries[1].flo == tmp_path / "pair_0001.flo"

    def test_wrong_column_count_is_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("pair_0000\tonly_two.ppm\n")
        with pytest.raises(FormatError, match=r"tsv:1"):
            read_manifest(path)

    def test_empty_manifest_is_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("")
        with pytest.raises(FormatError):
            read_manifest(path)
