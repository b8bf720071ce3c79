"""Autodiff engine: forward semantics, backward rules, broadcast contract."""

import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphflow.errors import ContractError, DimensionError
from graphflow import tensor as tt
from graphflow.tensor import (Tensor, absolute, add, avg_pool2x2, concat,
                              conv2d, l2_normalize, matmul, mul, relu, reshape,
                              scale, sigmoid, softmax, tanh, transpose, tsum,
                              window_sample)
from graphflow.gradcheck import gradcheck
from graphflow.layers import tap_major

from oracles import (naive_bilinear, naive_conv2d, naive_conv2d_backward,
                     naive_matmul, naive_softmax)


def where_sigmoid(d):
    """The sign-split sigmoid, the reference for the branch-free one."""
    e = np.exp(-np.abs(d))
    out = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out.astype(d.dtype, copy=False)


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def p64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True,
                  dtype=np.float64)


def c64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), dtype=np.float64)


class TestPrecision:
    def test_default_width_is_32_bit(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_context_switches_width_and_restores(self):
        with tt.precision(64):
            assert Tensor([1.0]).dtype == np.float64
        assert Tensor([1.0]).dtype == np.float32

    def test_mixed_width_operands_are_rejected(self):
        a = Tensor([1.0], dtype=np.float32)
        b = Tensor([1.0], dtype=np.float64)
        with pytest.raises(ContractError):
            add(a, b)


class TestBroadcast:
    def test_leading_unit_extents_expand(self):
        a = p64(np.ones((1, 3)))
        b = p64(np.arange(6.0).reshape(2, 3))
        out = add(a, b)
        assert out.shape == (2, 3)
        tsum(out).backward()
        assert np.array_equal(a.grad, [[2.0, 2.0, 2.0]])

    def test_scalar_against_any_shape(self):
        s = p64(np.asarray(3.0))
        b = c64(np.ones((2, 2, 2)))
        out = mul(s, b)
        tsum(out).backward()
        assert s.grad == 8.0

    def test_trailing_unit_extent_broadcasts(self):
        a = p64(np.asarray([[1.0], [2.0], [3.0]]))
        b = c64(np.arange(12.0).reshape(3, 4))
        out = add(a, b)
        assert np.array_equal(out.data, a.data + b.data)
        tsum(mul(out, b)).backward()
        assert np.array_equal(a.grad, b.data.sum(axis=1, keepdims=True))

    def test_trailing_unit_axes_sum_their_replicas(self):
        x = p64(np.asarray([[1.0], [2.0]]).reshape(2, 1, 1))
        out = mul(x, c64(np.ones((2, 3, 4))))
        assert out.shape == (2, 3, 4)
        tsum(out).backward()
        assert np.array_equal(x.grad, np.full((2, 1, 1), 12.0))

    def test_incompatible_extents_are_rejected(self):
        with pytest.raises(DimensionError):
            add(c64(np.ones((2, 3))), c64(np.ones((2, 4))))


class TestElementwise:
    def test_relu_clamps_negatives(self):
        out = relu(c64([-2.0, 0.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 3.0])

    def test_sigmoid_is_stable_at_large_magnitudes(self):
        out = sigmoid(c64([-800.0, 0.0, 800.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[1] == 0.5

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(d=st.sampled_from([np.float32, np.float64]).flatmap(
        lambda dt: arrays(dt, st.integers(0, 40))))
    def test_sigmoid_matches_the_sign_split_formula_bitwise(self, d):
        assert same_bits(sigmoid(Tensor(d, dtype=d.dtype)).data,
                         where_sigmoid(d))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_special_values_match_bitwise(self, dtype):
        d = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45,
                      -1e-45, 88.0, -88.0, 1e30, -1e30], dtype=dtype)
        assert same_bits(sigmoid(Tensor(d, dtype=dtype)).data,
                         where_sigmoid(d))

    def test_tanh_matches_numpy(self):
        x = np.linspace(-2, 2, 7)
        assert np.array_equal(tanh(c64(x)).data, np.tanh(x))

    def test_abs_gradient_is_sign(self):
        x = p64([-1.5, 2.0, -0.5])
        tsum(absolute(x)).backward()
        assert np.array_equal(x.grad, [-1.0, 1.0, -1.0])

    @pytest.mark.parametrize("fn", [relu, sigmoid, tanh])
    def test_finite_difference_agreement(self, fn):
        rng = np.random.default_rng(11)
        x = p64(rng.normal(size=(3, 4)) + 0.1)
        rep = gradcheck(lambda: tsum(mul(fn(x), fn(x))), {"x": x})
        assert rep.max_rel_err < 1e-6


class TestStructural:
    def test_reshape_transpose_roundtrip_gradient(self):
        x = p64(np.arange(12.0).reshape(3, 4))
        out = transpose(reshape(x, (4, 3)))
        tsum(mul(out, out)).backward()
        assert np.array_equal(x.grad, 2 * x.data)

    def test_concat_splits_gradient_by_extent(self):
        a, b = p64(np.ones((2, 3))), p64(np.ones((1, 3)))
        out = concat([a, b])
        assert out.shape == (3, 3)
        tsum(mul(out, c64(np.arange(9.0).reshape(3, 3)))).backward()
        assert np.array_equal(a.grad, np.arange(6.0).reshape(2, 3))
        assert np.array_equal(b.grad, [[6.0, 7.0, 8.0]])

    def test_sum_and_mean_over_axis_subsets(self):
        x = p64(np.arange(24.0).reshape(2, 3, 4))
        s = tsum(x, axis=(1, 2))
        m = scale(tsum(x, axis=(1, 2), keepdims=True), 1.0 / 12.0)
        assert s.shape == (2,) and m.shape == (2, 1, 1)
        tsum(add(s, reshape(m, (2,)))).backward()
        assert np.allclose(x.grad, 1.0 + 1.0 / 12.0)


class TestMatmul:
    def test_identity_preserves_operand(self):
        a = c64(np.eye(2))
        b = c64([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_one_hot_row_selects_row(self):
        p = c64([[1.0, 0.0], [0.0, 0.0]])
        v = c64([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(p, v).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_matches_loop_oracle_exactly_on_integer_grids(self):
        rng = np.random.default_rng(5)
        a = rng.integers(-4, 5, size=(5, 7)).astype(np.float64)
        b = rng.integers(-4, 5, size=(7, 3)).astype(np.float64)
        out = matmul(c64(a), c64(b))
        assert np.array_equal(out.data, naive_matmul(a, b))

    def test_backward_accumulates_both_adjoints_exactly(self):
        rng = np.random.default_rng(6)
        a = p64(rng.integers(-3, 4, size=(3, 4)).astype(np.float64))
        b = p64(rng.integers(-3, 4, size=(4, 2)).astype(np.float64))
        g = rng.integers(-3, 4, size=(3, 2)).astype(np.float64)
        tsum(mul(matmul(a, b), c64(g))).backward()
        assert np.array_equal(a.grad, g @ b.data.T)
        assert np.array_equal(b.grad, a.data.T @ g)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(7)
        a = p64(rng.normal(size=(3, 4)))
        b = p64(rng.normal(size=(4, 2)))
        rep = gradcheck(lambda: tsum(mul(matmul(a, b), matmul(a, b))),
                        {"a": a, "b": b})
        assert rep.max_rel_err < 1e-6

    def test_rank_and_extent_validation(self):
        with pytest.raises(DimensionError):
            matmul(c64(np.ones(3)), c64(np.ones((3, 2))))
        with pytest.raises(DimensionError):
            matmul(c64(np.ones((2, 3))), c64(np.ones((4, 2))))


class TestConv2d:
    def test_channel_identity_kernel_is_identity(self):
        rng = np.random.default_rng(8)
        x = c64(rng.normal(size=(3, 5, 5)))
        w = c64(np.eye(3).reshape(3, 3, 1, 1))
        assert np.array_equal(conv2d(x, w, c64(np.zeros(3))).data, x.data)

    def test_all_ones_kernel_on_one_hot_marks_neighborhood(self):
        x = np.zeros((1, 5, 5))
        x[0, 2, 2] = 1.0
        out = conv2d(c64(x), c64(np.ones((1, 1, 3, 3))), c64(np.zeros(1)))
        expect = np.zeros((1, 5, 5))
        expect[0, 1:4, 1:4] = 1.0
        assert np.array_equal(out.data, expect)

    def test_floor_output_extents(self):
        # same padding: floor((H + 2*(k//2) - k) / stride) + 1 = ceil(H / stride)
        x = c64(np.zeros((1, 7, 9)))
        w = c64(np.zeros((2, 1, 3, 3)))
        assert conv2d(x, w, c64(np.zeros(2)), stride=2).shape == (2, 4, 5)

    def test_matches_loop_oracle_exactly_on_integer_grids(self):
        rng = np.random.default_rng(9)
        for hw in ((8, 8), (5, 7)):
            x = rng.integers(-3, 4, size=(2, *hw)).astype(np.float64)
            w3 = rng.integers(-3, 4, size=(4, 2, 3, 3)).astype(np.float64)
            b = rng.integers(-3, 4, size=4).astype(np.float64)
            w1 = rng.integers(-3, 4, size=(4, 2, 1, 1)).astype(np.float64)
            for w, stride, order in itertools.product(
                    (w3, w1), (1, 2), (np.ascontiguousarray, tap_major)):
                out = conv2d(c64(x), c64(order(w)), c64(b), stride=stride)
                assert np.array_equal(out.data, naive_conv2d(
                    x, w, b, stride=stride, padding=w.shape[2] // 2))

    def test_backward_matches_loop_adjoints_exactly(self):
        # same padding: the oracles pad by k // 2, 1 at k = 3 and 0 at k = 1
        rng = np.random.default_rng(10)
        for hw, k, stride, order in itertools.product(
                ((8, 8), (5, 7)), (1, 3), (1, 2),
                (np.ascontiguousarray, tap_major)):
            xd = rng.integers(-3, 4, size=(2, *hw)).astype(np.float64)
            wd = rng.integers(-3, 4, size=(4, 2, k, k)).astype(np.float64)
            bd = rng.integers(-3, 4, size=4).astype(np.float64)
            x, w, b = p64(xd), p64(order(wd)), p64(bd)
            out = conv2d(x, w, b, stride=stride)
            g = rng.integers(-3, 4, size=out.shape).astype(np.float64)
            tsum(mul(out, c64(g))).backward()
            dx, dw, db = naive_conv2d_backward(xd, wd, g, stride=stride,
                                               padding=k // 2)
            assert np.array_equal(x.grad, dx)
            assert np.array_equal(w.grad, dw)
            assert np.array_equal(b.grad, db)

    @pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (1, 2), (3, 2)])
    def test_weight_gradient_keeps_the_tap_major_order(self, k, stride):
        """A tap-major weight gets a tap-major gradient from one use and
        summed over two, so the optimizer reads it sequentially."""
        rng = np.random.default_rng(13)
        x = p64(rng.normal(size=(3, 6, 5)))
        w = p64(tap_major(rng.normal(size=(4, 3, k, k))))
        b = c64(np.zeros(4))
        for uses in (1, 2):
            w.grad = None
            outs = [conv2d(x, w, b, stride=stride) for _ in range(uses)]
            tsum(outs[0] if uses == 1 else add(*outs)).backward()
            assert w.grad.shape == (4, 3, k, k)
            assert w.grad.transpose(0, 2, 3, 1).flags.c_contiguous

    @pytest.mark.parametrize("hw", [(1, 1), (1, 5), (5, 1), (2, 3), (4, 4)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("cin,cout", [(3, 2), (2, 3)])
    def test_stride_one_on_small_maps_matches_the_oracles_exactly(
            self, hw, k, cin, cout):
        """Maps as thin as one row or column, and kernels wider than the
        map, where the flat shifts run off it altogether."""
        rng = np.random.default_rng([k, cin, *hw])
        xd = rng.integers(-3, 4, size=(cin, *hw)).astype(np.float64)
        wd = rng.integers(-3, 4, size=(cout, cin, k, k)).astype(np.float64)
        bd = rng.integers(-3, 4, size=cout).astype(np.float64)
        g = rng.integers(-3, 4, size=(cout, *hw)).astype(np.float64)
        dx, dw, db = naive_conv2d_backward(xd, wd, g, padding=k // 2)
        for order in (np.ascontiguousarray, tap_major):
            x, w, b = p64(xd), p64(order(wd)), p64(bd)
            out = conv2d(x, w, b)
            assert np.array_equal(out.data, naive_conv2d(xd, wd, bd,
                                                         padding=k // 2))
            tsum(mul(out, c64(g))).backward()
            assert np.array_equal(x.grad, dx)
            assert np.array_equal(w.grad, dw)
            assert np.array_equal(b.grad, db)

    @pytest.mark.parametrize("k", [1, 3])
    def test_strided_conv_of_a_transposed_map_matches_the_oracles(self, k):
        """A strided conv copies its columns from a strided view of its
        padded map, which at k = 1 is the map itself, here one with its
        leading axes swapped, contiguous in neither order. Forward and
        backward match the loop oracles bit for bit."""
        rng = np.random.default_rng([k, 14])
        xd = rng.integers(-3, 4, size=(6, 2, 7)).astype(np.float64)
        xd = xd.transpose(1, 0, 2)
        wd = rng.integers(-3, 4, size=(4, 2, k, k)).astype(np.float64)
        bd = rng.integers(-3, 4, size=4).astype(np.float64)
        x, w, b = p64(xd), p64(tap_major(wd)), p64(bd)
        assert not (x.data.flags.c_contiguous or x.data.flags.f_contiguous)
        out = conv2d(x, w, b, stride=2)
        want = naive_conv2d(xd, wd, bd, stride=2, padding=k // 2)
        assert same_bits(out.data, want)
        g = rng.integers(-3, 4, size=out.shape).astype(np.float64)
        tsum(mul(out, c64(g))).backward()
        dx, dw, db = naive_conv2d_backward(xd, wd, g, stride=2,
                                           padding=k // 2)
        for got, ref in ((x.grad, dx), (w.grad, dw), (b.grad, db)):
            assert same_bits(np.ascontiguousarray(got),
                             np.ascontiguousarray(ref))

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(12)
        x = p64(rng.normal(size=(2, 6, 6)))
        w = p64(rng.normal(size=(3, 2, 3, 3)) * 0.5)
        b = p64(rng.normal(size=3))
        for stride in (2, 1):
            rep = gradcheck(
                lambda: tsum(mul(conv2d(x, w, b, stride=stride),
                                 conv2d(x, w, b, stride=stride))),
                {"x": x, "w": w, "b": b})
            assert rep.max_rel_err < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (1, 2), (3, 2)])
    def test_relu_epilogue_is_bitwise_the_composed_relu(self, k, stride,
                                                        dtype):
        """Integer draws put pre-activations below and above 0, and a
        zero corner of the map with a zero bias puts output (0, 0, 0)
        exactly at 0. The output and the x, w and b gradients of the
        epilogue match relu(conv2d(...)) bit for bit."""
        rng = np.random.default_rng([k, stride])
        xd = rng.integers(-2, 3, size=(3, 6, 5))
        xd[:, :2, :2] = 0
        wd = tap_major(rng.integers(-1, 2, size=(4, 3, k, k)).astype(dtype))
        bd = rng.integers(-2, 3, size=4)
        bd[0] = 0
        gd = rng.normal(size=(4, (6 - 1) // stride + 1, (5 - 1) // stride + 1))
        runs = []
        for fused in (True, False):
            x, w, b = (Tensor(a, requires_grad=True, dtype=dtype)
                       for a in (xd, wd, bd))
            if fused:
                out = conv2d(x, w, b, stride=stride, relu=True)
            else:
                pre = conv2d(x, w, b, stride=stride)
                assert (pre.data == 0).any() and (pre.data < 0).any()
                out = relu(pre)
            tsum(mul(out, Tensor(gd, dtype=dtype))).backward()
            runs.append((out.data, x.grad, w.grad, b.grad))
        for fused, composed in zip(*runs):
            assert same_bits(fused, composed)

    def test_even_kernel_is_rejected(self):
        with pytest.raises(DimensionError):
            conv2d(c64(np.zeros((1, 4, 4))), c64(np.zeros((1, 1, 2, 2))),
                   c64(np.zeros(1)))


def padded_im2col(x, k):
    """Stride-1 tap-major columns sliced from a zero-padded copy."""
    c, h, w = x.shape
    p = k // 2
    xp = np.zeros((c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    xp[:, p:p + h, p:p + w] = x
    return np.stack([xp[:, ki:ki + h, kj:kj + w]
                     for ki in range(k) for kj in range(k)]).reshape(-1, h * w)


def padded_grad_cols(g, k):
    """Channel-major columns of a zero-padded copy, taps reversed."""
    o, h, w = g.shape
    p = k // 2
    gp = np.zeros((o, h + 2 * p, w + 2 * p), dtype=g.dtype)
    gp[:, p:p + h, p:p + w] = g
    return np.stack([gp[:, k - 1 - ki:k - 1 - ki + h, k - 1 - kj:k - 1 - kj + w]
                     for ki in range(k) for kj in range(k)],
                    axis=1).reshape(-1, h * w)


class TestStrideOneColumns:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(c=st.integers(1, 4), h=st.integers(1, 7), w=st.integers(1, 7),
           k=st.sampled_from([1, 3, 5, 7]), seed=st.integers(0, 2**16))
    def test_flat_shifts_match_padded_slices_bit_for_bit(self, c, h, w, k,
                                                          seed):
        x = np.random.default_rng(seed).standard_normal(
            (c, h, w)).astype(np.float32)
        assert tt._im2col(x, k, 1).tobytes() == padded_im2col(x, k).tobytes()
        assert (tt._grad_cols(x, k).tobytes()
                == padded_grad_cols(x, k).tobytes())


class TestSoftmax:
    def test_uniform_logits_give_uniform_mass(self):
        out = softmax(c64(np.zeros((1, 4))))
        assert np.array_equal(out.data, np.full((1, 4), 0.25))

    def test_large_offsets_do_not_move_the_distribution(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 5))
        a = softmax(c64(x)).data
        b = softmax(c64(x + 100.0)).data
        assert np.allclose(a, b, atol=1e-13)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(14)
        out = softmax(c64(rng.normal(size=(6, 9)) * 10))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(4, 6))
        assert np.allclose(softmax(c64(x)).data,
                           naive_softmax(x, 1), atol=1e-15)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(16)
        x = p64(rng.normal(size=(3, 4)))
        w = c64(rng.normal(size=(3, 4)))
        rep = gradcheck(lambda: tsum(mul(softmax(x), w)), {"x": x})
        assert rep.max_rel_err < 1e-6


class TestL2Normalize:
    def test_three_four_gives_point_six_point_eight(self):
        out = l2_normalize(c64([3.0, 4.0]))
        assert np.allclose(out.data, [0.6, 0.8], atol=1e-15)

    def test_zero_vector_maps_to_zero_not_nan(self):
        out = l2_normalize(c64(np.zeros(4)))
        assert np.array_equal(out.data, np.zeros(4))

    def test_result_has_unit_norm_per_column(self):
        rng = np.random.default_rng(17)
        out = l2_normalize(c64(rng.normal(size=(5, 7))))
        assert np.allclose((out.data ** 2).sum(axis=0), 1.0, atol=1e-12)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(18)
        x = p64(rng.normal(size=(4, 3)) + 0.5)
        w = c64(rng.normal(size=(4, 3)))
        rep = gradcheck(lambda: tsum(mul(l2_normalize(x), w)), {"x": x})
        assert rep.max_rel_err < 1e-6

    def test_gradient_vanishes_below_eps(self):
        x = p64(np.zeros(3))
        tsum(l2_normalize(x)).backward()
        # clamped branch: out = x / 1e-12, so the gradient is 1e12 per entry
        assert np.allclose(x.grad, 1e12)


class TestAvgPool:
    def test_constant_input_stays_constant_with_ceil_extents(self):
        out = avg_pool2x2(c64(np.full((2, 5, 7), 3.25)))
        assert out.shape == (2, 3, 4)
        assert np.array_equal(out.data, np.full((2, 3, 4), 3.25))

    def test_window_means_match_hand_computation(self):
        x = np.arange(9.0).reshape(1, 3, 3)
        out = avg_pool2x2(c64(x)).data
        # windows: [[0,1],[3,4]] -> 2.0, [[2],[5]] -> 3.5, [[6,7]] -> 6.5, [[8]] -> 8
        assert np.array_equal(out, [[[2.0, 3.5], [6.5, 8.0]]])

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(19)
        x = p64(rng.normal(size=(2, 5, 5)))
        rep = gradcheck(lambda: tsum(mul(avg_pool2x2(x), avg_pool2x2(x))), {"x": x})
        assert rep.max_rel_err < 1e-6


class TestWindowSample:
    def test_matches_per_slice_oracle(self):
        rng = np.random.default_rng(23)
        vol = rng.normal(size=(4, 5, 6))
        cx = rng.uniform(-3.0, 8.0, size=4)
        cy = rng.uniform(-3.0, 7.0, size=4)
        out = window_sample([c64(vol)], c64(np.stack([cx, cy])), 1).data
        assert out.shape == (9, 4)
        for nn in range(4):
            for ss in range(9):
                dy, dx = divmod(ss, 3)
                ref = naive_bilinear(vol[nn][None], cx[nn] + dx - 1,
                                     cy[nn] + dy - 1)[0]
                assert np.allclose(out[ss, nn], ref, atol=1e-14)

    def test_finite_difference_agreement_in_volume_and_centers(self):
        rng = np.random.default_rng(24)
        vol = p64(rng.normal(size=(3, 4, 4)))
        # fractional parts away from the integer kinks; windows cross borders
        centers = p64(rng.integers(-1, 4, size=(2, 3))
                      + rng.uniform(0.2, 0.8, size=(2, 3)))
        rep = gradcheck(
            lambda: tsum(mul(window_sample([vol], centers, 2),
                             window_sample([vol], centers, 2))),
            {"vol": vol, "centers": centers})
        assert rep.max_rel_err < 1e-6

    def test_interleaved_shapes_each_give_their_own_bits(self):
        """The per-shape plan cache holds two pyramids of different
        extents and radii at once; each reads the same bits whether the
        other ran in between or not, and no plan array can be written."""

        def pyramid(seed, side, radius):
            rng = np.random.default_rng(seed)
            exts = [(side, side + 1)]
            for _ in range(3):
                exts.append(((exts[-1][0] + 1) // 2, (exts[-1][1] + 1) // 2))
            n = side * (side + 1)
            levels = [p64(rng.normal(size=(n, *e))) for e in exts]
            centers = p64(rng.uniform(-6.0, side + 6.0, size=(2, n)))
            weights = c64(rng.normal(size=(4 * (2 * radius + 1) ** 2, n)))
            return levels, centers, weights, radius

        def run(levels, centers, weights, radius):
            for t in (*levels, centers):
                t.grad = None
            out = window_sample(levels, centers, radius)
            tsum(mul(out, weights)).backward()
            return [out.data, centers.grad, *(v.grad for v in levels)]

        cases = (pyramid(31, 5, 1), pyramid(32, 8, 3))
        tt._window_plan.cache_clear()
        alone = []
        for case in cases:
            alone.append(run(*case))
            tt._window_plan.cache_clear()
        for _ in range(2):
            for case, want in zip(cases, alone):
                assert all(same_bits(a, b) for a, b in zip(run(*case), want))
        assert tt._window_plan.cache_info().currsize == 2
        plan = tt._window_plan(((5, 6), (3, 3), (2, 2), (1, 1)), 30, 1,
                               np.dtype(np.float64))
        for arr in (plan.starts, plan.scales, plan.hi, plan.table,
                    plan.ramp, plan.base):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_slice_count_mismatch_is_rejected(self):
        with pytest.raises(DimensionError):
            window_sample([c64(np.zeros((3, 4, 4)))], c64(np.zeros((2, 5))), 1)
        with pytest.raises(ContractError):
            window_sample([c64(np.zeros((3, 4, 4)))], c64(np.zeros((2, 3))), -1)


class TestBackward:
    def test_sum_root_gives_unit_gradients(self):
        x = p64(np.arange(6.0).reshape(2, 3))
        tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_half_squared_norm_gradient_is_x(self):
        x = p64([1.0, -2.0, 3.0])
        scale(tsum(mul(x, x)), 0.5).backward()
        assert np.array_equal(x.grad, x.data)

    def test_root_gradient_is_exactly_one(self):
        x = p64([2.0])
        loss = tsum(mul(x, x))
        loss.backward()
        assert np.array_equal(loss.grad, np.ones(()))

    def test_fanout_accumulates_gradients(self):
        x = p64([1.0, 2.0])
        y = add(mul(x, x), mul(x, x))
        tsum(y).backward()
        assert np.array_equal(x.grad, 4 * x.data)

    def test_non_scalar_root_is_rejected(self):
        x = p64(np.ones((2, 2)))
        with pytest.raises(ContractError):
            mul(x, x).backward()

    def test_second_backward_without_rebuild_is_rejected(self):
        x = p64([1.0])
        loss = tsum(mul(x, x))
        loss.backward()
        with pytest.raises(ContractError, match="consumed"):
            loss.backward()

    def test_leaf_root_is_rejected(self):
        x = p64([1.0])
        with pytest.raises(ContractError, match="leaf"):
            x.backward()

    def test_backward_frees_the_conv_columns(self, monkeypatch):
        """No conv keeps columns on the tape: a stride-1 conv takes both
        gradients from the output gradient's tap-reversed columns, and a
        strided conv rebuilds its columns in backward() for the weight
        gradient. Only the strided conv pads a copy of its input; the
        stride-1 one shifts its map and its gradient unpadded."""
        made = {"_im2col": [], "_grad_cols": []}
        padded = []

        def pad(a, p, pad=tt._pad):
            padded.append(a)
            return pad(a, p)

        monkeypatch.setattr(tt, "_pad", pad)

        def recording(builder):
            def build(*args):
                cols = builder(*args)
                made[builder.__name__].append(weakref.ref(cols))
                return cols
            return build

        for name in made:
            monkeypatch.setattr(tt, name, recording(getattr(tt, name)))
        rng = np.random.default_rng(5)
        x = p64(rng.normal(size=(2, 5, 5)))
        w = p64(rng.normal(size=(3, 2, 3, 3)))
        w2 = p64(rng.normal(size=(4, 3, 3, 3)))
        y = conv2d(x, w, c64(np.zeros(3)))
        assert made["_im2col"][0]() is None
        assert padded == []                   # the stride-1 forward
        loss = tsum(conv2d(y, w2, c64(np.zeros(4)), stride=2))
        assert made["_im2col"][1]() is None
        loss.backward()
        assert len(made["_im2col"]) == 3      # the strided conv rebuilt its
        assert len(made["_grad_cols"]) == 1   # columns; the stride-1 one did not
        assert all(ref() is None for refs in made.values() for ref in refs)
        # one pad per strided column build, each of the strided conv's
        # input; the stride-1 backward padded no gradient
        assert len(padded) == 2 and all(a is y.data for a in padded)

    def test_interior_gradients_are_dropped(self):
        x = p64([1.0, 2.0])
        y = mul(x, x)
        z = scale(y, 3.0)
        loss = tsum(z)
        loss.backward()
        assert y.grad is None and z.grad is None

    def test_shared_gradients_are_never_written_in_place(self):
        """add hands one array to both parents, so a later addition into
        one leaf's gradient must not reach the other's."""
        rng = np.random.default_rng(9)
        a = p64(rng.normal(size=(2, 3)))
        b = p64(rng.normal(size=(2, 3)))
        w = c64(rng.integers(-4, 5, size=(2, 3)))
        tsum(mul(add(scale(a, 2.0), add(a, b)), w)).backward()
        assert np.array_equal(b.grad, w.data)
        assert np.array_equal(a.grad, 3.0 * w.data)

    def test_no_grad_suppresses_graph_construction(self):
        x = p64([1.0, 2.0])
        with tt.no_grad():
            y = tsum(mul(x, x))
        assert not y.requires_grad

    def test_gradients_accumulate_across_separate_backwards(self):
        x = p64([1.0, 2.0])
        tsum(mul(x, x)).backward()
        first = x.grad.copy()
        tsum(mul(x, x)).backward()
        assert np.array_equal(x.grad, 2 * first)
