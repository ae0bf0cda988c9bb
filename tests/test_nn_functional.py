"""Tests of the numpy kernels against naive references."""

import ctypes
import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro import models, nn
from repro.core import FaultInjection
from repro.nn import functional as F
from repro.tensor import Tensor, no_grad

from .conftest import assert_grad_close, numerical_gradient


def naive_conv2d(x, w, b, stride, padding, groups=1):
    """Straightforward loop convolution used as the ground truth."""
    n, c, h, wdt = x.shape
    oc, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wdt + 2 * pw - kw) // sw + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    ocg = oc // groups
    for img in range(n):
        for f in range(oc):
            g = f // ocg
            for i in range(oh):
                for j in range(ow):
                    patch = xp[img, g * cg : (g + 1) * cg,
                               i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[img, f, i, j] = (patch * w[f]).sum()
            if b is not None:
                out[img, f] += b[f]
    return out.astype(np.float32)


class TestConv2d:
    @pytest.mark.parametrize(
        "stride,padding,groups",
        [((1, 1), (0, 0), 1), ((1, 1), (1, 1), 1), ((2, 2), (1, 1), 1),
         ((1, 1), (1, 1), 2), ((2, 1), (0, 1), 1), ((1, 1), (0, 0), 4)],
    )
    def test_matches_naive(self, rng, stride, padding, groups):
        x = rng.standard_normal((2, 4, 7, 6)).astype(np.float32)
        w = rng.standard_normal((8, 4 // groups, 3, 3)).astype(np.float32)
        b = rng.standard_normal(8).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                       padding=padding, groups=groups)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, b, stride, padding, groups), rtol=1e-4, atol=1e-4
        )

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), None, padding=1)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, None, (1, 1), (1, 1)), rtol=1e-4, atol=1e-4
        )

    def test_1x1_kernel(self, rng):
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((2, 4, 1, 1)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), None)
        expected = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-4)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 5, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)).astype(np.float32))
        with pytest.raises(ValueError, match="channels"):
            F.conv2d(x, w, None)

    def test_empty_output_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)).astype(np.float32))
        w = Tensor(rng.standard_normal((1, 1, 5, 5)).astype(np.float32))
        with pytest.raises(ValueError, match="empty output"):
            F.conv2d(x, w, None)

    def test_dilation_unsupported(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal((1, 1, 3, 3)).astype(np.float32))
        with pytest.raises(NotImplementedError):
            F.conv2d(x, w, None, dilation=2)

    def test_grouped_conv_gradients(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 5, 5)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((6, 2, 3, 3)).astype(np.float32) * 0.4,
                   requires_grad=True)
        b = Tensor(rng.standard_normal(6).astype(np.float32) * 0.1, requires_grad=True)

        def fn():
            return (F.conv2d(x, w, b, stride=2, padding=1, groups=2) ** 2).sum()

        fn().backward()
        assert_grad_close(x.grad, numerical_gradient(fn, x))
        assert_grad_close(w.grad, numerical_gradient(fn, w))
        assert_grad_close(b.grad, numerical_gradient(fn, b))


def argmax_max_pool2d(x, kernel_size, stride=None, padding=0):
    """Oracle: the per-window ``argmax`` + ``take_along_axis`` max-pool kernel.

    This is the kernel ``F.max_pool2d`` replaced with a running max; its
    output and its argmax-routed backward are the reference the running
    max must match bit for bit.
    """
    kh, kw = F._pair(kernel_size)
    sh, sw = F._pair(stride if stride is not None else kernel_size)
    ph, pw = F._pair(padding)
    n, c, h, w = x.shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    xd = x.data
    if ph or pw:
        padded = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    else:
        padded = xd
    view = sliding_window_view(padded, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols = view.reshape(n, c, oh, ow, kh * kw)
    flat_arg = cols.argmax(axis=-1)
    out = np.take_along_axis(cols, flat_arg[..., None], axis=-1)[..., 0]

    def backward(g):
        grad_padded = np.zeros_like(padded, dtype=g.dtype)
        ki, kj = np.unravel_index(flat_arg, (kh, kw))
        ni, ci, oi, oj = np.indices((n, c, oh, ow), sparse=False)
        np.add.at(grad_padded, (ni, ci, oi * sh + ki, oj * sw + kj), g)
        if ph or pw:
            return (grad_padded[:, :, ph : ph + h, pw : pw + w],)
        return (grad_padded,)

    return Tensor._from_op(np.ascontiguousarray(out), (x,), backward, "max_pool2d", x.device)


class TestPooling:
    def test_max_pool_matches_naive(self, rng):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        out = F.max_pool2d(Tensor(x), 2, 2).data
        expected = x.reshape(1, 2, 3, 2, 3, 2).max(axis=(3, 5))
        np.testing.assert_array_equal(out, expected)

    def test_max_pool_with_padding_ignores_pad(self):
        x = np.full((1, 1, 2, 2), -5.0, dtype=np.float32)
        out = F.max_pool2d(Tensor(x), 2, 2, padding=1).data
        # Padding is -inf, so every window max is a real element.
        assert (out == -5.0).all()

    def test_max_pool_gradient_routes_to_argmax(self):
        x = Tensor(np.array([[[[1.0, 3.0], [2.0, 0.0]]]], dtype=np.float32),
                   requires_grad=True)
        F.max_pool2d(x, 2, 2).sum().backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[0, 1], [0, 0]])

    def test_avg_pool_matches_naive(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        out = F.avg_pool2d(Tensor(x), 2, 2).data
        expected = x.reshape(2, 3, 2, 2, 2, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_avg_pool_gradient(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32),
                   requires_grad=True)

        def fn():
            return (F.avg_pool2d(x, 2, 2) ** 2).sum()

        fn().backward()
        assert_grad_close(x.grad, numerical_gradient(fn, x))

    def test_adaptive_avg_pool(self, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        out = F.adaptive_avg_pool2d(Tensor(x), 2)
        assert out.shape == (1, 2, 2, 2)
        with pytest.raises(ValueError, match="divisible"):
            F.adaptive_avg_pool2d(Tensor(x), 3)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        out = F.global_avg_pool2d(Tensor(x))
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out.data[..., 0, 0], x.mean(axis=(2, 3)), rtol=1e-5)


_SPECIALS = ("+0", "-0", "+inf", "-inf", "nan")


def _special_bits(dtype, kind, payload):
    """Raw bits of a special value; NaNs get a payload- and sign-distinct pattern."""
    finfo = np.finfo(dtype)
    sign = 1 << (finfo.bits - 1)
    exponent = ((1 << finfo.nexp) - 1) << finfo.nmant
    if kind == "+0":
        return 0
    if kind == "-0":
        return sign
    if kind == "+inf":
        return exponent
    if kind == "-inf":
        return sign | exponent
    mantissa = payload % ((1 << finfo.nmant) - 1) + 1
    return (sign if payload % 2 else 0) | exponent | mantissa


@st.composite
def _pool_cases(draw):
    """Pool geometry plus an input seeded with ties, signed zeros, infs and NaNs."""
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sh, sw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ph, pw = draw(st.integers(0, kh // 2)), draw(st.integers(0, kw // 2))
    h = draw(st.integers(max(1, kh - 2 * ph), 9))
    w = draw(st.integers(max(1, kw - 2 * pw), 9))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w)
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape)
    if draw(st.booleans()):
        x = np.round(x * 2)  # coarse values: many ties, +0.0 and -0.0 both
    x = x.astype(dtype)
    bits = x.view(f"u{x.itemsize}").reshape(-1)
    specials = draw(st.lists(st.tuples(st.sampled_from(_SPECIALS),
                                       st.integers(0, 2**40)), max_size=8))
    for kind, payload in specials:
        bits[rng.integers(x.size)] = _special_bits(dtype, kind, payload)
    return x, (kh, kw), (sh, sw), (ph, pw)


def _spy_paths():
    """Patch ``F._running_max`` to log the ``exact`` flag of every call."""
    paths = []
    real = F._running_max

    def spy(taps, exact):
        paths.append(exact)
        return real(taps, exact)

    return paths, mock.patch.object(F, "_running_max", spy)


class TestMaxPoolKernel:
    """The running-max kernel against the per-window argmax oracle, bit for bit."""

    def test_forward_matches_argmax_oracle_bitwise(self):
        paths, spy = _spy_paths()

        @settings(max_examples=400, deadline=None)
        @given(case=_pool_cases())
        def check(case):
            x, kernel, stride, padding = case
            with no_grad():
                got = F.max_pool2d(Tensor(x, dtype=x.dtype), kernel, stride, padding).data
                want = argmax_max_pool2d(Tensor(x, dtype=x.dtype), kernel, stride,
                                         padding).data
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous

        with spy:
            check()
        # Both the np.maximum fast path and the first-occurrence exact
        # path must have been exercised across the examples.
        assert set(paths) == {False, True}

    def test_gradient_matches_argmax_oracle_bitwise(self):
        @settings(max_examples=150, deadline=None)
        @given(case=_pool_cases(), seed=st.integers(0, 2**32 - 1))
        def check(case, seed):
            x, kernel, stride, padding = case
            grads, outs = [], []
            for pool in (F.max_pool2d, argmax_max_pool2d):
                xt = Tensor(x.copy(), dtype=x.dtype, requires_grad=True)
                out = pool(xt, kernel, stride, padding)
                g = np.random.default_rng(seed).standard_normal(out.shape)
                out.backward(Tensor(g.astype(x.dtype), dtype=x.dtype))
                outs.append(out.data.tobytes())
                grads.append(xt.grad.tobytes())
            assert outs[0] == outs[1]
            assert grads[0] == grads[1]

        check()

    def test_ties_route_the_gradient_to_the_first_occurrence(self):
        # Overlapping 3x3/s1 windows over a constant plane: every window's
        # first element (row-major) wins, so the top-left cells collect it.
        x = Tensor(np.full((1, 1, 4, 4), 2.0, dtype=np.float32), requires_grad=True)
        F.max_pool2d(x, 3, 1).sum().backward()
        np.testing.assert_array_equal(
            x.grad[0, 0], [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])

    def test_signed_zero_tie_keeps_the_first_occurrence(self):
        x = np.array([[[[-0.0, 0.0, 0.0, -0.0]]]], dtype=np.float32)
        with no_grad():
            out = F.max_pool2d(Tensor(x), (1, 2)).data
        assert np.signbit(out).tolist() == [[[[True, False]]]]

    def test_path_selection(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        paths, spy = _spy_paths()
        with spy, no_grad():
            F.max_pool2d(Tensor(x), 3, 1, 1)
            assert paths == [False, False]  # clean input: fast path only
            paths.clear()
            x[0, 0, 0, 0] = -0.0
            F.max_pool2d(Tensor(x), 3, 1, 1)
            assert paths == [True, True]  # -0.0: straight to the exact rule
            paths.clear()
            x[0, 0, 0, 0] = np.nan
            F.max_pool2d(Tensor(x), 3, 1, 1)
            assert paths == [False, False, True, True]  # NaN out: redone exactly

    def test_argmax_only_when_recording(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32),
                   requires_grad=True)
        with mock.patch.object(F, "_windows", wraps=F._windows) as windows:
            with no_grad():
                F.max_pool2d(x, 2)
            F.max_pool2d(Tensor(x.data), 2)
            assert windows.call_count == 0
            out = F.max_pool2d(x, 2)
            assert windows.call_count == 1
        assert out.requires_grad

    def test_backward_routes_by_forward_time_data(self, rng):
        data = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        x = Tensor(data.copy(), requires_grad=True)
        out = F.max_pool2d(x, 3, 1, 1)
        x.data[...] = -x.data  # an in-place rewrite after the forward
        out.sum().backward()
        ref = Tensor(data, requires_grad=True)
        argmax_max_pool2d(ref, 3, 1, 1).sum().backward()
        assert x.grad.tobytes() == ref.grad.tobytes()

    def test_output_is_a_fresh_c_contiguous_array(self, rng):
        base = rng.standard_normal((2, 6, 6, 3)).astype(np.float32)
        x = Tensor(base.transpose(0, 3, 1, 2))  # non-contiguous NCHW view
        with no_grad():
            for args in ((1, 1), (2, 2), (3, 1, 1)):
                out = F.max_pool2d(x, *args).data
                assert out.flags.c_contiguous
                assert not np.shares_memory(out, base)
                want = argmax_max_pool2d(x, *args).data
                assert out.tobytes() == want.tobytes()


def _forward_digests(name):
    """sha256 of a seeded batch-4 eval forward: clean, then one neuron fault."""
    net = models.get_model(name, "cifar10", scale="smoke", rng=0)
    net.eval()
    x = Tensor(np.random.default_rng(1).standard_normal((4, 3, 32, 32)).astype(np.float32))
    fi = FaultInjection(net, batch_size=4, input_shape=(3, 32, 32))
    with no_grad():
        clean = net(x).data
        faulty = fi.declare_neuron_fault_injection(
            layer_num=0, dim1=0, dim2=1, dim3=1, value=1e4)(x).data
    return tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (clean, faulty))


def openblas_core():
    """The OpenBLAS kernel family numpy's BLAS runs on this host (None if unknown).

    Forward digests depend on it: each core type packs and sums the GEMM
    panels differently, so the last bits of a conv forward differ between,
    say, the SkylakeX and Haswell kernels.  ``OPENBLAS_CORETYPE`` forces
    one.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*")):
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


MAX_POOL_MODELS = ("alexnet", "googlenet", "squeezenet", "vgg19")


def _pinnable_digests(name):
    """A model's forward digests, re-derived against the argmax oracle."""
    digests = _forward_digests(name)
    with mock.patch.object(F, "max_pool2d", argmax_max_pool2d):
        assert digests == _forward_digests(name), name
    return digests


class TestMaxPoolModelDigests:
    """Pinned forwards of every registry model with a ``MaxPool2d``.

    Recorded with the per-window argmax kernel (numpy 2.4), one set per
    OpenBLAS core type (see :func:`openblas_core`).  The lane-packed and
    resume equivalence suites compare two runs of the same kernel, so only
    a pinned digest catches drift in the kernel itself; the oracle swap
    re-derives the digests independently of the platform's BLAS.  Record a
    missing core's pins with
    ``OPENBLAS_CORETYPE=<core> PYTHONPATH=src python -m tests.test_nn_functional``.
    """

    PINNED = {
        "SkylakeX": {
            "alexnet": ("d065a438ec7a8674aefe47bd4724e43c1284f9dd7cb23e9f56e38c2a7e0f88a5",
                        "c33b47c39fd5e3e28ba8cb2db0fe960c91a4e2409b3796f15cd0332abaefa7c3"),
            "googlenet": ("9ad31dfba4fa60dc7f5948272a2409a577ebb795ff556d2ec85427792b8c349d",
                          "51ff08af889ad5d7df2149e90d6b9603e9c042a8cab7ea992cdacd005d00ab77"),
            "squeezenet": ("6c5f3daa90a54e833baa803247ee3dde809a31a27c873265008e843ccbbe5c6f",
                           "5a351ac44723f1f266ee1bdc6287340e9f5ad76c63c7d5fdc957e047235d520e"),
            "vgg19": ("2dcff731caaa0ebe449c00a793330c4a7990d2079c5786fc74777ac3e7c17b52",
                      "1d09e78f3a9087522e4a6a6f76e128f30b5c4ce5754192e1fb3c52d3b46feb82"),
        },
        "Haswell": {
            "alexnet": ("5c08cdb1bb24ff857b2827bf0d6ff3448a2450106195ed757aeb49ee31fae954",
                        "342678208fd84cd09b0bbcce3a6b8f50bc180ca749398586c3f5e1c5e1abe609"),
            "googlenet": ("9d2f44949c1d909e6006d5b1ae8cab48cdcf7abe63b87531cad527a3b7080987",
                          "b3de557b4eb96c7b5e1e22397eee333af2efea0889545c9b96e93a9125669b7b"),
            "squeezenet": ("d858d777d99723e144beed9adf971f8c387447235cb729e46b9c501c857e7f29",
                           "caf20a4f0be79921fbd7f0bdacf9ba0564507d3bd81cf4c07fd75cccafe20181"),
            "vgg19": ("2dcff731caaa0ebe449c00a793330c4a7990d2079c5786fc74777ac3e7c17b52",
                      "1d09e78f3a9087522e4a6a6f76e128f30b5c4ce5754192e1fb3c52d3b46feb82"),
        },
        "Sandybridge": {
            "alexnet": ("d0358d5fe8f7c9afb2f572d08f22e46868ad12fd4694591008231252216d75fd",
                        "570f400c53cbbd160e9232f8382e2fd4fe3858baeb0d7bf4590f2c95efcd3c4c"),
            "googlenet": ("2407ffc54ff91045112d50cce852d749d61f35567311783cfec988ba37aa61a9",
                          "12b4479fa8c172ca4bac4ada400eb7b388f96d387aba68fe8589a1af33571b80"),
            "squeezenet": ("4be7f2a2e032070e0310e8488a58588a2b6f202725eef7bbbf6184b1ebe39aeb",
                           "d92521d83e683c43ee462bd6289ea4c463307298273d8555bd87e58e73bde6b4"),
            "vgg19": ("2dcff731caaa0ebe449c00a793330c4a7990d2079c5786fc74777ac3e7c17b52",
                      "5b744428b128098fce85f562583fbcc1b26ecf2ddac9ee4ed36d00f90ae47694"),
        },
        "Nehalem": {
            "alexnet": ("1d75dc2890050cbd09442aaa776bb7ef3a869ec3fe21b5142d6552e2c260b566",
                        "e86c714c4e4969d3095899cb74ad4c4734cc66dea6396d6680508e2125eadfc4"),
            "googlenet": ("2407ffc54ff91045112d50cce852d749d61f35567311783cfec988ba37aa61a9",
                          "12b4479fa8c172ca4bac4ada400eb7b388f96d387aba68fe8589a1af33571b80"),
            "squeezenet": ("4be7f2a2e032070e0310e8488a58588a2b6f202725eef7bbbf6184b1ebe39aeb",
                           "d92521d83e683c43ee462bd6289ea4c463307298273d8555bd87e58e73bde6b4"),
            "vgg19": ("2dcff731caaa0ebe449c00a793330c4a7990d2079c5786fc74777ac3e7c17b52",
                      "5b744428b128098fce85f562583fbcc1b26ecf2ddac9ee4ed36d00f90ae47694"),
        },
        "Katmai": {
            "alexnet": ("6a7aa5201f1fb7709c21ecf05cd015b81e3f65b5536f274e1444a5d75b430980",
                        "fce243154a596263582a42698a6bfa30cdb6c664bb7dbbfde6ac74ca821920f0"),
            "googlenet": ("ea8d949b62d7c4d7feb14d75008ba3f2f9da6ce56fad9fc28fc3a7ddfa201120",
                          "12a88f0af13506fcc2ec64466cf91599e0e95748474e179a4de65dbe4ad94a0e"),
            "squeezenet": ("4be7f2a2e032070e0310e8488a58588a2b6f202725eef7bbbf6184b1ebe39aeb",
                           "d92521d83e683c43ee462bd6289ea4c463307298273d8555bd87e58e73bde6b4"),
            "vgg19": ("2dcff731caaa0ebe449c00a793330c4a7990d2079c5786fc74777ac3e7c17b52",
                      "1d09e78f3a9087522e4a6a6f76e128f30b5c4ce5754192e1fb3c52d3b46feb82"),
        },
    }

    def test_pins_cover_every_max_pool_model(self):
        with_pool = {
            name for name in models.list_models()
            if any(isinstance(m, nn.MaxPool2d)
                   for m in models.get_model(name, "cifar10", scale="smoke",
                                             rng=0).modules())}
        assert with_pool == set(MAX_POOL_MODELS)
        for core, pins in self.PINNED.items():
            assert set(pins) == with_pool, core

    @pytest.mark.parametrize("name", MAX_POOL_MODELS)
    def test_forward_digests(self, name):
        digests = _pinnable_digests(name)
        core = openblas_core()
        assert core in self.PINNED, (
            f"no forward-digest pins for OpenBLAS core {core!r}; record them "
            f"with: OPENBLAS_CORETYPE={core} PYTHONPATH=src "
            f"python -m tests.test_nn_functional")
        assert digests == self.PINNED[core][name]


class TestUpsample:
    def test_nearest_doubling(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        out = F.upsample_nearest2d(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(
            out.data[0, 0], [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]]
        )

    def test_upsample_gradient_sums(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        F.upsample_nearest2d(x, 2).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 4.0))


class TestBatchNorm:
    def test_training_normalises_batch(self, rng):
        x = Tensor(rng.standard_normal((8, 4, 5, 5)).astype(np.float32) * 3 + 1)
        rm = Tensor(np.zeros(4, np.float32))
        rv = Tensor(np.ones(4, np.float32))
        out = F.batch_norm(x, rm, rv, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), np.ones(4), atol=1e-2)

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.standard_normal((8, 2, 4, 4)).astype(np.float32) + 5.0)
        rm = Tensor(np.zeros(2, np.float32))
        rv = Tensor(np.ones(2, np.float32))
        F.batch_norm(x, rm, rv, training=True, momentum=1.0)
        np.testing.assert_allclose(rm.data, x.data.mean(axis=(0, 2, 3)), rtol=1e-4)

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        rm = Tensor(np.full(2, 10.0, np.float32))
        rv = Tensor(np.ones(2, np.float32))
        out = F.batch_norm(x, rm, rv, training=False).data
        np.testing.assert_allclose(out, x.data - 10.0, rtol=1e-4, atol=1e-4)

    def test_affine_params_applied(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        rm = Tensor(np.zeros(2, np.float32))
        rv = Tensor(np.ones(2, np.float32))
        weight = Tensor(np.full(2, 2.0, np.float32))
        bias = Tensor(np.full(2, 1.0, np.float32))
        out = F.batch_norm(x, rm, rv, weight=weight, bias=bias, training=False).data
        np.testing.assert_allclose(out, x.data * 2 + 1, rtol=1e-3, atol=1e-4)

    def test_batchnorm1d_shape(self, rng):
        layer = nn.BatchNorm1d(6)
        out = layer(Tensor(rng.standard_normal((10, 6)).astype(np.float32)))
        assert out.shape == (10, 6)


class TestDropoutAndActivations:
    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        out = F.dropout(x, p=0.5, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_zero_p_is_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        assert F.dropout(x, p=0.0, training=True) is x

    def test_dropout_preserves_expectation(self):
        gen = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, p=0.3, training=True, rng=gen).data
        assert abs(out.mean() - 1.0) < 0.02
        assert (out == 0).mean() == pytest.approx(0.3, abs=0.02)

    def test_dropout_invalid_p(self, rng):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError, match="probability"):
            F.dropout(x, p=1.5, training=True)

    def test_leaky_relu_forward_and_grad(self, rng):
        x = Tensor(np.array([-2.0, 3.0], dtype=np.float32), requires_grad=True)
        out = F.leaky_relu(x, 0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0], rtol=1e-5)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((4, 5)).astype(np.float32)
        targets = np.array([0, 2, 4, 1])
        loss = F.cross_entropy(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), targets].mean()
        assert loss == pytest.approx(expected, rel=1e-4)

    def test_cross_entropy_reductions(self, rng):
        logits = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
        targets = np.array([0, 1, 2, 3])
        mean = F.cross_entropy(logits, targets, reduction="mean").item()
        total = F.cross_entropy(logits, targets, reduction="sum").item()
        none = F.cross_entropy(logits, targets, reduction="none")
        assert total == pytest.approx(mean * 4, rel=1e-4)
        assert none.shape == (4,)
        with pytest.raises(ValueError, match="reduction"):
            F.cross_entropy(logits, targets, reduction="bogus")

    def test_cross_entropy_label_smoothing_increases_loss_on_confident(self):
        logits = Tensor(np.array([[10.0, -10.0]], dtype=np.float32))
        targets = np.array([0])
        plain = F.cross_entropy(logits, targets).item()
        smoothed = F.cross_entropy(logits, targets, label_smoothing=0.2).item()
        assert smoothed > plain

    def test_nll_matches_cross_entropy(self, rng):
        logits = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        targets = np.array([1, 0, 3])
        ce = F.cross_entropy(logits, targets).item()
        nll = F.nll_loss(logits.log_softmax(axis=-1), targets).item()
        assert ce == pytest.approx(nll, rel=1e-5)

    def test_mse(self):
        pred = Tensor(np.array([1.0, 3.0], dtype=np.float32))
        assert F.mse_loss(pred, np.array([0.0, 0.0])).item() == pytest.approx(5.0)

    def test_bce_with_logits_matches_reference(self, rng):
        logits = rng.standard_normal(20).astype(np.float32) * 3
        targets = (rng.random(20) > 0.5).astype(np.float32)
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), Tensor(targets)).item()
        p = 1 / (1 + np.exp(-logits.astype(np.float64)))
        expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert loss == pytest.approx(expected, rel=1e-4)

    def test_bce_gradient(self, rng):
        logits = Tensor(rng.standard_normal(6).astype(np.float32), requires_grad=True)
        targets = Tensor((rng.random(6) > 0.5).astype(np.float32))

        def fn():
            return F.binary_cross_entropy_with_logits(logits, targets, reduction="sum")

        fn().backward()
        assert_grad_close(logits.grad, numerical_gradient(fn, logits))

    def test_cross_entropy_gradient(self, rng):
        logits = Tensor(rng.standard_normal((3, 4)).astype(np.float32),
                        requires_grad=True)
        targets = np.array([0, 3, 2])

        def fn():
            return F.cross_entropy(logits, targets)

        fn().backward()
        assert_grad_close(logits.grad, numerical_gradient(fn, logits))


class TestLinearDtypeGuard:
    """linear() casts weight/bias to the input dtype, like conv2d does."""

    def test_output_dtype_follows_input(self, rng):
        x = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        weight = Tensor(rng.standard_normal((3, 8)), dtype=np.float64)
        bias = Tensor(rng.standard_normal(3), dtype=np.float64)
        out = F.linear(x, weight, bias)
        assert out.dtype == np.float32
        reference = F.linear(x, weight.astype(np.float32), bias.astype(np.float32))
        np.testing.assert_array_equal(out.data, reference.data)

    def test_param_grads_keep_param_dtype(self, rng):
        x = Tensor(rng.standard_normal((4, 8)).astype(np.float32), requires_grad=True)
        weight = Tensor(rng.standard_normal((3, 8)), dtype=np.float64, requires_grad=True)
        bias = Tensor(rng.standard_normal(3), dtype=np.float64, requires_grad=True)
        F.linear(x, weight, bias).sum().backward()
        assert x.grad.dtype == np.float32
        assert weight.grad.dtype == np.float64
        assert bias.grad.dtype == np.float64

    def test_no_float64_intermediate(self, rng):
        """The largest tensor allocated must be the float32 output, not a
        float64 matmul product twice its size."""
        from repro.tensor.tensor import set_alloc_hook

        x = Tensor(rng.standard_normal((256, 64)).astype(np.float32))
        w32 = Tensor(rng.standard_normal((128, 64)).astype(np.float32))
        b32 = Tensor(rng.standard_normal(128).astype(np.float32))
        w64 = w32.astype(np.float64)
        b64 = b32.astype(np.float64)

        def max_alloc(weight, bias):
            allocs = []
            previous = set_alloc_hook(allocs.append)
            try:
                F.linear(x, weight, bias)
            finally:
                set_alloc_hook(previous)
            return max(allocs)

        baseline = max_alloc(w32, b32)
        assert baseline == 256 * 128 * 4  # the float32 output itself
        assert max_alloc(w64, b64) == baseline


class TestVectorizedBackwardBitwise:
    """The strided-accumulation backward paths match the scatter loops bitwise."""

    @pytest.mark.parametrize(
        "kernel,stride,padding,hw",
        [((2, 2), (2, 2), (0, 0), (8, 8)),      # classic non-overlapping
         ((3, 3), (3, 3), (0, 0), (9, 9)),
         ((4, 4), (4, 4), (0, 0), (16, 16)),
         ((2, 2), (3, 3), (1, 1), (8, 8)),      # gaps between windows
         ((3, 2), (2, 2), (1, 0), (8, 8)),      # overlapping rows: loop path
         ((2, 2), (1, 1), (0, 0), (6, 6))],     # fully overlapping: loop path
    )
    def test_avg_pool2d_backward_matches_scatter_loop(self, rng, kernel, stride,
                                                      padding, hw):
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        h, w = hw
        x = Tensor(rng.standard_normal((3, 5, h, w)).astype(np.float32),
                   requires_grad=True)
        out = F.avg_pool2d(x, kernel, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(Tensor(g))
        oh, ow = out.shape[2:]
        grad_padded = np.zeros((3, 5, h + 2 * ph, w + 2 * pw), dtype=np.float32)
        share = g / (kh * kw)
        for i in range(kh):
            for j in range(kw):
                grad_padded[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += share
        expected = grad_padded[:, :, ph : ph + h, pw : pw + w] if (ph or pw) else grad_padded
        np.testing.assert_array_equal(x.grad.data, expected)

    @pytest.mark.parametrize(
        "cin,cout,groups,kernel,stride,padding,hw",
        [(6, 8, 1, (3, 3), (1, 1), (1, 1), (10, 10)),
         (6, 8, 2, (3, 3), (2, 2), (1, 1), (11, 11)),
         (8, 8, 8, (3, 3), (1, 1), (1, 1), (8, 8)),   # depthwise
         (4, 6, 1, (5, 3), (2, 1), (2, 1), (12, 12)),
         (3, 8, 1, (3, 3), (1, 1), (0, 0), (9, 9))],
    )
    def test_conv2d_input_grad_matches_col2im_loop(self, rng, cin, cout, groups,
                                                   kernel, stride, padding, hw):
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        h, w = hw
        n, c_per_group = 2, cin // groups
        x = Tensor(rng.standard_normal((n, cin, h, w)).astype(np.float32),
                   requires_grad=True)
        wt = Tensor(rng.standard_normal((cout, c_per_group, kh, kw)).astype(np.float32),
                    requires_grad=True)
        out = F.conv2d(x, wt, stride=stride, padding=padding, groups=groups)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(Tensor(g))
        # Reference: the pre-vectorisation col2im scatter over a transposed copy.
        oh, ow = out.shape[2:]
        w_mat = wt.data.reshape(groups, cout // groups, c_per_group * kh * kw)
        g_mat = np.ascontiguousarray(g).reshape(n, groups, cout // groups, oh * ow)
        grad_cols = np.matmul(g_mat.transpose(0, 1, 3, 2), w_mat)
        grad_cols = grad_cols.reshape(n, groups, oh, ow, c_per_group, kh, kw)
        grad_cols = grad_cols.transpose(0, 1, 4, 2, 3, 5, 6).reshape(
            n, cin, oh, ow, kh, kw)
        gx = np.zeros((n, cin, h + 2 * ph, w + 2 * pw), dtype=np.float32)
        for i in range(kh):
            for j in range(kw):
                gx[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += (
                    grad_cols[:, :, :, :, i, j])
        expected = gx[:, :, ph : ph + h, pw : pw + w] if (ph or pw) else gx
        np.testing.assert_array_equal(x.grad.data, expected)


if __name__ == "__main__":
    # Print this host's forward-digest pins, as a PINNED entry.
    print(f'        "{openblas_core()}": {{')
    for model_name in MAX_POOL_MODELS:
        clean, faulty = _pinnable_digests(model_name)
        print(f'            "{model_name}": ("{clean}",\n'
              f'            {" " * (len(model_name) + 5)}"{faulty}"),')
    print("        },")
