import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdse import attention as attention_mod
from hdse import distance
from hdse.attention import (AttentionParams, BiasParams, BiasedAttentionLayer,
                            _attention, attention_backward, attention_forward,
                            bias_backward, bias_matrix, code_keys,
                            init_attention_params, init_bias_params)
from hdse.coarsen import build_hierarchy
from hdse.distance import hdse, high_level_hdse
from hdse.graph import make_graph


def reference_attention(x, params, bias, x_ctx=None):
    """Straightforward per-head loop, independent of the production path."""
    ctx = x if x_ctx is None else x_ctx
    outs = []
    for h in range(params.heads):
        q = x @ params.w_q[h]
        k = ctx @ params.w_k[h]
        v = ctx @ params.w_v[h]
        logits = q @ k.T / np.sqrt(params.head_dim)
        if bias is not None:
            logits = logits + bias[:, :, h]
        rows = []
        for i in range(len(x)):
            row = logits[i] - logits[i].max()
            e = np.exp(row)
            rows.append(e / e.sum())
        outs.append(np.array(rows) @ v)
    return np.concatenate(outs, axis=1)


def oracle_attention_forward(x, params, bias=None, x_ctx=None):
    """One graph, heads as the leading axis: the kernel before it took a
    batch axis. ``x`` is (n, d), ``bias`` (n, m, heads) or None."""
    ctx = x if x_ctx is None else x_ctx
    q = x @ params.w_q                    # (heads, n, head_dim)
    k = ctx @ params.w_k
    v = ctx @ params.w_v
    scale = 1.0 / np.sqrt(params.head_dim)
    logits = q @ k.transpose(0, 2, 1)
    logits *= scale
    if bias is not None:
        logits += bias.transpose(2, 0, 1)
    logits -= logits.max(axis=-1, keepdims=True, initial=-np.inf)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    attn = logits
    out = (attn @ v).transpose(1, 0, 2).reshape(
        x.shape[0], params.heads * params.head_dim)
    cache = {"x": x, "ctx": ctx, "q": q, "k": k, "v": v, "attn": attn,
             "scale": scale, "params": params}
    return out, cache


def oracle_attention_backward(d_out, cache):
    """Backward pass of oracle_attention_forward: (d_wq, d_wk, d_wv,
    d_logits), d_logits of shape (heads, n, m)."""
    params = cache["params"]
    x, ctx, q, k, v, attn, scale = (cache["x"], cache["ctx"], cache["q"],
                                    cache["k"], cache["v"], cache["attn"],
                                    cache["scale"])
    n = x.shape[0]
    d_heads = d_out.reshape(n, params.heads, params.head_dim).transpose(1, 0, 2)
    d_attn = d_heads @ v.transpose(0, 2, 1)
    d_v = attn.transpose(0, 2, 1) @ d_heads
    inner = (d_attn * attn).sum(axis=-1, keepdims=True)
    d_logits = attn * (d_attn - inner)
    d_q = (d_logits @ k) * scale
    d_k = (d_logits.transpose(0, 2, 1) @ q) * scale
    return x.T @ d_q, ctx.T @ d_k, ctx.T @ d_v, d_logits


def oracle_bias_matrix(codes, p):
    """Per-pair bias: embed and run the MLP on every pair separately."""
    codes = np.asarray(codes)
    rows, cols, levels = codes.shape
    gathered = p.embeddings[np.arange(levels), codes]
    cat = gathered.reshape(rows, cols, levels * p.embeddings.shape[2])
    pre = cat @ p.w1 + p.b1
    hid = np.maximum(pre, 0.0)
    bias = hid @ p.w2 + p.b2
    cache = {"codes": codes, "cat": cat, "pre": pre, "hid": hid, "params": p}
    return bias, cache


def oracle_bias_backward(d_bias, cache):
    """Per-pair backward of oracle_bias_matrix, scattering with np.add.at."""
    p = cache["params"]
    codes, cat, pre, hid = (cache["codes"], cache["cat"], cache["pre"],
                            cache["hid"])
    rows, cols, levels = codes.shape
    embed_dim = p.embeddings.shape[2]
    d_w2 = np.einsum("ijh,ijo->ho", hid, d_bias)
    d_b2 = d_bias.sum(axis=(0, 1))
    d_hid = d_bias @ p.w2.T
    d_pre = d_hid * (pre > 0)
    d_w1 = np.einsum("ijc,ijh->ch", cat, d_pre)
    d_b1 = d_pre.sum(axis=(0, 1))
    d_cat = d_pre @ p.w1.T
    d_gathered = d_cat.reshape(rows, cols, levels, embed_dim)
    d_emb = np.zeros_like(p.embeddings)
    for k in range(levels):
        np.add.at(d_emb[k], codes[:, :, k].ravel(),
                  d_gathered[:, :, k].reshape(-1, embed_dim))
    return d_emb, d_w1, d_b1, d_w2, d_b2


def assert_bias_matches_oracle(codes, p, rng):
    """Bias within 1e-12 and every gradient within rtol 1e-10 of the oracle.

    The cached tuples and per-pair tuple ids are those of ``np.unique``.
    """
    bias, cache = bias_matrix(codes, p)
    tuples, inverse = np.unique(codes.reshape(-1, codes.shape[2]), axis=0,
                                return_inverse=True)
    assert np.array_equal(cache["tuples"], tuples)
    assert cache["tuples"].dtype == tuples.dtype
    assert np.array_equal(cache["inverse"], inverse.ravel())
    want, want_cache = oracle_bias_matrix(codes, p)
    assert bias.shape == want.shape
    np.testing.assert_allclose(bias, want, rtol=0, atol=1e-12)
    d_bias = rng.standard_normal(bias.shape)
    got = bias_backward(d_bias, cache)
    for g, w in zip(got, oracle_bias_backward(d_bias, want_cache)):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-10)
    return cache


def small_params(rng, model_dim=5, heads=2, head_dim=3):
    return init_attention_params(model_dim, heads, head_dim, rng)


class TestBiasMatrix:
    def test_zero_output_weights(self):
        rng = np.random.default_rng(0)
        p = init_bias_params(2, 5, 4, 4, 3, rng)
        p.w2[:] = 0.0
        p.b2[:] = 0.0
        codes = rng.integers(0, 7, (6, 6, 2))
        bias, _ = bias_matrix(codes, p)
        assert np.all(bias == 0.0)

    def test_identical_rows_give_identical_bias(self):
        rng = np.random.default_rng(1)
        p = init_bias_params(1, 5, 4, 4, 2, rng)
        codes = rng.integers(0, 7, (4, 4, 1))
        codes[2] = codes[0]
        bias, _ = bias_matrix(codes, p)
        np.testing.assert_array_equal(bias[2], bias[0])

    def test_hand_traced_scalar(self):
        # one level, embed/hidden width 1: bias = w2 * relu(w1 * e + b1) + b2
        p = BiasParams(
            embeddings=np.array([[[0.5], [2.0], [-1.0]]]),  # codes 0, 1, 2
            w1=np.array([[3.0]]), b1=np.array([0.25]),
            w2=np.array([[2.0]]), b2=np.array([-0.5]))
        codes = np.array([[[1]]])  # single pair at distance 1 -> e = 2.0
        bias, _ = bias_matrix(codes, p)
        assert bias[0, 0, 0] == pytest.approx(2.0 * (3.0 * 2.0 + 0.25) - 0.5)
        codes = np.array([[[2]]])  # e = -1.0 -> relu kills the hidden unit
        bias, _ = bias_matrix(codes, p)
        assert bias[0, 0, 0] == pytest.approx(-0.5)

    def test_code_out_of_range(self):
        rng = np.random.default_rng(2)
        p = init_bias_params(1, 5, 4, 4, 2, rng)
        with pytest.raises(ValueError):
            bias_matrix(np.full((2, 2, 1), 7), p)

    @pytest.mark.parametrize("code", [1.5, 1.0, True])
    def test_non_integer_codes(self, code):
        # in range, so only the dtype check stands between them and the
        # embedding gather
        rng = np.random.default_rng(2)
        p = init_bias_params(1, 5, 4, 4, 2, rng)
        with pytest.raises(ValueError, match="must be integers"):
            bias_matrix(np.full((2, 2, 1), code), p)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2), (1, 2, 2, 1)])
    def test_wrong_code_shape(self, shape):
        rng = np.random.default_rng(2)
        p = init_bias_params(1, 5, 4, 4, 2, rng)
        with pytest.raises(ValueError, match="expected"):
            bias_matrix(np.zeros(shape, dtype=np.uint8), p)


class TestCodeKeys:
    """Keys numbered once and passed in give what bias_matrix numbers itself.

    The codes have the demo batch's shape, 20 graphs of 30 nodes, keyed as
    the batch and fed to bias_matrix as the layer reshapes them.
    """

    def demo_codes(self, levels, seed):
        rng = np.random.default_rng(seed)
        p = init_bias_params(levels, 30, 16, 16, 4, rng)
        codes = rng.integers(0, 6, (20, 30, 30, levels)).astype(np.uint8)
        codes[0, 0, 1:3] = 31  # unreachable pairs
        return p, codes, rng

    @pytest.mark.parametrize("levels", [1, 2])
    def test_keys_give_same_bias_and_gradients(self, levels):
        p, codes, rng = self.demo_codes(levels, 40 + levels)
        pairs = codes.reshape(600, 30, levels)
        bias, cache = bias_matrix(pairs, p)
        keyed, keyed_cache = bias_matrix(pairs, p, code_keys(codes, p))
        assert np.array_equal(keyed, bias)
        assert keyed_cache.keys() == cache.keys()
        for name in ("tuples", "inverse", "cat", "pre", "hid"):
            assert np.array_equal(keyed_cache[name], cache[name]), name
            assert keyed_cache[name].dtype == cache[name].dtype, name
        d_bias = rng.standard_normal(bias.shape)
        for g, w in zip(bias_backward(d_bias, keyed_cache),
                        bias_backward(d_bias, cache)):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("codes", [np.full((2, 2, 1), 7),
                                       np.full((2, 2, 1), -1),
                                       np.full((2, 2, 1), 1.0),
                                       np.zeros((2, 2, 2), dtype=np.uint8),
                                       np.zeros((), dtype=np.uint8)])
    def test_invalid_codes_rejected(self, codes):
        # the same checks bias_matrix makes when it numbers the codes itself
        p = init_bias_params(1, 5, 4, 4, 2, np.random.default_rng(2))
        with pytest.raises(ValueError):
            code_keys(codes, p)

    def test_keys_of_wrong_pair_count_rejected(self):
        p, codes, _ = self.demo_codes(2, 43)
        keys = code_keys(codes[:-1], p)
        with pytest.raises(ValueError, match="do not fit"):
            bias_matrix(codes.reshape(600, 30, 2), p, keys)

    def test_keys_of_wrong_level_count_rejected(self):
        p1, codes1, _ = self.demo_codes(1, 44)
        p2, codes2, _ = self.demo_codes(2, 45)
        with pytest.raises(ValueError, match="do not fit"):
            bias_matrix(codes1.reshape(600, 30, 1), p1, code_keys(codes2, p2))


def _distinct_codes(levels, clip, limit=400):
    """(1, n, levels) codes whose n tuples are all different."""
    radix = clip + 2
    n = min(radix ** levels, limit)
    digits = np.arange(n)[:, None] // radix ** np.arange(levels) % radix
    return digits.reshape(1, n, levels)


class TestBiasMatchesOracle:
    @pytest.mark.parametrize("levels", [1, 3])
    @pytest.mark.parametrize("clip", [1, 254])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.uint64])
    @pytest.mark.parametrize("kind", ["random", "same", "distinct"])
    def test_cases(self, levels, clip, dtype, kind):
        rng = np.random.default_rng(levels * 1000 + clip)
        p = init_bias_params(levels, clip, 3, 4, 2, rng)
        if kind == "random":
            codes = rng.integers(0, clip + 2, (6, 7, levels))
        elif kind == "same":
            codes = np.broadcast_to(rng.integers(0, clip + 2, levels),
                                    (6, 7, levels))
        else:
            codes = _distinct_codes(levels, clip)
        codes = codes.astype(dtype)
        cache = assert_bias_matches_oracle(codes, p, rng)
        flat = codes.reshape(-1, levels)
        assert len(cache["tuples"]) == len(np.unique(flat, axis=0))
        if kind == "same":
            assert len(cache["tuples"]) == 1
        if kind == "distinct":
            assert len(cache["tuples"]) == len(flat)

    def test_nine_levels_re_densify(self):
        # every column spans 0..255, so the folded key passes its limit;
        # rows 0 and 1 differ only in level 0, which a key wrapped past
        # 2**64 would drop
        rng = np.random.default_rng(30)
        p = init_bias_params(9, 254, 2, 3, 2, rng)
        codes = rng.integers(0, 256, (20, 20, 9)).astype(np.uint8)
        codes[0, 0], codes[0, 1] = 0, 255
        codes[1] = codes[0]
        codes[1, :, 0] += 1
        spans = np.ptp(codes.reshape(-1, 9).astype(np.int64), axis=0) + 1
        assert np.prod(spans.astype(float)) > distance._KEY_LIMIT
        cache = assert_bias_matches_oracle(codes, p, rng)
        assert len(cache["tuples"]) == len(np.unique(codes.reshape(-1, 9),
                                                     axis=0))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 8), cols=st.integers(1, 8),
           levels=st.integers(1, 4), clip=st.sampled_from([1, 2, 5, 30, 254]),
           embed=st.integers(1, 3), hidden=st.integers(1, 4),
           heads=st.integers(1, 3), spread=st.integers(0, 256),
           seed=st.integers(0, 2 ** 16))
    def test_random_shapes(self, rows, cols, levels, clip, embed, hidden,
                           heads, spread, seed):
        rng = np.random.default_rng(seed)
        p = init_bias_params(levels, clip, embed, hidden, heads, rng)
        p.b1 += rng.standard_normal(hidden)
        p.b2 += rng.standard_normal(heads)
        codes = rng.integers(0, min(spread, clip + 1) + 1,
                             (rows, cols, levels))
        assert_bias_matches_oracle(codes, p, rng)


class TestForward:
    def test_no_bias_equals_standard_attention(self):
        rng = np.random.default_rng(3)
        params = small_params(rng)
        x = rng.standard_normal((6, 5))
        out_plain, _ = attention_forward(x, params, None)
        zero_bias = np.zeros((6, 6, params.heads))
        out_zero, _ = attention_forward(x, params, zero_bias)
        np.testing.assert_allclose(out_zero, out_plain, atol=1e-12)

    def test_saturated_row_selects_own_value(self):
        rng = np.random.default_rng(4)
        params = small_params(rng)
        x = rng.standard_normal((5, 5))
        bias = np.zeros((5, 5, params.heads))
        bias[2, :, :] = -1e9
        bias[2, 2, :] = 0.0
        out, _ = attention_forward(x, params, bias)
        v_rows = np.concatenate([x @ params.w_v[h] for h in range(params.heads)],
                                axis=1)
        np.testing.assert_allclose(out[2], v_rows[2], atol=1e-9)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(5)
        params = small_params(rng, model_dim=4, heads=3, head_dim=2)
        x = rng.standard_normal((3, 4))
        bias = rng.standard_normal((3, 3, 3))
        out, _ = attention_forward(x, params, bias)
        np.testing.assert_allclose(out, reference_attention(x, params, bias),
                                   atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        params = small_params(rng)
        x = rng.standard_normal((7, 5))
        bias = rng.standard_normal((7, 7, params.heads)) * 5
        _, cache = attention_forward(x, params, bias)
        np.testing.assert_allclose(cache["attn"].sum(axis=-1), 1.0, atol=1e-12)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(7)
        params = small_params(rng)
        x = rng.standard_normal((6, 5))
        bias = rng.standard_normal((6, 6, params.heads))
        out1, _ = attention_forward(x, params, bias)
        shifted = bias.copy()
        shifted[3] += 4.2  # constant across the row, all heads
        out2, _ = attention_forward(x, params, shifted)
        np.testing.assert_allclose(out2, out1, atol=1e-12)

    def test_nan_rejected(self):
        rng = np.random.default_rng(8)
        params = small_params(rng)
        x = rng.standard_normal((4, 5))
        x[1, 1] = np.nan
        with pytest.raises(ValueError):
            attention_forward(x, params, None)

    @pytest.mark.parametrize("side", ["x", "x_ctx"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, side, value):
        rng = np.random.default_rng(8)
        params = small_params(rng)
        x, x_ctx = rng.standard_normal((4, 5)), rng.standard_normal((3, 5))
        {"x": x, "x_ctx": x_ctx}[side][1, 1] = value
        with pytest.raises(ValueError, match="non-finite input"):
            attention_forward(x, params, None, x_ctx)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        params = small_params(rng)
        for _ in range(10):
            x = rng.standard_normal((8, 5))
            bias = rng.standard_normal((8, 8, params.heads))
            perm = rng.permutation(8)
            out, _ = attention_forward(x, params, bias)
            out_p, _ = attention_forward(x[perm], params,
                                         bias[np.ix_(perm, perm)])
            np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


class TestLinearVariant:
    def test_identity_partition_reduces_to_dense(self):
        rng = np.random.default_rng(10)
        params = small_params(rng)
        x = rng.standard_normal((6, 5))
        bias = rng.standard_normal((6, 6, params.heads))
        dense, _ = attention_forward(x, params, bias)
        linear, _ = attention_forward(x, params, bias, x_ctx=x)
        np.testing.assert_allclose(linear, dense, atol=1e-12)

    def test_single_cluster_returns_its_value_row(self):
        rng = np.random.default_rng(11)
        params = small_params(rng)
        x = rng.standard_normal((5, 5))
        xc = rng.standard_normal((1, 5))
        out, _ = attention_forward(x, params, None, x_ctx=xc)
        v = np.concatenate([xc @ params.w_v[h] for h in range(params.heads)],
                           axis=1)
        for i in range(5):
            np.testing.assert_allclose(out[i], v[0], atol=1e-12)

    def test_two_cliques_matches_reference(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)]
        edges.append((0, 4))
        rng = np.random.default_rng(12)
        g = make_graph(8, edges, features=rng.standard_normal((8, 5)))
        h = build_hierarchy(g, "louvain", 1, seed=0)
        t = high_level_hdse(h, 1, clip=30)
        params = small_params(rng)
        bp = init_bias_params(1, 30, 4, 4, params.heads, rng)
        bias, _ = bias_matrix(t.entries, bp)
        xk = h.projected_features[1]
        out, _ = attention_forward(g.features, params, bias, x_ctx=xk)
        ref = reference_attention(g.features, params, bias, x_ctx=xk)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_bias_shape_mismatch(self):
        rng = np.random.default_rng(13)
        params = small_params(rng)
        x = rng.standard_normal((4, 5))
        with pytest.raises(ValueError):
            attention_forward(x, params, np.zeros((4, 5, params.heads)))


def finite_difference_check(layer, x, codes, w, x_ctx=None, h=1e-5):
    """Max relative error between analytic and central-difference gradients."""
    def loss():
        return float((layer.forward(x, codes, x_ctx) * w).sum())

    loss()
    grads = layer.backward(w)
    worst = 0.0
    for name, arr in layer.parameters():
        ga = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + h
            fp = loss()
            arr[idx] = keep - h
            fm = loss()
            arr[idx] = keep
            num = (fp - fm) / (2 * h)
            worst = max(worst, abs(ga[idx] - num)
                        / max(abs(ga[idx]), abs(num), 1.0))
    return worst


class TestBackward:
    def make_layer(self, rng, levels=2, clip=5):
        attn = init_attention_params(5, 2, 3, rng)
        bias = init_bias_params(levels, clip, 3, 3, 2, rng)
        return BiasedAttentionLayer(attn, bias)

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("bias", ["codes", "uncoded", "unbiased"])
    def test_zero_upstream_gradient(self, bias, batch):
        # gradients are keyed and shaped like parameters(), whether or not
        # the layer has bias parameters and forward used them
        rng = np.random.default_rng(14)
        layer = self.make_layer(rng)
        if bias == "unbiased":
            layer.bias = None
        lead = () if batch is None else (batch,)
        x = rng.standard_normal(lead + (4, 5))
        codes = rng.integers(0, 7, lead + (4, 4, 2))
        layer.forward(x, codes if bias == "codes" else None)
        g = layer.backward(np.zeros(lead + (4, 6)))
        named = layer.parameters()
        assert list(g) == [name for name, _ in named]
        for name, arr in named:
            assert g[name].shape == arr.shape
            assert np.all(g[name] == 0.0)

    def test_apply_gradients_after_forward_without_codes(self):
        rng = np.random.default_rng(28)
        layer = BiasedAttentionLayer(init_attention_params(5, 2, 3, rng),
                                     init_bias_params(2, 5, 3, 3, 2, rng))
        before = {name: arr.copy() for name, arr in layer.parameters()}
        out = layer.forward(rng.standard_normal((4, 5)))
        layer.apply_gradients(layer.backward(np.ones_like(out)), 0.1)
        for name in ("embeddings", "w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(layer.bias, name), before[name])

    def test_backward_before_forward(self):
        rng = np.random.default_rng(15)
        layer = self.make_layer(rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((4, 6)))

    def test_backward_after_failed_forward(self):
        rng = np.random.default_rng(24)
        layer = self.make_layer(rng)
        x = rng.standard_normal((4, 5))
        layer.forward(x, rng.integers(0, 7, (4, 4, 2)))
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            layer.forward(x, rng.integers(0, 7, (4, 4, 2)))
        # the earlier call's activations are gone, not reused
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((4, 6)))

    def test_value_gradient_uniform_attention_hand_trace(self):
        # 2 nodes, uniform attention (zero Q/K), loss = sum of outputs:
        # d w_v = x^T (attn^T d_heads) with attn = 1/2 everywhere, so each
        # gradient entry is the column sum of x times total attention mass 1.
        attn = AttentionParams(w_q=np.zeros((1, 2, 2)), w_k=np.zeros((1, 2, 2)),
                               w_v=np.zeros((1, 2, 2)))
        layer = BiasedAttentionLayer(attn, None)
        x = np.array([[1.0, 2.0], [3.0, 5.0]])
        layer.forward(x)
        g = layer.backward(np.ones((2, 2)))
        np.testing.assert_allclose(g["w_v"][0], np.array([[4.0, 4.0], [7.0, 7.0]]))

    def test_finite_differences_dense(self):
        rng = np.random.default_rng(16)
        layer = self.make_layer(rng)
        x = rng.standard_normal((5, 5))
        codes = rng.integers(0, 7, (5, 5, 2))
        w = rng.standard_normal((5, 6))
        assert finite_difference_check(layer, x, codes, w) < 1e-4

    def test_finite_differences_linear(self):
        rng = np.random.default_rng(17)
        layer = self.make_layer(rng, levels=1)
        x = rng.standard_normal((5, 5))
        xk = rng.standard_normal((2, 5))
        codes = rng.integers(0, 7, (5, 2, 1))
        w = rng.standard_normal((5, 6))
        assert finite_difference_check(layer, x, codes, w, x_ctx=xk) < 1e-4

    def test_finite_differences_many_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            layer = self.make_layer(rng)
            x = rng.standard_normal((4, 5))
            codes = rng.integers(0, 7, (4, 4, 2))
            w = rng.standard_normal((4, 6))
            assert finite_difference_check(layer, x, codes, w) < 1e-4


class TestBatchedLayer:
    def make_layer(self, rng, levels=2):
        attn = init_attention_params(5, 2, 3, rng)
        bias = init_bias_params(levels, 5, 3, 3, 2, rng)
        return BiasedAttentionLayer(attn, bias)

    def test_forward_matches_per_graph_calls(self):
        rng = np.random.default_rng(18)
        layer = self.make_layer(rng)
        x = rng.standard_normal((3, 4, 5))
        codes = rng.integers(0, 7, (3, 4, 4, 2))
        out = layer.forward(x, codes)
        assert out.shape == (3, 4, 6)
        for b in range(3):
            np.testing.assert_allclose(out[b], layer.forward(x[b], codes[b]),
                                       atol=1e-12)

    def test_forward_without_codes_matches_per_graph_calls(self):
        rng = np.random.default_rng(20)
        layer = self.make_layer(rng)
        x = rng.standard_normal((3, 4, 5))
        out = layer.forward(x)
        for b in range(3):
            np.testing.assert_allclose(out[b], layer.forward(x[b]), atol=1e-12)

    def test_forward_with_context_matches_per_graph_calls(self):
        rng = np.random.default_rng(21)
        layer = self.make_layer(rng, levels=1)
        x = rng.standard_normal((2, 5, 5))
        xk = rng.standard_normal((2, 3, 5))
        codes = rng.integers(0, 7, (2, 5, 3, 1))
        out = layer.forward(x, codes, x_ctx=xk)
        assert out.shape == (2, 5, 6)
        for b in range(2):
            ref = layer.forward(x[b], codes[b], x_ctx=xk[b])
            np.testing.assert_allclose(out[b], ref, atol=1e-12)

    def test_gradients_match_per_graph_sum(self):
        rng = np.random.default_rng(19)
        layer = self.make_layer(rng, levels=1)
        x = rng.standard_normal((2, 4, 5))
        codes = rng.integers(0, 7, (2, 4, 4, 1))
        d_out = rng.standard_normal((2, 4, 6))
        ref = {}
        for b in range(2):
            layer.forward(x[b], codes[b])
            g = layer.backward(d_out[b])
            for name, _ in layer.parameters():
                ref[name] = ref.get(name, 0) + g[name]
        layer.forward(x, codes)
        g = layer.backward(d_out)
        for name, _ in layer.parameters():
            np.testing.assert_allclose(g[name], ref[name],
                                       atol=1e-10)

    @pytest.mark.parametrize("variant", ["dense", "linear"])
    def test_finite_differences_batch(self, variant):
        rng = np.random.default_rng(22)
        layer = self.make_layer(rng)
        x = rng.standard_normal((2, 4, 5))
        m = 4 if variant == "dense" else 3
        xk = rng.standard_normal((2, m, 5)) if variant == "linear" else None
        codes = rng.integers(0, 7, (2, 4, m, 2))
        w = rng.standard_normal((2, 4, 6))
        assert finite_difference_check(layer, x, codes, w, x_ctx=xk) < 1e-4

    def test_keys_passed_through(self):
        rng = np.random.default_rng(24)
        layer = self.make_layer(rng)
        x = rng.standard_normal((3, 4, 5))
        codes = rng.integers(0, 7, (3, 4, 4, 2))
        d_out = rng.standard_normal((3, 4, 6))
        out = layer.forward(x, codes)
        grads = layer.backward(d_out)
        keyed = layer.forward(x, codes, keys=code_keys(codes, layer.bias))
        assert np.array_equal(keyed, out)
        for name, g in layer.backward(d_out).items():
            assert np.array_equal(g, grads[name]), name
        with pytest.raises(ValueError, match="do not fit"):
            layer.forward(x, codes, keys=code_keys(codes[:2], layer.bias))

    def test_batch_mismatch(self):
        rng = np.random.default_rng(23)
        layer = self.make_layer(rng)
        x = rng.standard_normal((3, 4, 5))
        with pytest.raises(ValueError):
            layer.forward(x, rng.integers(0, 7, (2, 4, 4, 2)))
        with pytest.raises(ValueError):
            layer.forward(x, rng.integers(0, 7, (4, 4, 2)))
        with pytest.raises(ValueError):
            layer.forward(x[0], rng.integers(0, 7, (1, 4, 4, 2)))
        with pytest.raises(ValueError):
            layer.forward(x, x_ctx=rng.standard_normal((3, 5)))


class TestBatchedKernelMatchesOracle:
    """The batched kernel against the per-graph oracle: outputs and logit
    gradients bitwise, weight gradients (one GEMM over the batch instead of
    a sum of per-graph GEMMs) within 1e-12 relative."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("variant", ["dense", "linear"])
    @pytest.mark.parametrize("biased", [True, False])
    def test_matches_per_graph_oracle(self, batch, variant, biased):
        rng = np.random.default_rng(29 + batch)
        params = init_attention_params(6, 3, 4, rng)
        n, m = 7, (7 if variant == "dense" else 3)
        x = rng.standard_normal((batch, n, 6))
        xk = rng.standard_normal((batch, m, 6)) if variant == "linear" else None
        # head-major, as bias_matrix returns it
        bias = rng.standard_normal((3, batch, n, m)).transpose(1, 2, 3, 0)
        bias = bias if biased else None
        d_out = rng.standard_normal((batch, n, 12))
        out, cache = _attention(x, params, bias, xk)
        *grads, d_logits = attention_backward(d_out, cache)
        assert out.shape == (batch, n, 12)
        assert d_logits.shape == (batch, 3, n, m)
        sums = [0.0, 0.0, 0.0]
        for b in range(batch):
            want, want_cache = oracle_attention_forward(
                x[b], params, None if bias is None else bias[b],
                None if xk is None else xk[b])
            *want_grads, want_d_logits = oracle_attention_backward(
                d_out[b], want_cache)
            assert np.array_equal(out[b], want)
            assert np.array_equal(d_logits[b], want_d_logits)
            sums = [s + g for s, g in zip(sums, want_grads)]
        for got, want in zip(grads, sums):
            assert got.shape == want.shape == params.w_q.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_single_graph_entry_is_batch_of_one(self):
        rng = np.random.default_rng(31)
        params = init_attention_params(6, 3, 4, rng)
        x = rng.standard_normal((7, 6))
        bias = rng.standard_normal((7, 7, 3))
        out, cache = attention_forward(x, params, bias)
        want, _ = _attention(x[None], params, bias[None])
        assert np.array_equal(out, want[0])
        assert cache["attn"].shape == (1, 3, 7, 7)


class TestKeyMajorLayout:
    """The logits are kept key-major, (heads, m, B, n), and the softmax sums
    over keys in order. A graph's sums do not depend on the other graphs of
    its batch, so a batch equals its graphs run one at a time bitwise, at
    any m; the per-graph oracle sums its rows pairwise, so past m = 8 it
    differs in the last bits."""

    def run(self, shape, linear, seed):
        batch, n, m = shape
        rng = np.random.default_rng(seed)
        params = init_attention_params(16, 4, 8, rng)
        x = rng.standard_normal((batch, n, 16))
        xk = rng.standard_normal((batch, m, 16)) if linear else None
        bias = rng.standard_normal((4, m, batch * n)).T.reshape(
            batch, n, m, 4)  # key-major, as bias_matrix returns it
        d_out = rng.standard_normal((batch, n, 32))
        out, cache = _attention(x, params, bias, xk)
        d_logits = attention_backward(d_out, cache)[-1]
        return params, x, xk, bias, d_out, out, d_logits

    @pytest.mark.parametrize("shape, linear", [((20, 30, 30), False),
                                               ((5, 40, 12), True)])
    def test_batch_equals_graphs_one_at_a_time(self, shape, linear):
        params, x, xk, bias, d_out, out, d_logits = self.run(shape, linear, 32)
        for b in range(shape[0]):
            want, cache = _attention(x[b:b + 1], params, bias[b:b + 1],
                                     None if xk is None else xk[b:b + 1])
            want_d_logits = attention_backward(d_out[b:b + 1], cache)[-1]
            assert np.array_equal(out[b], want[0])
            assert np.array_equal(d_logits[b], want_d_logits[0])

    def test_within_1e13_of_oracle_at_30_keys(self):
        params, x, _, bias, d_out, out, d_logits = self.run((20, 30, 30),
                                                            False, 33)
        for b in range(20):
            want, cache = oracle_attention_forward(x[b], params, bias[b])
            want_d_logits = oracle_attention_backward(d_out[b], cache)[-1]
            for got, ref in ((out[b], want), (d_logits[b], want_d_logits)):
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_bias_backward_reads_d_logits_without_a_copy(self, monkeypatch):
        rng = np.random.default_rng(34)
        layer = BiasedAttentionLayer(init_attention_params(5, 2, 3, rng),
                                     init_bias_params(2, 5, 3, 3, 2, rng))
        layer.forward(rng.standard_normal((3, 4, 5)),
                      rng.integers(0, 7, (3, 4, 4, 2)))
        results, weights = [], []
        backward, bincount = attention_backward, np.bincount

        def spy_backward(*args):
            results.append(backward(*args))
            return results[-1]

        def spy_bincount(*args, **kwargs):
            weights.append(kwargs["weights"])
            return bincount(*args, **kwargs)

        monkeypatch.setattr(attention_mod, "attention_backward", spy_backward)
        monkeypatch.setattr(np, "bincount", spy_bincount)
        layer.backward(rng.standard_normal((3, 4, 6)))
        d_logits = results[0][-1]
        assert len(weights) == 2
        for plane in weights:  # one row of the (heads, pairs) view per head
            assert np.shares_memory(plane, d_logits)


class TestInputsUnchanged:
    """The kernel scales, biases and normalizes its logits in place; the
    arrays a caller passes in are never written."""

    def snapshot(self, *arrays):
        return [None if a is None else a.copy() for a in arrays]

    def assert_unchanged(self, arrays, copies):
        for a, c in zip(arrays, copies):
            if a is not None:
                assert np.array_equal(a, c)

    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("n", [0, 5])
    def test_attention_forward(self, linear, n):
        rng = np.random.default_rng(26)
        params = small_params(rng)
        x = rng.standard_normal((n, 5))
        ctx = rng.standard_normal((3, 5)) if linear else None
        bias = rng.standard_normal((n, 3 if linear else n, params.heads))
        copies = self.snapshot(x, ctx, bias)
        out, _ = attention_forward(x, params, bias, ctx)
        assert out.shape == (n, 6)
        self.assert_unchanged((x, ctx, bias), copies)

    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_layer_forward(self, linear, batch):
        rng = np.random.default_rng(27)
        layer = BiasedAttentionLayer(init_attention_params(5, 2, 3, rng),
                                     init_bias_params(2, 5, 3, 3, 2, rng))
        lead = () if batch is None else (batch,)
        m = 3 if linear else 4
        x = rng.standard_normal(lead + (4, 5))
        ctx = rng.standard_normal(lead + (m, 5)) if linear else None
        codes = rng.integers(0, 7, lead + (4, m, 2)).astype(np.uint8)
        copies = self.snapshot(x, ctx, codes)
        out = layer.forward(x, codes, x_ctx=ctx)
        assert out.shape == lead + (4, 6)
        self.assert_unchanged((x, ctx, codes), copies)
        layer.backward(np.ones_like(out))
        self.assert_unchanged((x, ctx, codes), copies)


class TestEmptyGraph:
    @pytest.mark.parametrize("with_codes", [True, False])
    @pytest.mark.parametrize("batch", [None, 2, 0])
    def test_forward_empty_backward_zero(self, with_codes, batch):
        # graphs of no nodes, or (batch 0) a batch of no 4-node graphs
        rng = np.random.default_rng(25)
        attn = init_attention_params(5, 2, 3, rng)
        layer = BiasedAttentionLayer(attn, init_bias_params(2, 30, 3, 3, 2,
                                                            rng))
        # hdse of an empty hierarchy: (0, 0, 2) codes
        h = build_hierarchy(make_graph(0, []), "louvain", 1)
        codes = hdse(h).entries if with_codes else None
        lead = () if batch is None else (batch,)
        n = 4 if batch == 0 else 0
        x = np.empty(lead + (n, 5))
        if batch is not None and codes is not None:
            codes = np.zeros((batch, n, n, 2), dtype=codes.dtype)
        out = layer.forward(x, codes)
        assert out.shape == lead + (n, 6)
        g = layer.backward(np.empty(lead + (n, 6)))
        for name, arr in layer.parameters():
            assert np.all(g[name] == 0.0)
            assert g[name].shape == arr.shape


def unbuffered_step(layer, x, codes, x_ctx, d_out):
    """The layer's forward and backward, run through the kernels with no
    workspace: (out, gradients in ``parameters()`` order)."""
    p = layer.bias
    bias, bias_cache = bias_matrix(codes.reshape(-1, *codes.shape[-2:]), p)
    bias = bias.reshape(codes.shape[:-1] + (p.heads,))
    if x.ndim == 3:
        out, cache = _attention(x, layer.attn, bias, x_ctx)
    else:
        out, cache = attention_forward(x, layer.attn, bias, x_ctx)
    *grads, d_logits = attention_backward(d_out, cache)
    b, heads, n, m = d_logits.shape
    grads += bias_backward(
        d_logits.transpose(0, 2, 3, 1).reshape(b * n, m, heads), bias_cache)
    return out, grads


def fused_projection_oracle(x, params):
    """Q, K and V of self-attention as the kernel once projected them: one
    (B·n, d) @ (d, 3·heads·head_dim) GEMM against the three weight tensors
    laid side by side, split into (B, heads, n, head_dim) heads."""
    b, n, d = x.shape
    w = np.concatenate([wt.transpose(1, 0, 2).reshape(d, -1)
                        for wt in (params.w_q, params.w_k, params.w_v)],
                       axis=1)
    y = x.reshape(b * n, d) @ w
    return y.reshape(b, n, 3, params.heads, params.head_dim).transpose(
        2, 0, 3, 1, 4)


class TestProjection:
    """Self-attention projects Q from ``x`` and K, V from the context, as
    the linear variant does; its Q, K and V stay bitwise equal to the fused
    projection."""

    @pytest.mark.parametrize("b, n, d, heads, head_dim", [
        (20, 30, 32, 4, 8), (1, 500, 32, 4, 8), (3, 7, 5, 2, 3)],
        ids=["demo batch", "infer graph", "odd shape"])
    def test_self_attention_equals_the_fused_projection(self, b, n, d, heads,
                                                        head_dim):
        rng = np.random.default_rng(50)
        params = init_attention_params(d, heads, head_dim, rng)
        x = rng.standard_normal((b, n, d))
        for ws in (None, {}):
            _, cache = _attention(x, params, None, None, ws)
            for key, want in zip("qkv", fused_projection_oracle(x, params)):
                assert np.array_equal(cache[key], want), key


class TestWorkspace:
    """The layer's workspace: buffers reused while the input shape stays,
    dropped when it changes, and results bitwise equal to the kernels run
    without one."""

    def make_layer(self, rng, levels=2):
        return BiasedAttentionLayer(init_attention_params(5, 2, 3, rng),
                                    init_bias_params(levels, 5, 3, 3, 2, rng))

    def inputs(self, rng, batch, linear, n=6):
        lead = () if batch is None else (batch,)
        m = 4 if linear else n
        x = rng.standard_normal(lead + (n, 5))
        ctx = rng.standard_normal(lead + (m, 5)) if linear else None
        codes = rng.integers(0, 7, lead + (n, m, 2))
        return x, ctx, codes, rng.standard_normal(lead + (n, 6))

    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_steps_equal_kernels_without_workspace(self, linear, batch):
        rng = np.random.default_rng(40)
        layer = self.make_layer(rng)
        for _ in range(4):  # same shape, new values, parameters updated
            x, ctx, codes, d_out = self.inputs(rng, batch, linear)
            want, want_grads = unbuffered_step(layer, x, codes, ctx, d_out)
            out = layer.forward(x, codes, x_ctx=ctx)
            grads = layer.backward(d_out)
            assert np.array_equal(out, want)
            for (name, _), g in zip(layer.parameters(), want_grads):
                assert np.array_equal(grads[name], g), name
            layer.apply_gradients(grads, 0.5)

    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_same_shape_calls_share_the_logits(self, linear, batch):
        rng = np.random.default_rng(41)
        layer = self.make_layer(rng)
        x, ctx, codes, _ = self.inputs(rng, batch, linear)
        layer.forward(x, codes, x_ctx=ctx)
        first = layer._cache[0]["attn"]
        layer.forward(x + 1.0, codes, x_ctx=ctx)
        assert np.shares_memory(first, layer._cache[0]["attn"])
        # a different shape gets new buffers
        layer.forward(x[..., :5, :], codes[..., :5, :, :] if linear
                      else codes[..., :5, :5, :], x_ctx=ctx)
        assert not np.shares_memory(first, layer._cache[0]["attn"])

    @pytest.mark.parametrize("linear", [False, True])
    def test_both_variants_hold_the_same_five_buffers(self, linear):
        rng = np.random.default_rng(44)
        layer = self.make_layer(rng)
        x, ctx, codes, d_out = self.inputs(rng, 3, linear)
        layer.forward(x, codes, x_ctx=ctx)
        layer.backward(d_out)
        assert sorted(layer._ws) == ["d_k", "d_q", "dlt", "lt", "proj"]
        m = len(ctx[0]) if linear else len(x[0])
        assert layer._ws["proj"].size == 3 * (len(x[0]) + 2 * m) * 6

    @pytest.mark.parametrize("with_codes", [True, False])
    def test_shape_change_frees_buffers_before_allocating(self, monkeypatch,
                                                          with_codes):
        # the old buffers are gone when bias_matrix and the kernel start, so
        # the two shapes' buffers are never held at once
        rng = np.random.default_rng(42)
        layer = self.make_layer(rng)
        x, _, codes, d_out = self.inputs(rng, 3, False)
        layer.forward(x, codes)
        layer.backward(d_out)
        old = [weakref.ref(buf) for buf in layer._ws.values()]
        assert len(old) == 5  # proj, lt, dlt, d_q, d_k
        alive = []

        def spy(fn):
            def call(*args, **kwargs):
                alive.append(sum(ref() is not None for ref in old))
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(attention_mod, "bias_matrix",
                            spy(attention_mod.bias_matrix))
        monkeypatch.setattr(attention_mod, "_attention",
                            spy(attention_mod._attention))
        x2, _, codes2, _ = self.inputs(rng, 3, False, n=7)
        layer.forward(x2, codes2 if with_codes else None)
        assert alive == ([0, 0] if with_codes else [0])

    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_backward_follows_the_last_forward(self, linear, batch):
        # backward differentiates the last forward, whose logits overwrote
        # the earlier call's in the shared buffers
        rng = np.random.default_rng(43)
        layer = self.make_layer(rng)
        x1, ctx1, codes1, d_out = self.inputs(rng, batch, linear)
        x2, ctx2, codes2, _ = self.inputs(rng, batch, linear)
        layer.forward(x1, codes1, x_ctx=ctx1)
        out = layer.forward(x2, codes2, x_ctx=ctx2)
        grads = layer.backward(d_out)
        want, want_grads = unbuffered_step(layer, x2, codes2, ctx2, d_out)
        assert np.array_equal(out, want)
        for (name, _), g in zip(layer.parameters(), want_grads):
            assert np.array_equal(grads[name], g), name

    def test_kernel_resizes_a_buffer_of_another_shape(self):
        # a direct caller may pass one workspace at several shapes
        rng = np.random.default_rng(46)
        params = init_attention_params(5, 2, 3, rng)
        ws = {}
        for n in (4, 6, 4):
            x = rng.standard_normal((2, n, 5))
            d_out = rng.standard_normal((2, n, 6))
            out, cache = _attention(x, params, None, None, ws)
            got = attention_backward(d_out, cache, ws)
            want_out, want_cache = _attention(x, params)
            want = attention_backward(d_out, want_cache)
            assert ws["lt"].shape == ws["dlt"].shape == (2, n, 2, n)
            assert np.array_equal(out, want_out)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_single_graph_goes_through_attention_forward(self, monkeypatch):
        rng = np.random.default_rng(44)
        layer = self.make_layer(rng)
        calls = []
        forward = attention_mod.attention_forward

        def counted(*args, **kwargs):
            calls.append(args)
            return forward(*args, **kwargs)

        monkeypatch.setattr(attention_mod, "attention_forward", counted)
        x, _, codes, _ = self.inputs(rng, None, False)
        layer.forward(x, codes)
        layer.forward(x)
        assert len(calls) == 2
        assert all(args[-1] is layer._ws for args in calls)
        xb, _, codes_b, _ = self.inputs(rng, 3, False)
        layer.forward(xb, codes_b)
        assert len(calls) == 2  # a batch calls _attention itself

    def test_warm_step_allocates_nothing_as_large_as_the_logits(self):
        # the demo's shape: 20 graphs of 30 nodes, 4 heads of 8, 32 features;
        # unbiased, since the bias planes are a new block of that size
        rng = np.random.default_rng(45)
        layer = BiasedAttentionLayer(init_attention_params(32, 4, 8, rng))
        x = rng.standard_normal((20, 30, 32))
        d_out = rng.standard_normal((20, 30, 32))
        logits_bytes = 4 * 30 * 20 * 30 * 8
        for _ in range(2):
            layer.forward(x)
            layer.backward(d_out)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            layer.forward(x)
            layer.backward(d_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # any block allocated adds its whole size to the peak
        assert peak - start < logits_bytes
