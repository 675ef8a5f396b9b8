from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from refgame.errors import DivergenceError, SchemaError
from refgame.neural.adam import BETA1, BETA2, EPS
from refgame.neural import (
    Adam,
    ParamStore,
    bce_with_logits,
    crf_nll,
    crf_viterbi,
    cross_entropy_rows,
    dropout_mask,
    gru_cell,
    gru_sequence,
    gru_sequence_backward,
    kernels,
    linear,
    linear_backward,
    logsumexp,
    mlp,
    mlp_backward,
    sigmoid,
    softmax,
    tanh,
)

from gradcheck import gradient_check


class TestOps:
    def test_linear_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        assert np.allclose(linear(x, np.eye(3), np.zeros(3)), x)

    def test_linear_shape_mismatch(self):
        with pytest.raises(ValueError):
            linear(np.ones((2, 3)), np.ones((4, 2)), np.zeros(4))

    def test_softmax_uniform(self):
        out = softmax(np.zeros(7))
        assert np.allclose(out, np.full(7, 1 / 7))

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(scale=10, size=(4, 9))
            assert np.allclose(softmax(x, axis=-1).sum(axis=-1), 1.0, atol=1e-12)

    def test_logsumexp_ln2(self):
        assert logsumexp(np.array([0.0, 0.0])) == pytest.approx(math.log(2.0))

    def test_sigmoid_extremes_stable(self):
        out = sigmoid(np.array([-1e4, 0.0, 1e4]))
        assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0

    def test_dropout_mask_scaling(self):
        rng = np.random.default_rng(0)
        mask = dropout_mask(rng, (10000,), 0.5)
        assert set(np.unique(mask)) <= {0.0, 2.0}
        assert mask.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_zero_rate_identity(self):
        rng = np.random.default_rng(0)
        assert np.all(dropout_mask(rng, (5,), 0.0) == 1.0)

    def test_bce_with_logits_matches_naive(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(3, 7))
        t = (rng.random((3, 7)) > 0.5).astype(float)
        loss, _ = bce_with_logits(z, t)
        p = sigmoid(z)
        naive = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert loss == pytest.approx(naive, rel=1e-10)


def sigmoid_backward(dout: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d sigmoid from its output.  The REF head trains on logits, so nothing
    in the package backpropagates through a sigmoid; only this check does."""
    return dout * out * (1.0 - out)


class TestGradChecks:
    """Every primitive's analytic backward vs central differences, >=20 seeds."""

    @pytest.mark.parametrize("seed", range(20))
    def test_linear_sigmoid_composite(self, seed):
        rng = np.random.default_rng(seed)
        params = {"W": rng.normal(size=(4, 3)), "b": rng.normal(size=4), "x": rng.normal(size=(5, 3))}
        target = rng.normal(size=(5, 4))

        def loss_fn():
            out = sigmoid(linear(params["x"], params["W"], params["b"]))
            return float(((out - target) ** 2).sum())

        out = sigmoid(linear(params["x"], params["W"], params["b"]))
        dx, dw, db = linear_backward(sigmoid_backward(2 * (out - target), out), params["x"], params["W"])
        rep = gradient_check(loss_fn, params, {"W": dw, "b": db, "x": dx}, seed=seed)
        assert rep.max_rel_err < 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_linear_tanh_composite(self, seed):
        rng = np.random.default_rng(seed)
        params = {
            "W": rng.normal(size=(4, 3)),
            "b": rng.normal(size=4),
            "x": rng.normal(size=(5, 3)),
        }
        target = rng.normal(size=(5, 4))

        def loss_fn():
            out = tanh(linear(params["x"], params["W"], params["b"]))
            return float(((out - target) ** 2).sum())

        out = tanh(linear(params["x"], params["W"], params["b"]))
        dout = 2 * (out - target) * (1 - out * out)
        dx, dw, db = linear_backward(dout, params["x"], params["W"])
        rep = gradient_check(loss_fn, params, {"W": dw, "b": db, "x": dx}, seed=seed)
        assert rep.max_rel_err < 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_mlp(self, seed):
        rng = np.random.default_rng(seed)
        params = {
            "W1": rng.normal(size=(6, 4)), "b1": rng.normal(size=6),
            "W2": rng.normal(size=(3, 6)), "b2": rng.normal(size=3),
            "x": rng.normal(size=(2, 4)),
        }
        targets = np.array([0, 2])

        def loss_fn():
            out, _ = mlp(params["x"], params["W1"], params["b1"], params["W2"], params["b2"])
            return cross_entropy_rows(out, targets)[0]

        out, hidden = mlp(params["x"], params["W1"], params["b1"], params["W2"], params["b2"])
        _, dlogits = cross_entropy_rows(out, targets)
        dx, dw1, db1, dw2, db2 = mlp_backward(dlogits, params["x"], hidden, params["W1"], params["W2"])
        rep = gradient_check(
            loss_fn, params, {"W1": dw1, "b1": db1, "W2": dw2, "b2": db2, "x": dx}, seed=seed
        )
        assert rep.max_rel_err < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_gru_sequence(self, seed):
        # a packed batch of three rows of lengths 3, 2 and 1
        rng = np.random.default_rng(seed)
        T, D, H = 3, 4, 5
        lengths = [3, 2, 1]
        params = {
            "W": rng.normal(size=(3 * H, D)) * 0.5,
            "U": rng.normal(size=(3 * H, H)) * 0.5,
            "b": rng.normal(size=3 * H) * 0.1,
            "x": rng.normal(size=(T, 3, D)),
        }
        target = rng.normal(size=(T, 3, H))

        def loss_fn():
            h, _ = gru_sequence(params["W"], params["U"], params["b"], params["x"], lengths)
            return float(((h - target) ** 2).sum())

        h, cache = gru_sequence(params["W"], params["U"], params["b"], params["x"], lengths)
        dh = 2 * (h - target)
        dx, grads = gru_sequence_backward(params["W"], params["U"], cache, dh)
        rep = gradient_check(
            loss_fn, params, {"W": grads["W"], "U": grads["U"], "b": grads["b"], "x": dx}, seed=seed
        )
        assert rep.max_rel_err < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_crf_nll(self, seed):
        # a packed batch of three rows of lengths 4, 2 and 1
        rng = np.random.default_rng(seed)
        T, K = 4, 3
        lengths = [4, 2, 1]
        params = {
            "em": rng.normal(size=(T, 3, K)),
            "tr": rng.normal(size=(K, K)),
        }
        tags = rng.integers(0, K, size=(T, 3))

        def loss_fn():
            return crf_nll(params["em"], params["tr"], tags, lengths)[0].sum()

        _, d_em, d_tr = crf_nll(params["em"], params["tr"], tags, lengths)
        rep = gradient_check(loss_fn, params, {"em": d_em, "tr": d_tr}, seed=seed)
        assert rep.max_rel_err < 1e-4


class TestGRU:
    def test_zero_params_halve_state(self):
        H, D = 4, 3
        w = np.zeros((3 * H, D))
        u = np.zeros((3 * H, H))
        b = np.zeros(3 * H)
        h = np.array([1.0, -2.0, 0.5, 4.0])
        out = gru_cell((w @ np.ones(D) + b)[None], u, h[None])[0]
        assert np.allclose(out, 0.5 * h)

    def test_zero_state_zero_params(self):
        H, D = 4, 3
        w, b = np.zeros((3 * H, D)), np.zeros(3 * H)
        out = gru_cell((w @ np.ones(D) + b)[None], np.zeros((3 * H, H)), np.zeros((1, H)))
        assert np.allclose(out, 0.0)

    def test_sequence_matches_cell(self):
        rng = np.random.default_rng(3)
        T, D, H = 6, 3, 4
        w = rng.normal(size=(3 * H, D))
        u = rng.normal(size=(3 * H, H))
        b = rng.normal(size=3 * H)
        x = rng.normal(size=(T, 1, D))
        h_seq, _ = gru_sequence(w, u, b, x, [T])
        h = np.zeros(H)
        for t in range(T):
            h = gru_cell((w @ x[t, 0] + b)[None], u, h[None])[0]
            assert np.allclose(h_seq[t, 0], h, atol=1e-12)

        # float32 inputs stay float32 through the kernels, forward and backward
        w32, u32, b32, x32 = (a.astype(np.float32) for a in (w, u, b, x))
        h32, cache = gru_sequence(w32, u32, b32, x32, [T])
        assert h32.dtype == np.float32
        assert gru_cell((w32 @ x32[0, 0] + b32)[None], u32, h32[0]).dtype == np.float32
        assert np.allclose(h32, h_seq, atol=1e-5)
        dx, grads = gru_sequence_backward(w32, u32, cache, np.ones_like(h32))
        assert dx.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads.values())


def _path_score(emissions, transitions, tags) -> float:
    """Score of one tag path with no start scores, one term at a time
    (reference)."""
    score = 0.0
    for t, tag in enumerate(tags):
        score += emissions[t, tag]
        if t:
            score += transitions[tags[t - 1], tag]
    return float(score)


def _log_partition(emissions, transitions) -> float:
    """log Z from crf_nll: the NLL of any path plus that path's score."""
    tags = np.zeros((len(emissions), 1), dtype=np.int64)
    nll = crf_nll(emissions[:, None], transitions, tags, [len(emissions)])[0][0]
    return nll + _path_score(emissions, transitions, tags[:, 0])


def _ragged(rng, K, max_len=5, max_rows=4):
    """Random rows of lengths 1..max_len, longest first, packed (T, B, K),
    with the (T_b, K) emissions of each row."""
    lengths = sorted(rng.integers(1, max_len + 1, size=int(rng.integers(1, max_rows + 1))),
                     reverse=True)
    packed = np.zeros((lengths[0], len(lengths), K))
    rows = []
    for b, n in enumerate(lengths):
        packed[:n, b] = rng.normal(size=(n, K))
        rows.append(packed[:n, b])
    return packed, lengths, rows


class TestCRF:
    def test_single_step_uniform(self):
        em = np.zeros((1, 1, 2))
        tr = np.zeros((2, 2))
        assert crf_nll(em, tr, [[1]], [1])[0][0] == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("seed", range(10))
    def test_log_partition_vs_enumeration(self, seed):
        # every row of a ragged packed batch against its own enumeration
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 5))
        em, lengths, rows = _ragged(rng, K)
        tr = rng.normal(size=(K, K))
        gold = rng.integers(0, K, size=em.shape[:2])
        nll = crf_nll(em, tr, gold, lengths)[0]
        _, logz = kernels.crf_alphas(em, tr, lengths)
        for b, row in enumerate(rows):
            T = len(row)
            scores = [_path_score(row, tr, path) for path in product(range(K), repeat=T)]
            m = max(scores)
            brute = m + math.log(sum(math.exp(s - m) for s in scores))
            assert abs(nll[b] - (brute - _path_score(row, tr, gold[:T, b]))) < 1e-9
            assert abs(logz[b] - brute) < 1e-9
            assert abs(_ref_alphas(row, tr)[1] - brute) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_viterbi_vs_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 5))
        em, lengths, rows = _ragged(rng, K)
        tr = rng.normal(size=(K, K))
        paths, scores = crf_viterbi(em, tr, lengths, np.zeros(K))
        for row, path, score in zip(rows, paths, scores):
            best = max(_path_score(row, tr, p) for p in product(range(K), repeat=len(row)))
            assert len(path) == len(row)
            assert score == pytest.approx(best, abs=1e-9)
            assert _path_score(row, tr, path) == pytest.approx(best, abs=1e-9)
            assert score <= _log_partition(row, tr) + 1e-12

    def test_viterbi_lowest_index_ties(self):
        paths, _ = crf_viterbi(np.zeros((3, 2, 3)), np.zeros((3, 3)), [3, 1], np.zeros(3))
        assert paths == [[0, 0, 0], [0]]

    def test_posteriors_sum_to_one(self):
        # crf_nll's gradients are the marginals minus the gold counts, so adding
        # the gold counts back gives the marginals; check them by enumeration
        rng = np.random.default_rng(5)
        T, K = 6, 3
        em = rng.normal(size=(T, K))
        tr = rng.normal(size=(K, K))
        tags = rng.integers(0, K, size=T)
        _, d_em, d_tr = crf_nll(em[:, None], tr, tags[:, None], [T])
        unary, pairs = d_em[:, 0].copy(), d_tr.copy()
        unary[np.arange(T), tags] += 1.0
        np.add.at(pairs, (tags[:-1], tags[1:]), 1.0)
        assert np.allclose(unary.sum(axis=1), 1.0, atol=1e-9)
        assert pairs.sum() == pytest.approx(T - 1, abs=1e-9)
        logz = _log_partition(em, tr)
        brute_unary, brute_pairs = np.zeros((T, K)), np.zeros((K, K))
        for path in product(range(K), repeat=T):
            prob = math.exp(_path_score(em, tr, path) - logz)
            brute_unary[np.arange(T), path] += prob
            np.add.at(brute_pairs, (path[:-1], path[1:]), prob)
        assert np.allclose(unary, brute_unary, atol=1e-9)
        assert np.allclose(pairs, brute_pairs, atol=1e-9)

    def test_gold_path_likelihood_nonpositive(self):
        rng = np.random.default_rng(6)
        em = rng.normal(size=(4, 1, 3))
        tr = rng.normal(size=(3, 3))
        tags = [[0], [1], [1], [2]]
        nll, *_ = crf_nll(em, tr, tags, [4])
        assert nll[0] >= 0.0  # log-likelihood <= 0

    def test_path_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        em = rng.normal(size=(4, 1, 3))
        tr = rng.normal(size=(3, 3))
        total = sum(
            math.exp(-crf_nll(em, tr, np.array(p)[:, None], [4])[0][0])
            for p in product(range(3), repeat=4)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_emissions_rejected(self):
        em = np.array([[[0.0, np.inf]]])
        with pytest.raises(ValueError, match="non-finite emissions"):
            crf_nll(em, np.zeros((2, 2)), [[0]], [1])

    @pytest.mark.parametrize("lengths", [[2, 3], [3], [3, 0], [4, 2]])
    def test_bad_lengths_rejected(self, lengths):
        with pytest.raises(ValueError, match="lengths"):
            crf_viterbi(np.zeros((3, 2, 2)), np.zeros((2, 2)), lengths, np.zeros(2))


def _ref_alphas(emissions, transitions):
    """Scalar forward recursion, one tag pair at a time (reference)."""
    T, K = emissions.shape
    alpha = np.empty((T, K), dtype=emissions.dtype)
    alpha[0] = emissions[0]
    for t in range(1, T):
        for k in range(K):
            m = alpha[t - 1, 0] + transitions[0, k]
            for j in range(1, K):
                v = alpha[t - 1, j] + transitions[j, k]
                if v > m:
                    m = v
            s = 0.0
            for j in range(K):
                s += np.exp(alpha[t - 1, j] + transitions[j, k] - m)
            alpha[t, k] = emissions[t, k] + m + np.log(s)
    m = alpha[T - 1, 0]
    for k in range(1, K):
        if alpha[T - 1, k] > m:
            m = alpha[T - 1, k]
    s = 0.0
    for k in range(K):
        s += np.exp(alpha[T - 1, k] - m)
    return alpha, m + np.log(s)


def _ref_betas(emissions, transitions):
    """Scalar backward recursion (reference)."""
    T, K = emissions.shape
    beta = np.zeros((T, K), dtype=emissions.dtype)
    for t in range(T - 2, -1, -1):
        for j in range(K):
            m = transitions[j, 0] + emissions[t + 1, 0] + beta[t + 1, 0]
            for k in range(1, K):
                v = transitions[j, k] + emissions[t + 1, k] + beta[t + 1, k]
                if v > m:
                    m = v
            s = 0.0
            for k in range(K):
                s += np.exp(transitions[j, k] + emissions[t + 1, k] + beta[t + 1, k] - m)
            beta[t, j] = m + np.log(s)
    return beta


def _ref_viterbi(emissions, transitions, start):
    """Scalar Viterbi with lowest-index tie-breaking (reference)."""
    T, K = emissions.shape
    delta = np.empty((T, K), dtype=emissions.dtype)
    back = np.zeros((T, K), dtype=np.int64)
    delta[0] = emissions[0] + start
    for t in range(1, T):
        for k in range(K):
            best = delta[t - 1, 0] + transitions[0, k]
            arg = 0
            for j in range(1, K):
                v = delta[t - 1, j] + transitions[j, k]
                if v > best:
                    best = v
                    arg = j
            delta[t, k] = emissions[t, k] + best
            back[t, k] = arg
    best = delta[T - 1, 0]
    arg = 0
    for k in range(1, K):
        if delta[T - 1, k] > best:
            best = delta[T - 1, k]
            arg = k
    path = np.empty(T, dtype=np.int64)
    path[T - 1] = arg
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, best


class TestCRFKernelsMatchScalarReference:
    """Every row of a packed batch through the CRF kernels equals the scalar
    loops on that row alone, bit for bit."""

    @staticmethod
    def _case(seed, dtype):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 9))
        K = int(rng.integers(2, 5))
        lengths = [T] + sorted(rng.integers(1, T + 1, size=seed % 4), reverse=True)
        em = rng.normal(scale=2.0, size=(T, len(lengths), K))
        tr = rng.normal(size=(K, K))
        st = rng.normal(size=K)
        if seed % 3 == 1:  # all-zero scores: every argmax is a tie
            em[:], tr[:], st[:] = 0.0, 0.0, 0.0
        elif seed % 3 == 2:  # the tagger's decode-time constraint penalties
            tr[K - 1, 1] += -1e4
            st[1] = -1e4
        return em.astype(dtype), tr.astype(dtype), st.astype(dtype), lengths

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(30))
    def test_equal_to_scalar_loops(self, seed, dtype):
        em, tr, st, lengths = self._case(seed, dtype)
        alpha, logz = kernels.crf_alphas(em, tr, lengths)
        beta = kernels.crf_betas(em, tr, lengths)
        path, score = kernels.crf_viterbi_path(em, tr, st, lengths)
        assert alpha.dtype == beta.dtype == logz.dtype == score.dtype == dtype
        for b, n in enumerate(lengths):
            row = em[:n, b]
            ref_alpha, ref_logz = _ref_alphas(row, tr)
            assert np.array_equal(alpha[:n, b], ref_alpha)
            assert np.array_equal(logz[b], ref_logz)
            assert np.array_equal(beta[:n, b], _ref_betas(row, tr))
            ref_path, ref_score = _ref_viterbi(row, tr, st)
            assert np.array_equal(path[:n, b], ref_path)
            assert np.array_equal(score[b], ref_score)
            # padding stays zero
            assert not alpha[n:, b].any() and not beta[n:, b].any() and not path[n:, b].any()


def _ref_gru_step(a, u, h):
    """The one-row GRU step the packed kernel replaced (reference)."""
    H = h.shape[0]
    z = 1.0 / (1.0 + np.exp(-(a[0:H] + np.dot(u[0:H], h))))
    r = 1.0 / (1.0 + np.exp(-(a[H:2 * H] + np.dot(u[H:2 * H], h))))
    hb = np.tanh(a[2 * H:3 * H] + np.dot(u[2 * H:3 * H], r * h))
    return (1.0 - z) * h + z * hb, z, r, hb


def _ref_gru_forward(wx, u):
    """One-sequence forward over (T, 3H) projections (reference)."""
    T, H = wx.shape[0], u.shape[1]
    outs = [np.empty((T, H), dtype=wx.dtype) for _ in range(4)]
    h = np.zeros(H, dtype=wx.dtype)
    for t in range(T):
        h, outs[1][t], outs[2][t], outs[3][t] = _ref_gru_step(wx[t], u, h)
        outs[0][t] = h
    return tuple(outs)


def _ref_gru_backward(u, h_prev, z_seq, r_seq, hb_seq, dh_seq):
    """One-sequence backward through time (reference)."""
    T, H = z_seq.shape
    uzT = np.ascontiguousarray(u[0:H].T)
    urT = np.ascontiguousarray(u[H:2 * H].T)
    uhT = np.ascontiguousarray(u[2 * H:3 * H].T)
    da = np.zeros((T, 3 * H), dtype=z_seq.dtype)
    dh = np.zeros(H, dtype=z_seq.dtype)
    for t in range(T - 1, -1, -1):
        dht = dh + dh_seq[t]
        z, r, hb, hp = z_seq[t], r_seq[t], hb_seq[t], h_prev[t]
        daz = dht * (hb - hp) * z * (1.0 - z)
        dah = dht * z * (1.0 - hb * hb)
        drh = np.dot(uhT, dah)
        dar = drh * hp * r * (1.0 - r)
        dh = dht * (1.0 - z) + np.dot(uzT, daz) + np.dot(urT, dar) + drh * r
        da[t, 0:H], da[t, H:2 * H], da[t, 2 * H:3 * H] = daz, dar, dah
    return da


_lengths = hst.lists(hst.integers(1, 7), min_size=1, max_size=6).map(
    lambda xs: sorted(xs, reverse=True))


class TestPackedKernels:
    """A packed batch equals its rows run one at a time: bit for bit at
    B=1 against the one-sequence loops, to 1e-10 for ragged batches."""

    @given(seed=hst.integers(0, 2**32 - 1), T=hst.integers(1, 9), H=hst.sampled_from([1, 5, 32, 256]))
    @settings(max_examples=40, deadline=None)
    def test_gru_batch_of_one_is_the_one_sequence_kernel(self, seed, T, H):
        # float64 only: in float32 a one-row sgemm and sgemv may round apart
        dtype = np.float64
        rng = np.random.default_rng(seed)
        u = (rng.normal(size=(3 * H, H)) / np.sqrt(H)).astype(dtype)
        wx = rng.normal(size=(T, 3 * H)).astype(dtype)
        dh = rng.normal(size=(T, H)).astype(dtype)
        ref = _ref_gru_forward(wx, u)
        out = kernels.gru_forward(wx[:, None], u, [T])
        for a, b in zip(out, ref):
            assert a.dtype == dtype and np.array_equal(a[:, 0], b)
        h_prev = np.vstack([np.zeros_like(ref[0][:1]), ref[0][:-1]])
        ref_da = _ref_gru_backward(u, h_prev, *ref[1:], dh)
        da = kernels.gru_backward(u, h_prev[:, None], *(o for o in out[1:]), dh[:, None], [T])
        assert da.dtype == dtype and np.array_equal(da[:, 0], ref_da)
        h = np.zeros(H, dtype=dtype)
        for t in range(T):
            h = gru_cell(wx[t][None], u, h[None])[0]
            assert np.array_equal(h, ref[0][t])

    @given(seed=hst.integers(0, 2**32 - 1), lengths=_lengths)
    @settings(max_examples=40, deadline=None)
    def test_gru_packed_equals_per_sequence_sum(self, seed, lengths):
        rng = np.random.default_rng(seed)
        D, H = 3, 4
        w = rng.normal(size=(3 * H, D)) * 0.5
        u = rng.normal(size=(3 * H, H)) * 0.5
        b = rng.normal(size=3 * H) * 0.1
        T, B = lengths[0], len(lengths)
        x = rng.normal(size=(T, B, D))
        dh = rng.normal(size=(T, B, H))
        h, cache = gru_sequence(w, u, b, x, lengths)
        dx, grads = gru_sequence_backward(w, u, cache, dh)
        summed = {k: np.zeros_like(v) for k, v in grads.items()}
        for row, n in enumerate(lengths):
            h1, cache1 = gru_sequence(w, u, b, x[:n, row:row + 1], [n])
            dx1, grads1 = gru_sequence_backward(w, u, cache1, dh[:n, row:row + 1])
            assert np.allclose(h[:n, row], h1[:, 0], rtol=0, atol=1e-10)
            assert np.allclose(dx[:n, row], dx1[:, 0], rtol=0, atol=1e-10)
            assert not h[n:, row].any() and not dx[n:, row].any()
            for k in summed:
                summed[k] += grads1[k]
        for k in summed:
            assert np.allclose(grads[k], summed[k], rtol=0, atol=1e-10)

    @given(seed=hst.integers(0, 2**32 - 1), lengths=_lengths, K=hst.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_crf_packed_equals_per_sequence_sum(self, seed, lengths, K):
        rng = np.random.default_rng(seed)
        T, B = lengths[0], len(lengths)
        em = rng.normal(scale=2.0, size=(T, B, K))
        tr = rng.normal(size=(K, K))
        start = rng.normal(size=K)
        tags = rng.integers(0, K, size=(T, B))
        nll, d_em, d_tr = crf_nll(em, tr, tags, lengths)
        paths, scores = crf_viterbi(em, tr, lengths, start)
        sum_tr = np.zeros_like(d_tr)
        for row, n in enumerate(lengths):
            one = em[:n, row:row + 1]
            nll1, d_em1, d_tr1 = crf_nll(one, tr, tags[:n, row:row + 1], [n])
            assert abs(nll[row] - nll1[0]) < 1e-10
            assert np.allclose(d_em[:n, row], d_em1[:, 0], rtol=0, atol=1e-10)
            assert not d_em[n:, row].any()
            sum_tr += d_tr1
            path1, score1 = crf_viterbi(one, tr, [n], start)
            assert paths[row] == path1[0] and scores[row] == score1[0]
        assert np.allclose(d_tr, sum_tr, rtol=0, atol=1e-10)


class TestAdam:
    def _store(self):
        store = ParamStore(seed=0)
        store.add("w", (2, 2))
        return store

    def test_zero_gradient_no_change(self):
        store = self._store()
        before = store["w"].copy()
        Adam(store, lr=0.1).step()
        assert np.allclose(store["w"], before)

    def test_first_step_magnitude_is_lr(self):
        store = self._store()
        store.grads["w"][...] = 3.7  # constant gradient
        before = store["w"].copy()
        Adam(store, lr=0.01).step()
        delta = before - store["w"]
        assert np.allclose(delta, 0.01, rtol=1e-6)

    def test_deterministic_trajectories(self):
        runs = []
        for _ in range(2):
            store = self._store()
            opt = Adam(store, lr=0.05)
            rng = np.random.default_rng(9)
            for _ in range(10):
                store.grads["w"][...] = rng.normal(size=(2, 2))
                opt.step()
            runs.append(store["w"].copy())
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_steps_equal_the_plain_expression_bit_for_bit(self, dtype):
        # parameters of several shapes, so the scratch buffers are reused at
        # different sizes; the reference is the update written as one expression
        rng = np.random.default_rng(4)
        store = ParamStore(seed=1, dtype=dtype)
        for name, shape in (("a", (5, 3)), ("b", (7,)), ("c", (2, 2, 4))):
            store.add(name, shape)
        ref = {k: (v.copy(), np.zeros_like(v), np.zeros_like(v)) for k, v in store.params.items()}
        opt = Adam(store, lr=0.003)
        for t in range(1, 6):
            for k, g in store.grads.items():
                g[...] = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=g.shape)
            opt.step()
            b1t, b2t = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
            for k, (p, m, v) in ref.items():
                g = store.grads[k]
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * (g * g)
                p -= 0.003 * (m / b1t) / (np.sqrt(v / b2t) + EPS)
                assert store[k].dtype == np.dtype(dtype)
                assert np.array_equal(store[k], p) and np.array_equal(opt.m[k], m)
                assert np.array_equal(opt.v[k], v)

    def test_nonfinite_gradient_names_parameter(self):
        store = self._store()
        store.grads["w"][0, 0] = np.nan
        with pytest.raises(DivergenceError, match="w"):
            Adam(store).step()


class TestParamStore:
    def test_init_deterministic(self):
        a = ParamStore(seed=4)
        a.add("m", (3, 5))
        b = ParamStore(seed=4)
        b.add("m", (3, 5))
        assert np.array_equal(a["m"], b["m"])

    def test_matrix_init_bounds(self):
        store = ParamStore(seed=1)
        w = store.add("m", (20, 16))
        bound = 1 / math.sqrt(16)
        assert np.all(np.abs(w) <= bound)
        assert np.any(w != 0)

    def test_vector_init_zero(self):
        store = ParamStore(seed=1)
        assert np.all(store.add("b", (7,)) == 0)

    def test_checkpoint_exact_roundtrip(self):
        # fit's best-epoch checkpoint: copy_values, then load_values, bit for bit
        store = ParamStore(seed=2, dtype=np.float32)
        store.add("a", (3, 4))
        store.add("b", (5,), init="uniform")
        saved = store.copy_values()
        for v in store.params.values():
            v += 1.0
        store.load_values(saved)
        assert store.version == 1
        for k in store.params:
            assert store[k].tobytes() == saved[k].tobytes()
            assert store[k].dtype == np.float32

    @pytest.mark.parametrize("values, message", [
        ({"a": np.zeros((3, 4))}, "missing"),
        ({"a": np.zeros((3, 4)), "b": np.zeros(5), "c": np.zeros(1)}, "unexpected"),
        ({"a": np.zeros((4, 3)), "b": np.zeros(5)}, "a is float64"),
        ({"a": np.zeros((3, 4)), "b": np.zeros(5, dtype=np.float32)}, "b is float32"),
    ])
    def test_load_values_rejects_another_layout(self, values, message):
        store = ParamStore(seed=2)
        store.add("a", (3, 4))
        store.add("b", (5,))
        before = store.copy_values()
        with pytest.raises(ValueError, match=message):
            store.load_values(values)
        assert store.version == 0 and all(np.array_equal(store[k], before[k]) for k in before)

    def test_clip_global_norm(self):
        store = ParamStore(seed=0)
        store.add("w", (2, 2))
        store.grads["w"][...] = 10.0
        norm = store.clip_grad_global_norm(1.0)
        assert norm == pytest.approx(20.0)
        assert store.grad_global_norm() == pytest.approx(1.0)

