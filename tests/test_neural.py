from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from refgame.errors import DivergenceError, SchemaError
from refgame.neural import (
    Adam,
    ParamStore,
    bce_with_logits,
    crf_log_partition,
    crf_nll,
    crf_path_score,
    crf_posteriors,
    crf_viterbi,
    cross_entropy_rows,
    dropout_mask,
    gradient_check,
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


class TestGradChecks:
    """Every primitive's analytic backward vs central differences, >=20 seeds."""

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
        rng = np.random.default_rng(seed)
        T, D, H = 3, 4, 5
        params = {
            "W": rng.normal(size=(3 * H, D)) * 0.5,
            "U": rng.normal(size=(3 * H, H)) * 0.5,
            "b": rng.normal(size=3 * H) * 0.1,
            "x": rng.normal(size=(T, D)),
        }
        target = rng.normal(size=(T, H))

        def loss_fn():
            h, _ = gru_sequence(params["W"], params["U"], params["b"], params["x"])
            return float(((h - target) ** 2).sum())

        h, cache = gru_sequence(params["W"], params["U"], params["b"], params["x"])
        dh = 2 * (h - target)
        dx, grads, _ = gru_sequence_backward(params["W"], params["U"], cache, dh)
        rep = gradient_check(
            loss_fn, params, {"W": grads["W"], "U": grads["U"], "b": grads["b"], "x": dx}, seed=seed
        )
        assert rep.max_rel_err < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_crf_nll(self, seed):
        rng = np.random.default_rng(seed)
        T, K = 4, 3
        params = {
            "em": rng.normal(size=(T, K)),
            "tr": rng.normal(size=(K, K)),
            "st": rng.normal(size=K),
        }
        tags = rng.integers(0, K, size=T)

        def loss_fn():
            return crf_nll(params["em"], params["tr"], tags, params["st"])[0]

        _, d_em, d_tr, d_st = crf_nll(params["em"], params["tr"], tags, params["st"])
        rep = gradient_check(loss_fn, params, {"em": d_em, "tr": d_tr, "st": d_st}, seed=seed)
        assert rep.max_rel_err < 1e-4


class TestGRU:
    def test_zero_params_halve_state(self):
        H, D = 4, 3
        w = np.zeros((3 * H, D))
        u = np.zeros((3 * H, H))
        b = np.zeros(3 * H)
        h = np.array([1.0, -2.0, 0.5, 4.0])
        out = gru_cell(w, u, b, np.ones(D), h)
        assert np.allclose(out, 0.5 * h)

    def test_zero_state_zero_params(self):
        H, D = 4, 3
        out = gru_cell(np.zeros((3 * H, D)), np.zeros((3 * H, H)), np.zeros(3 * H),
                       np.ones(D), np.zeros(H))
        assert np.allclose(out, 0.0)

    def test_sequence_matches_cell(self):
        rng = np.random.default_rng(3)
        T, D, H = 6, 3, 4
        w = rng.normal(size=(3 * H, D))
        u = rng.normal(size=(3 * H, H))
        b = rng.normal(size=3 * H)
        x = rng.normal(size=(T, D))
        h_seq, _ = gru_sequence(w, u, b, x)
        h = np.zeros(H)
        for t in range(T):
            h = gru_cell(w, u, b, x[t], h)
            assert np.allclose(h_seq[t], h, atol=1e-12)

        # float32 inputs stay float32 through the kernels, forward and backward
        w32, u32, b32, x32 = (a.astype(np.float32) for a in (w, u, b, x))
        h32, cache = gru_sequence(w32, u32, b32, x32)
        assert h32.dtype == np.float32
        assert gru_cell(w32, u32, b32, x32[0], h32[0]).dtype == np.float32
        assert np.allclose(h32, h_seq, atol=1e-5)
        dx, grads, dh0 = gru_sequence_backward(w32, u32, cache, np.ones_like(h32))
        assert dx.dtype == np.float32 and dh0.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads.values())


class TestCRF:
    def test_single_step_uniform(self):
        em = np.zeros((1, 2))
        tr = np.zeros((2, 2))
        assert crf_log_partition(em, tr) == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("seed", range(10))
    def test_log_partition_vs_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 6))
        K = int(rng.integers(2, 5))
        em = rng.normal(size=(T, K))
        tr = rng.normal(size=(K, K))
        st = rng.normal(size=K)
        scores = [crf_path_score(em, tr, path, st) for path in product(range(K), repeat=T)]
        m = max(scores)
        brute = m + math.log(sum(math.exp(s - m) for s in scores))
        assert abs(crf_log_partition(em, tr, st) - brute) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_viterbi_vs_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 6))
        K = int(rng.integers(2, 5))
        em = rng.normal(size=(T, K))
        tr = rng.normal(size=(K, K))
        paths = list(product(range(K), repeat=T))
        scores = [crf_path_score(em, tr, p) for p in paths]
        best = max(scores)
        path, score = crf_viterbi(em, tr)
        assert score == pytest.approx(best, abs=1e-9)
        assert crf_path_score(em, tr, path) == pytest.approx(best, abs=1e-9)
        assert score <= crf_log_partition(em, tr) + 1e-12

    def test_viterbi_lowest_index_ties(self):
        em = np.zeros((3, 3))
        tr = np.zeros((3, 3))
        path, _ = crf_viterbi(em, tr)
        assert path == [0, 0, 0]

    def test_posteriors_sum_to_one(self):
        rng = np.random.default_rng(5)
        em = rng.normal(size=(6, 3))
        tr = rng.normal(size=(3, 3))
        unary, pair, _ = crf_posteriors(em, tr)
        assert np.allclose(unary.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(pair.sum(axis=(1, 2)), 1.0, atol=1e-9)

    def test_gold_path_likelihood_nonpositive(self):
        rng = np.random.default_rng(6)
        em = rng.normal(size=(4, 3))
        tr = rng.normal(size=(3, 3))
        tags = [0, 1, 1, 2]
        nll, *_ = crf_nll(em, tr, tags)
        assert nll >= 0.0  # log-likelihood <= 0

    def test_path_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        em = rng.normal(size=(4, 3))
        tr = rng.normal(size=(3, 3))
        logz = crf_log_partition(em, tr)
        total = sum(
            math.exp(crf_path_score(em, tr, p) - logz)
            for p in product(range(3), repeat=4)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_emissions_rejected(self):
        em = np.array([[0.0, np.inf]])
        with pytest.raises(ValueError):
            crf_log_partition(em, np.zeros((2, 2)))


def _ref_alphas(emissions, transitions, start):
    """Scalar forward recursion, one tag pair at a time (reference)."""
    T, K = emissions.shape
    alpha = np.empty((T, K), dtype=emissions.dtype)
    alpha[0] = emissions[0] + start
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
    """The tag-vector CRF kernels equal the scalar loops bit for bit."""

    @staticmethod
    def _case(seed, dtype):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 9))
        K = int(rng.integers(2, 5))
        em = rng.normal(scale=2.0, size=(T, K))
        tr = rng.normal(size=(K, K))
        st = rng.normal(size=K)
        if seed % 3 == 1:  # all-zero scores: every argmax is a tie
            em[:], tr[:], st[:] = 0.0, 0.0, 0.0
        elif seed % 3 == 2:  # the tagger's decode-time constraint penalties
            tr[K - 1, 1] += -1e4
            st[1] = -1e4
        return em.astype(dtype), tr.astype(dtype), st.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(30))
    def test_equal_to_scalar_loops(self, seed, dtype):
        em, tr, st = self._case(seed, dtype)
        alpha, logz = kernels.crf_alphas(em, tr, st)
        ref_alpha, ref_logz = _ref_alphas(em, tr, st)
        assert alpha.dtype == dtype and np.array_equal(alpha, ref_alpha)
        assert np.array_equal(logz, ref_logz)
        beta = kernels.crf_betas(em, tr)
        assert beta.dtype == dtype and np.array_equal(beta, _ref_betas(em, tr))
        path, score = kernels.crf_viterbi_path(em, tr, st)
        ref_path, ref_score = _ref_viterbi(em, tr, st)
        assert np.array_equal(path, ref_path)
        assert np.array_equal(score, ref_score)


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

    def test_checkpoint_exact_roundtrip(self, tmp_path):
        store = ParamStore(seed=2)
        store.add("a", (3, 4))
        store.add("b", (5,), init="uniform")
        path = tmp_path / "ckpt.json"
        store.save(path)
        loaded = ParamStore.load(path)
        assert set(loaded.params) == {"a", "b"}
        for k in store.params:
            assert np.array_equal(loaded[k], store[k])
            assert loaded[k].dtype == store[k].dtype

    def test_checkpoint_rejects_other_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(SchemaError):
            ParamStore.load(path)

    def test_clip_global_norm(self):
        store = ParamStore(seed=0)
        store.add("w", (2, 2))
        store.grads["w"][...] = 10.0
        norm = store.clip_grad_global_norm(1.0)
        assert norm == pytest.approx(20.0)
        assert store.grad_global_norm() == pytest.approx(1.0)
