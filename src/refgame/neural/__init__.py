"""Minimal differentiable-compute kernel: primitive layers with exact
analytic gradients, a GRU, a linear-chain CRF and Adam.  numpy arrays
throughout; the recurrent hot loops live in kernels.py.  The imports below
are the package's exports."""

from . import kernels
from .adam import Adam, fit
from .crf import crf_nll, crf_viterbi
from .gru import add_gru_params, gru_cell, gru_sequence, gru_sequence_backward
from .kernels import by_length, live_mask, pack
from .ops import (
    bce_with_logits,
    cross_entropy_rows,
    dropout_mask,
    linear,
    linear_backward,
    log_softmax,
    logsumexp,
    mlp,
    mlp_backward,
    sigmoid,
    softmax,
    softmax_backward,
    tanh,
    tanh_backward,
)
from .params import ParamStore
