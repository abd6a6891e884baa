"""absq: absolute entropic and fully-entangled-fraction classes of quantum
states, the noise channels that push states into them, and the swapping
network that probabilistically pulls states back out."""

from . import bloch, channels, classify, entropy, linalg, states, swap, sweep
from .channels import KrausChannel, double_apply, global_depolarize, make_channel
from .classify import (
    ClassificationReport,
    acre2nn_bloch,
    classification_report,
    is_acre2nn,
    is_acrenn,
    is_acvenn,
    is_afef,
    marginal_acre2nn,
)
from .entropy import (
    conditional_renyi,
    conditional_von_neumann,
    renyi,
    series_estimate,
    series_estimate_flat,
    trace_power,
    von_neumann,
)
from .errors import AbsqError
from .linalg import eigvals_hermitian, partial_trace
from .states import (
    DensityMatrix,
    acin_tripartite,
    acin_two_param,
    bell_state,
    depolarized_schmidt,
    ghz_w_mix,
    isotropic,
    pure_schmidt,
)
from .swap import RetrievalReport, SwapOutcome, retrieval_success, swap_conditionals
from .sweep import Interval, find_boundary, intervals

__version__ = "0.1.0"
