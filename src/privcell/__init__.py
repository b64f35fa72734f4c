"""Privacy-preserving uplink channel estimation for cell-free hybrid MIMO.

Switch-sampled observations at the APs are completed into full channel
blocks by two jointly private distributed algorithms (an iterative
Frank-Wolfe scheme and a one-shot spectral scheme), with every AP-to-CPU
message limited to noisy Gram releases or locally detected payload.
"""

from .channel import Scenario, SignalBlock
from .config import ExperimentConfig, RunConfig, load_experiment
from .errors import PrivCellError
from .fw import FwConfig, run_fw
from .harness import MetricsRecord, cross_validate, emit_csv, run_sweep
from .privacy import CompletionResult, frob_bound, fw_noise_scale, svd_noise_scale
from .svdmc import SvdConfig, run_svd

__version__ = "0.1.0"

__all__ = [
    "CompletionResult",
    "ExperimentConfig",
    "FwConfig",
    "MetricsRecord",
    "PrivCellError",
    "RunConfig",
    "Scenario",
    "SignalBlock",
    "SvdConfig",
    "__version__",
    "cross_validate",
    "emit_csv",
    "frob_bound",
    "fw_noise_scale",
    "load_experiment",
    "run_fw",
    "run_svd",
    "run_sweep",
    "svd_noise_scale",
]
