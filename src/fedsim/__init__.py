"""Deterministic desk-scale simulator for cluster-based model-heterogeneous
federated learning.

The package is organised around a handful of small, pure modules:

* :mod:`fedsim.models` -- layer/model descriptions, width pruning, parameter
  initialisation and the leading-block extraction used by width-sliced
  aggregation.
* :mod:`fedsim.nn` -- a minimal double-precision forward/backward kernel
  (dense, conv, relu, maxpool, flatten) plus plain SGD.
* :mod:`fedsim.losses` -- temperature softmax, cross entropy and the KL
  divergences used for server-side mutual distillation.
* :mod:`fedsim.data` -- synthetic blob datasets, directory loading, IID and
  Dirichlet partitioning, and distillation draws from a holdout or a directory.
* :mod:`fedsim.clustering` -- simulated duration profiling, Gaussian KDE and
  density-valley clustering with pruning-rate assignment.
* :mod:`fedsim.engine` -- local updates, the two aggregation stages, baseline
  aggregators, and a run as ``prepare_run`` then one ``run_round`` per round.
* :mod:`fedsim.procs` -- the helper processes a run forks, and the one call
  that runs a phase of a round in every process.
* :mod:`fedsim.config` / :mod:`fedsim.cli` -- every config setting declared
  once, with ``FedConfig`` and the named seed streams, strict YAML
  configuration; and the command line harness.

Everything is seeded explicitly; runs are bit-reproducible for a fixed
configuration.
"""

from fedsim.errors import ConfigError, DimensionError, EngineError, FedsimError

__all__ = [
    "ConfigError",
    "DimensionError",
    "EngineError",
    "FedsimError",
]

__version__ = "0.1.0"
