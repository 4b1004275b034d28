"""Numerical laboratory for hard-edge Bessel kernels, conditional
orthogonal polynomial ensembles, and equilibrium-measure diagnostics.

Each module's ``__all__`` is the one place its public names are declared.
The package re-exports the ``__all__`` of ``errors``, ``sequences``,
``specfun``, ``weights``, ``orthopoly`` and ``dpp`` as they stand, and adds
only the names it chooses itself: the ``equilibrium`` module, ``lab``'s
``ExperimentConfig``, ``default_config`` and ``run_experiment``, and
``__version__``.  A public name is added or removed in its own module.
"""

from . import dpp, equilibrium, errors, orthopoly, sequences, specfun, weights
from .dpp import *  # noqa: F403
from .errors import *  # noqa: F403
from .lab import ExperimentConfig, default_config, run_experiment
from .orthopoly import *  # noqa: F403
from .sequences import *  # noqa: F403
from .specfun import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *sequences.__all__, *specfun.__all__, *weights.__all__,
    *orthopoly.__all__, *dpp.__all__,
    "equilibrium", "ExperimentConfig", "default_config", "run_experiment", "__version__",
]
