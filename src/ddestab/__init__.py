"""Stability certificates for scalar delay equations with decay plus delayed feedback.

The package decides global asymptotic stability of

    x'(t) = -delta * x(t) + f(t, x_t),    x > -1,

when the delayed feedback is pinched between a rational map and a scaled
copy of the state (a one-sided sector plus a rational envelope).  It also
reproduces the stability-region geometry as CSV artifacts and re-checks
every supporting inequality on dense grids with margin tracking.
"""

from . import ddesim, models, onedmaps, params, ratmaps, verify
from .ddesim import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .onedmaps import *  # noqa: F401,F403
from .params import *  # noqa: F401,F403
from .ratmaps import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = (
    params.__all__
    + ratmaps.__all__
    + onedmaps.__all__
    + ddesim.__all__
    + models.__all__
    + verify.__all__
)
