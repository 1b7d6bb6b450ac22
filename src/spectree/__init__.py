"""Laplacian spectra of Kronecker products X x K_m, with the tree line
graph case worked out in closed form.

The package namespace holds every public name of its six modules; each
module's __all__ is the one list of them.
"""

from . import closedform, eigen, families, graphs, spectra, verify
from .closedform import *  # noqa: F403
from .eigen import *  # noqa: F403
from .families import *  # noqa: F403
from .graphs import *  # noqa: F403
from .spectra import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for mod in (graphs, families, eigen, spectra, closedform, verify)
    for name in mod.__all__
]
