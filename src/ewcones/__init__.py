"""Entanglement witnesses from rotations, their cone geometry, and certificates.

An orthogonal rotation of the traceless diagonal sector of M_4 defines a
unital positive map; twirling its witness lands on a four-parameter circulant
family whose members fill two quadric cones. This package builds the maps and
witnesses, locates members on the cones, certifies (in)decomposability with
explicit evidence, estimates block positivity by see-saw, and constructs the
separable critical noise mixture. A three-dimensional analogue is included.
"""
__version__ = "0.1.0"

# The public API is each module's __all__; the package re-exports all of them.
from . import certify, cones, errata, family, gellmann, linalg, maps, spa
from .certify import *  # noqa: F403
from .cones import *  # noqa: F403
from .errata import *  # noqa: F403
from .family import *  # noqa: F403
from .gellmann import *  # noqa: F403
from .linalg import *  # noqa: F403
from .maps import *  # noqa: F403
from .spa import *  # noqa: F403

_MODULES = (certify, cones, errata, family, gellmann, linalg, maps, spa)
__all__ = sorted(["__version__", *(name for m in _MODULES for name in m.__all__)])
