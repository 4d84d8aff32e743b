"""Affinity dimension of self-affine sets, deterministic and graph-driven.

The pipeline, bottom to top:

- :mod:`affdim.exterior_algebra` — blades, wedge products and compound
  matrices in small ambient dimension;
- :mod:`affdim.singular_values` — singular spectra and the interpolated
  singular value function ``phi``;
- :mod:`affdim.fs_checker` — spanning conditions C(m) / C(s), the two-map
  certificate and empirical fullness constants;
- :mod:`affdim.code_tree` — affine families, graph-driven code trees, neck
  levels and streamed partition sums;
- :mod:`affdim.dimension` — pressure curves, the pressure zero s0 and
  box-counting cross-checks;
- :mod:`affdim.io_cli` — the JSON system format and the ``affdim`` CLI.
"""

import sys as _sys

from .code_tree import *
from .dimension import *
from .exterior_algebra import *
from .fs_checker import *
from .io_cli import *
from .singular_values import *  # last: ``affdim.singular_values`` is then the function

__version__ = "0.1.0"

# each public name is declared once, in its module's ``__all__``
__all__ = [
    name
    for module in ("code_tree", "dimension", "exterior_algebra", "fs_checker", "io_cli",
                   "singular_values")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
]
