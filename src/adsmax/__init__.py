"""Maximal spacelike surfaces in anti-de Sitter 3-space.

Modules follow the pipeline: `lorentz` (exact geometry kernel),
`boundary` (circle homeomorphisms and their lifted graphs), `hull`
(convex hulls and the width statistic), `mesh`/`surface` (discrete
spacelike graphs and curvature), `solver` (mean curvature flow and
damped Newton), with tolerances in `constants`.
"""

from . import constants

__version__ = "0.1.0"

__all__ = ["constants", "__version__"]
