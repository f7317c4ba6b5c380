"""specialk: a verification workbench for special Kahler geometry.

Builds all pointwise data of an affine special Kahler manifold from a
holomorphic prepotential and certifies the defining equation system
numerically; implements, in exact Gaussian-rational arithmetic, the
correspondences between filtered/Hodge-structured vector spaces,
quaternionic structures and semistable bundles on the projective line.
"""

from .exact import ExactComplex, ExactMatrix, Subspace
from .prepotentials import catalog, parse_entry

__version__ = "0.1.0"

# The exact kernel (specialk._kernel) is pure Python; benchmark records
# carry this name so that runs of different kernels are never compared.
kernel_backend = "python"

__all__ = [
    "__version__",
    "kernel_backend",
    "ExactComplex",
    "ExactMatrix",
    "Subspace",
    "catalog",
    "parse_entry",
]
