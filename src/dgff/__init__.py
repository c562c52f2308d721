"""Discrete Gaussian free fields on weighted graphs, grown layer by layer.

The package builds the per-cluster operator family of a foliated graph
(Laplacian, Green and Poisson kernels, boundary square roots, the growth
operator) and verifies their exact identities. It samples one way, as the
paper does: blocks of white noise on the top cluster, drawn by a seeded
counter-based generator and pushed through the growth operators. The
distributional checks read streamed Gram matrices of that noise, against
an oracle of the same law from the Cholesky factor of the top Laplacian,
grown one layer at a time like the field.

Only the library API is exported here; import the rest from its module.
"""

__version__ = "0.1.0"  # first: verify reads it while the package imports

from .errors import (
    ConvergenceError,
    DGFFError,
    FoliationError,
    GraphError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SupportViolationError,
)
from .foliation import (
    Foliation,
    GrowthCluster,
    bfs_foliate,
    cluster,
    load_foliation,
    parse_foliation,
    validate_foliation,
)
from .graph import Graph, from_edges, load_graph, parse_graph
from .hadamard import OperatorStack
from .sampling import GaussianStream, NoiseGram, dgff_block, noise_gram, wnf_block
from .verify import run_ladder

__all__ = [name for name in dir() if not name.startswith("_")]
