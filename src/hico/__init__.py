"""Video-token compression toolkit.

Submodules: sampler (duration-based frame sampling), compressor (clip
segmentation + connectors), dropout (progressive visual dropout + toy
decoder), costmodel (FLOPs/memory estimates), niah (haystack benchmark
generator/oracle/scorer), io (embedding files, synthetic grids, the output
writer), cli (the command line and its settings).
"""

from . import compressor, costmodel, dropout, io, niah, sampler
from .errors import CapacityError, ConfigError, DomainError

__version__ = "0.1.0"

__all__ = [
    "compressor",
    "costmodel",
    "dropout",
    "io",
    "niah",
    "sampler",
    "DomainError",
    "ConfigError",
    "CapacityError",
    "__version__",
]
