"""Embeddings between sequence-modelled smoothness spaces: compactness,
nuclearity, entropy asymptotics, and a numeric finite-section laboratory.

The package exports exactly the names in the __all__ lists of seqdsl,
seqcore, embanalyzer and seqspacelab, so a name is added or removed in one
place: its module's list."""

from . import embanalyzer, seqcore, seqdsl, seqspacelab
from .embanalyzer import *  # noqa: F401,F403
from .seqcore import *  # noqa: F401,F403
from .seqdsl import *  # noqa: F401,F403
from .seqspacelab import *  # noqa: F401,F403

__all__ = [*seqdsl.__all__, *seqcore.__all__, *embanalyzer.__all__,
           *seqspacelab.__all__]

__version__ = "0.1.0"
