"""Entanglement transfer from two-mode squeezed light to a pair of qubits.

Two cavities receive the halves of a two-mode squeezed vacuum through lossy
beam splitters; a two-level atom crosses each cavity and exchanges energy
with it resonantly.  The package computes the atoms' joint state and its
partial-transpose negativity two independent ways -- closed-form
photon-number sums and brute-force dense evolution -- so every number
carries its own cross-check.
"""

import os

# BLAS on the calling thread unless the caller chose: a second OpenBLAS thread
# mostly spins idle.  Moot once numpy is loaded; child processes inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import tensorops, fieldprep, jcdynamics, analytic, entanglement, sweep
from .tensorops import *
from .fieldprep import *
from .jcdynamics import *
from .analytic import *
from .entanglement import *
from .sweep import *

__version__ = "0.1.0"

__all__ = (tensorops.__all__ + fieldprep.__all__ + jcdynamics.__all__
           + analytic.__all__ + entanglement.__all__ + sweep.__all__)
