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

from .tensorops import (
    TruncatedFockSpace,
    StateVector,
    DensityOperator,
    kron,
    partial_trace,
)
from .fieldprep import (
    SqueezeParam,
    CouplingParam,
    TruncationPolicy,
    CavityFieldState,
    squeezed_state,
    binom_row,
    inject,
    inject_oracle,
)
from .jcdynamics import (
    AtomState,
    EvolvedState,
    jc_unitary,
    jc_unitary_oracle,
    evolve,
    reduce_atoms,
    reduce_atoms_direct,
    reduce_atoms_series,
    total_excitation,
)
from .analytic import (
    AtomXState,
    WeightTable,
    xstate_series,
    negativity_closed_form,
)
from .entanglement import EntanglementReport, negativity_general
from .sweep import (
    ConfigError,
    VerificationError,
    SweepConfig,
    SweepRow,
    run_sweep,
    verify,
    preset_config,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "TruncatedFockSpace",
    "StateVector",
    "DensityOperator",
    "kron",
    "partial_trace",
    "SqueezeParam",
    "CouplingParam",
    "TruncationPolicy",
    "CavityFieldState",
    "squeezed_state",
    "binom_row",
    "inject",
    "inject_oracle",
    "AtomState",
    "EvolvedState",
    "jc_unitary",
    "jc_unitary_oracle",
    "evolve",
    "reduce_atoms",
    "reduce_atoms_direct",
    "reduce_atoms_series",
    "total_excitation",
    "AtomXState",
    "WeightTable",
    "xstate_series",
    "negativity_closed_form",
    "EntanglementReport",
    "negativity_general",
    "ConfigError",
    "VerificationError",
    "SweepConfig",
    "SweepRow",
    "run_sweep",
    "verify",
    "preset_config",
    "write_csv",
]
