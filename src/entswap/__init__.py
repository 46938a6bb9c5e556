"""Fidelity, efficiency, and rate analysis for heralded entanglement swapping.

Closed-form photon-number statistics and fidelities for swapping heralded by
linear-optical and by sum-frequency-generation Bell state measurements, the
device physics that sets the up-conversion probability, exact truncated
Fock-space checks, and independent oracles that verify every closed form.
"""

__version__ = "0.1.0"
