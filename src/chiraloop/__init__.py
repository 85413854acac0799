"""Rotational structure and single-loop cyclic drive configurations for
chiral asymmetric-top molecules.

Subpackages by task: `wigner` (exact 3j symbols), `rotor` (asymmetric-top
eigenproblem), `dipole` (reduced matrix elements, Rabi frequencies),
`fields` (spherical polarization basis), `loop` (closure conditions and
loop synthesis), `dynamics` (multi-sublevel propagation), `cli` (command
line front end).
"""

from . import dipole, dynamics, fields, loop, rotor, wigner

__all__ = ["wigner", "rotor", "dipole", "fields", "loop", "dynamics", "cli"]

__version__ = "0.1.0"
