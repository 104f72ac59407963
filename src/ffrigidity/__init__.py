"""Incidence rigidity over prime fields: exact certificate extraction
for near-extremal point-sphere configurations, with brute-force oracles
sized for desk-scale verification.

The top level re-exports the names the README and the demos use; every
other name is imported from its module."""

from .dichotomy import dichotomy
from .generators import (GeneratorSpec, dot_product_system, generate, pin_cap,
                         pinned_sphere_system)
from .geometry import Sphere, flat_points, make_space, quad_norm
from .pipeline import extract_certificate, retention_check
from .stats import energies, make_config
from .strata import stratify
from .verify import verify_certificate

__version__ = "0.1.0"

__all__ = [
    "GeneratorSpec", "Sphere", "dichotomy", "dot_product_system",
    "energies", "extract_certificate", "flat_points", "generate",
    "make_config", "make_space", "pin_cap", "pinned_sphere_system",
    "quad_norm", "retention_check", "stratify", "verify_certificate",
]
