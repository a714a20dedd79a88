"""Tensor algebra and Laplacian-flow simulation for G2 structures on flat 7-tori."""

__version__ = "0.1.0"

from .lattice import FormField, Lattice, exterior_derivative
from .g2algebra import (G2Structure, Metric, NotPositive, PHI0, PSI0, flat_reference,
                        hodge_star, i_phi, is_positive, metric_from_phi)

__all__ = [
    "FormField", "Lattice", "exterior_derivative",
    "G2Structure", "Metric", "NotPositive", "PHI0", "PSI0", "flat_reference",
    "hodge_star", "i_phi", "is_positive", "metric_from_phi",
]
