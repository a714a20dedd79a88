"""Tensor algebra and Laplacian-flow simulation for G2 structures on flat 7-tori."""

__version__ = "0.1.0"

from .lattice import (FormField, Lattice, exterior_derivative, interior_product,
                      partial_derivative, wedge)
from .g2algebra import (G2Structure, Metric, NotPositive, PHI0, PSI0, TorsionData,
                        extract_torsion_forms, flat_reference, hodge_star, i_phi,
                        is_positive, j_phi, metric_from_phi, project_2form,
                        project_3form)

__all__ = [
    "FormField", "Lattice", "exterior_derivative",
    "interior_product", "partial_derivative", "wedge",
    "G2Structure", "Metric", "NotPositive", "PHI0", "PSI0", "TorsionData",
    "extract_torsion_forms", "flat_reference", "hodge_star", "i_phi",
    "is_positive", "j_phi", "metric_from_phi", "project_2form", "project_3form",
]
