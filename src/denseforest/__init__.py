"""Explicit low-density point sets and uniformity diagnostics.

The package builds point sets in the plane and in higher dimensions —
sheared-lattice forests, sequence-based forests, finite unions of grids,
cut-and-project sets, and a digit-reversal construction — and measures how
well they block lines and fill boxes: density, dispersion, discrepancy,
super-uniform dispersion, visibility, empty tubes, vacant strips, and
epsilon-net quality.
"""

from .errors import ResourceLimitError
from .geometry import AlignedBox, Point, Segment, Window, sample_segments
from .generators import (CutAndProject, D2, GeneralizedPeres, Grid, GridUnion,
                         PeresForest, SequenceSpec, ThreeGrid, concat_linear_sequence,
                         default_cut_and_project, enumerate_points, golden_sequence,
                         integer_lattice, load_spec, quadratic_sequence, read_points_csv,
                         seq_eval, spec_to_json, tsokanos_sequence, write_points_csv)
from .analysis import (DispersionReport, StripReport, SUDEstimate, VisibilityReport,
                       check_visibility, density_profile, discrepancy, dispersion,
                       estimate_visibility, find_empty_tube, heavy_box, min_gap,
                       sud_estimate, udt_check, vacant_strip, visibility_from_segments)
from .epsnet import (Net, NetReport, d2_aligned_net, hw_net,
                     sample_aligned_box, sample_rotated_box,
                     slab_lower_bound, verify_net)

__version__ = "0.1.0"

__all__ = [
    "AlignedBox", "CutAndProject", "D2", "DispersionReport",
    "GeneralizedPeres", "Grid", "GridUnion", "Net", "NetReport",
    "PeresForest", "Point", "ResourceLimitError", "SUDEstimate", "Segment",
    "SequenceSpec", "StripReport", "ThreeGrid", "VisibilityReport", "Window",
    "check_visibility", "concat_linear_sequence", "d2_aligned_net",
    "default_cut_and_project", "density_profile", "discrepancy", "dispersion",
    "enumerate_points", "estimate_visibility", "find_empty_tube",
    "golden_sequence", "heavy_box", "hw_net", "integer_lattice", "load_spec",
    "min_gap", "quadratic_sequence", "read_points_csv", "sample_aligned_box",
    "sample_rotated_box", "sample_segments", "seq_eval", "slab_lower_bound",
    "spec_to_json", "sud_estimate", "tsokanos_sequence", "udt_check",
    "vacant_strip", "verify_net", "visibility_from_segments", "write_points_csv",
]
