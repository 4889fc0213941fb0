"""Pointwise linear-algebra workbench for the Cayley 4-form on R^8."""

from .cayley import (AdmissibilityReport, BestMismatch, CayleyForm, ConventionMap,
                     OrbitResult, admissibility_report, orbit_distance, orbit_search,
                     phi0, phi_octonionic, reconcile, stabilizer_dimension)
from .forms import (KForm, blade, evaluate, flat, hodge, inner, interior, restrict,
                    volume_form, wedge)
from .frame_identities import (FrameInvariants, REFERENCE_MAGNITUDES,
                               extract_coefficients, identity_lhs, identity_residual,
                               invariants)
from .mirror import (DegenerateFormError, MirrorReport, NotCayleyFreeError, SU3Structure,
                     compose_acs, mirror_pair, phi_expansion, su3_from_2frame)
from .planes import (ACS, Frame2, Frame4, Plane4, acs_from_2frame, calibration_value,
                     cayley_plane_from_3frame, comass, contains_cayley,
                     five_plane_comass, found_cayley, is_cayley, is_cayley_free,
                     is_cayley_octonionic, octonionic_residual, random_plane,
                     standard_convention, triple_cross)
from .representations import (SplitBasis, casimir_spectrum, lambda2_split,
                              lambda3_split, lambda4_split, project, split,
                              spin7_lie_algebra)
from .topology import (CohClass4, Hom4Class, Hom12Class, ManifoldInvariants,
                       Spin7Verdict, admits_spin7, betti_g48, cay0_dual,
                       gauss_class, intersection_with_cay0, pairing,
                       two_plane_field_exists)

__version__ = "0.1.0"
