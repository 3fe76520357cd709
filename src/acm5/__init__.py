"""acm5: exact computations with almost contact metric structures on
5-dimensional left-invariant coframes.

The public surface groups as follows:

* :mod:`acm5.exterior` -- scalars, forms, wedge/star/contraction, d;
* :mod:`acm5.frames` -- connection forms, structure-equation solves,
  canonical algebras and frame-change certificates;
* :mod:`acm5.acms` -- the adapted structure, 2-form types, Nijenhuis
  tensor, structure predicates;
* :mod:`acm5.torsionclass` -- intrinsic torsion and its module
  classification, Cartan decomposition;
* :mod:`acm5.connection` -- the compatible metric connection, curvature,
  holonomy and spinor kernels;
* :mod:`acm5.family` -- the four-parameter example family and its
  verification and group identification;
* :mod:`acm5.cli` -- the ``acm5`` command line tool.
"""

from .acms import (
    ADAPTED,
    AdaptedStructure,
    Tensor3,
    codifferential,
    gamma_form,
    lambda2_project,
    nabla_phi,
    nijenhuis,
    phi_invariance_type,
    predicates,
    theta,
    vartheta,
)
from .connection import (
    CharacteristicConnection,
    CurvatureData,
    SpinorSpace,
    characteristic_connection,
    curvature,
    parallel_spinor_check,
    spinor_kernel,
    spinor_space,
    torsion_type,
)
from .exterior import (
    CoframeData,
    Form,
    Symbol,
    coframe,
    d_squared_zero,
    e,
    ext_d,
    form,
    hodge,
    interior,
    wedge,
)
from .family import (
    FamilyInstance,
    FamilyParams,
    build,
    identify_group,
    verify_identities,
)
from .frames import (
    CanonicalAlgebra,
    ConnectionForms,
    FrameChange,
    canonical_algebra,
    connection_from_structure,
    frame_change_verify,
    verify_first_structure,
)
from .torsionclass import (
    CartanParts,
    ClassReport,
    IntrinsicTorsion,
    cartan_decompose,
    classify,
    intrinsic_torsion,
    w_subspaces,
)

__all__ = [
    "ADAPTED",
    "AdaptedStructure",
    "CanonicalAlgebra",
    "CartanParts",
    "CharacteristicConnection",
    "ClassReport",
    "CoframeData",
    "ConnectionForms",
    "CurvatureData",
    "FamilyInstance",
    "FamilyParams",
    "Form",
    "FrameChange",
    "IntrinsicTorsion",
    "SpinorSpace",
    "Symbol",
    "Tensor3",
    "build",
    "canonical_algebra",
    "cartan_decompose",
    "characteristic_connection",
    "classify",
    "codifferential",
    "coframe",
    "connection_from_structure",
    "curvature",
    "d_squared_zero",
    "e",
    "ext_d",
    "form",
    "frame_change_verify",
    "gamma_form",
    "hodge",
    "identify_group",
    "interior",
    "intrinsic_torsion",
    "lambda2_project",
    "nabla_phi",
    "nijenhuis",
    "parallel_spinor_check",
    "phi_invariance_type",
    "predicates",
    "spinor_kernel",
    "spinor_space",
    "theta",
    "torsion_type",
    "vartheta",
    "verify_first_structure",
    "verify_identities",
    "w_subspaces",
    "wedge",
]

__version__ = "0.1.0"
