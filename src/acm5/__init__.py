"""acm5: exact computations with almost contact metric structures on
5-dimensional left-invariant coframes.

The public surface groups as follows:

* :mod:`acm5.exterior` -- scalars, forms, wedge/star, d;
* :mod:`acm5.frames` -- connection forms, structure-equation solves,
  canonical algebras and frame-change certificates;
* :mod:`acm5.acms` -- the adapted structure, 2-form types, Nijenhuis
  tensor, structure predicates;
* :mod:`acm5.torsionclass` -- intrinsic torsion and its module
  classification, Cartan decomposition;
* :mod:`acm5.connection` -- the compatible metric connection, curvature,
  holonomy and spinor kernels;
* :mod:`acm5.groups` -- the four-parameter example family, its coframes
  and the certificates of its groups;
* :mod:`acm5.family` -- the identity replay of the family;
* :mod:`acm5.cli` -- the ``acm5`` command line tool.

``import acm5`` loads no layer.  ``_SURFACE`` names each public name once,
under its home module; the first read of a name imports that module alone
and binds the name (PEP 562).
"""

_SURFACE = {
    "acms": ("Tensor3", "gamma_form", "nabla_phi", "nijenhuis", "predicates", "theta",
             "vartheta"),
    "connection": ("CharacteristicConnection", "CurvatureData", "SpinorSpace",
                   "characteristic_connection", "curvature", "parallel_spinor_check",
                   "spinor_kernel", "spinor_space", "torsion_type"),
    "exterior": ("CoframeData", "Form", "Symbol", "coframe", "d_squared_zero", "e", "ext_d",
                 "form", "hodge", "wedge"),
    "family": ("verify_identities",),
    "frames": ("CanonicalAlgebra", "ConnectionForms", "FrameChange", "canonical_algebra",
               "connection_from_structure", "frame_change_verify", "verify_first_structure"),
    "groups": ("FamilyInstance", "FamilyParams", "build", "identify_group"),
    "torsionclass": ("CartanParts", "ClassReport", "IntrinsicTorsion", "cartan_decompose",
                     "classify", "intrinsic_torsion", "w_subspaces"),
}

__all__ = sorted(name for names in _SURFACE.values() for name in names)

__version__ = "0.1.0"


def __getattr__(name):
    """PEP 562: import the home module of a public name on its first read and bind the name."""
    from importlib import import_module

    for module, names in _SURFACE.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
