"""Exact tools for metric spaces whose spheres have exactly two points.

Layers, bottom up: surd-exact values (``values``), half-group and
divisibility calculus on distance monoids (``monoid_algebra``), graph
pseudometrics with hat/check bounds and generic completion
(``graph_metric``), sphere-based geometry over pluggable oracles
(``banakh_space``), the symbolic free-group model (``banakh_group``), the
staged fragment builder with certificates (``space_builder``), and JSON
round-trips plus a CLI (``serialize``, ``cli``).

Importing the package loads no layer.  A public name or a submodule is
imported on first access (PEP 562 module ``__getattr__``), so a command
line run pays only for the layers its command reads; ``from banakh
import *`` loads every layer, as before.  No layer imports
``dataclasses``: its ``inspect`` chain costs a cold process about 6 ms, so
the result records are ``typing.NamedTuple`` classes.
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

# each layer and its public names, in the order of __all__
_LAYERS = {
    "values": ("SurdValue", "ZERO", "rat", "format_rat", "rational_between"),
    "monoid_algebra": (
        "MonoidDesc", "DzikResult", "dzik_reduce", "delta_p", "div_p",
        "is_half_group", "is_p_divisible_in", "is_floppy", "ddot_set",
        "CLOSURES"),
    "graph_metric": (
        "GraphMetric", "MuGraph", "ScaledMu", "build_mu", "hat", "check",
        "is_floppy_graph", "validate_pseudometric", "extend_to_full",
        "ExtensionPolicy", "ExtensionResult", "ExtensionExhausted",
        "floppy_union", "UnionReport", "ConditionViolation"),
    "banakh_space": (
        "MetricFragment", "verify_fragment", "FragmentReport",
        "real_line_banakh_check", "SphereOracle", "ZLineOracle",
        "FragmentOracle", "Orientation", "gps_locate", "discrete_line",
        "orientation", "segment_construct", "split_segment",
        "directed_point", "zr_sphere_map", "hypersphere_map",
        "HypersphereReport", "embed_in_real_line", "EmbedResult",
        "SphereDeficiency", "NoSuchRadius", "AmbiguityViolation",
        "BanakhLawViolation"),
    "banakh_group": (
        "GroupElement", "zero", "basis", "add", "neg", "scale", "norm_equal",
        "normsq", "DistToken", "dist_token", "sphere", "ratio_in_Q",
        "between", "is_p_divisible_elem", "numeric_norm",
        "h_norm_certificate", "solve_norm_equation", "NormEquationResult",
        "GroupOracle"),
    "space_builder": (
        "RadiusClass", "BuildSpec", "Certificate", "build",
        "verify_certificate", "SpecRejected", "BuildExhausted"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}
_SUBMODULES = (*_LAYERS, "serialize", "cli")

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        # untraced: in process every submodule is imported; a fresh one runs it
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
