"""Which library attributes the traced run wraps, and the per-layer metrics.

Layers are the modules of ``banakh``.  Hot value-level methods are only
counted (a span per surd comparison would cost more than the comparison);
every other wrapped callable records a span, so its time is known both
inclusive and as self time.  Counted calls have no span, so their time is
part of the self time of the span that called them: ``graph_metric.self_s``
and ``space_builder.build_self_s`` include the ``values`` arithmetic done
under them (about 99% of a build), not only the layer's own loops.

A per-layer time is reported only where every workload calls the layer,
because a time that is zero on some workload carries no information there;
the other layers are reported as call counts.
"""

from __future__ import annotations

from tracing import Tracer

# (module, attribute, span name); "Class.method" wraps a method
SPANS = [
    ("graph_metric", "extend_to_full", "graph_metric.extend_to_full"),
    ("graph_metric", "validate_pseudometric",
     "graph_metric.validate_pseudometric"),
    ("graph_metric", "floppy_union", "graph_metric.floppy_union"),
    ("space_builder", "build", "space_builder.build"),
    ("space_builder", "verify_certificate", "space_builder.verify_certificate"),
    ("banakh_space", "verify_fragment", "banakh_space.verify_fragment"),
    ("banakh_space", "FragmentOracle.sphere", "banakh_space.sphere"),
    ("banakh_space", "gps_locate", "banakh_space.gps_locate"),
    ("banakh_space", "discrete_line", "banakh_space.discrete_line"),
    ("banakh_space", "orientation", "banakh_space.orientation"),
    ("banakh_space", "segment_construct", "banakh_space.segment_construct"),
    ("banakh_space", "hypersphere_map", "banakh_space.hypersphere_map"),
    ("banakh_group", "dist_token", "banakh_group.dist_token"),
    ("banakh_group", "sphere", "banakh_group.sphere"),
    ("monoid_algebra", "is_half_group", "monoid_algebra.verdict"),
    ("monoid_algebra", "is_p_divisible_in", "monoid_algebra.verdict"),
    ("monoid_algebra", "is_floppy", "monoid_algebra.verdict"),
    ("monoid_algebra", "ddot_set", "monoid_algebra.ddot_set"),
    ("monoid_algebra", "dzik_reduce", "monoid_algebra.dzik_reduce"),
    ("serialize", "dumps", "serialize.dumps"),
    ("serialize", "fragment_from_json", "serialize.from_json"),
    ("serialize", "certificate_from_json", "serialize.from_json"),
    ("serialize", "graph_from_json", "serialize.from_json"),
    ("serialize", "buildspec_from_json", "serialize.from_json"),
    ("serialize", "element_from_json", "serialize.from_json"),
    ("cli", "main", "cli.main"),
]

# (module, "Class.method", counter name): counted, no span
COUNTED = [
    ("values", "SurdValue.__lt__", "values.lt_calls"),
    ("values", "SurdValue.__add__", "values.add_calls"),
    ("values", "SurdValue.__sub__", "values.sub_calls"),
    ("values", "SurdValue.brackets", "values.brackets_calls"),
    ("graph_metric", "GraphMetric.distances_from",
     "graph_metric.distances_from_calls"),
    ("banakh_group", "GroupElement.__init__", "banakh_group.element_inits"),
    ("monoid_algebra", "MonoidDesc.member", "monoid_algebra.member_calls"),
]


def _after_extend(tracer, result):
    tracer.count("graph_metric.assignments", len(result.assignments))
    tracer.count("graph_metric.backtracks", result.backtracks)


def _after_build(tracer, result):
    fragment, cert = result
    tracer.count("space_builder.points", len(fragment.points))
    tracer.count("space_builder.generic_values", len(cert.generic_values))


def _after_dumps(tracer, text):
    tracer.count("serialize.bytes", len(text))


ON_RETURN = {
    "graph_metric.extend_to_full": _after_extend,
    "space_builder.build": _after_build,
    "serialize.dumps": _after_dumps,
}


def install(tracer: Tracer, lib) -> None:
    """Wrap every planned attribute of the loaded library."""
    modules = lib.modules()
    for module_name, attr, name in SPANS:
        _wrap(tracer, modules, getattr(lib, module_name), attr, name, True,
              ON_RETURN.get(name))
    for module_name, attr, name in COUNTED:
        _wrap(tracer, modules, getattr(lib, module_name), attr, name, False,
              None)


def _wrap(tracer, modules, module, attr, name, span, on_return):
    if "." in attr:
        cls_name, method = attr.split(".")
        tracer.wrap_method(getattr(module, cls_name), method, name,
                           span=span, on_return=on_return)
    else:
        tracer.wrap_function(modules, module, attr, name, span=span,
                             on_return=on_return)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values (without the start-up probes and the overhead)."""
    c = tracer.counts
    incl = tracer.inclusive_time()
    own = tracer.self_time()

    def layer_self(layer):
        return sum(t for name, t in own.items()
                   if name.startswith(layer + "."))

    return {
        "values.lt_calls": c["values.lt_calls"],
        "values.add_calls": c["values.add_calls"],
        "values.sub_calls": c["values.sub_calls"],
        "values.brackets_calls": c["values.brackets_calls"],
        "graph_metric.extend_to_full_s": incl["graph_metric.extend_to_full"],
        "graph_metric.extend_to_full_calls":
            c["graph_metric.extend_to_full_calls"],
        "graph_metric.assignments": c["graph_metric.assignments"],
        "graph_metric.backtracks": c["graph_metric.backtracks"],
        "graph_metric.distances_from_calls":
            c["graph_metric.distances_from_calls"],
        "graph_metric.validate_pseudometric_s":
            incl["graph_metric.validate_pseudometric"],
        "graph_metric.floppy_union_calls":
            c["graph_metric.floppy_union_calls"],
        "graph_metric.self_s": layer_self("graph_metric"),
        "space_builder.build_self_s": own["space_builder.build"],
        "space_builder.verify_certificate_s":
            incl["space_builder.verify_certificate"],
        "space_builder.points": c["space_builder.points"],
        "space_builder.generic_values": c["space_builder.generic_values"],
        "banakh_space.verify_fragment_s": incl["banakh_space.verify_fragment"],
        "banakh_space.self_s": layer_self("banakh_space"),
        "banakh_space.sphere_calls": c["banakh_space.sphere_calls"],
        "banakh_space.gps_locate_calls": c["banakh_space.gps_locate_calls"],
        "banakh_space.discrete_line_calls":
            c["banakh_space.discrete_line_calls"],
        "banakh_space.orientation_calls": c["banakh_space.orientation_calls"],
        "banakh_space.hypersphere_map_calls":
            c["banakh_space.hypersphere_map_calls"],
        "banakh_space.null_outcomes": c["banakh_space.null_outcomes"],
        "banakh_group.element_inits": c["banakh_group.element_inits"],
        "banakh_group.dist_token_calls": c["banakh_group.dist_token_calls"],
        "banakh_group.sphere_calls": c["banakh_group.sphere_calls"],
        "monoid_algebra.verdict_s": incl["monoid_algebra.verdict"],
        "monoid_algebra.self_s": layer_self("monoid_algebra"),
        "monoid_algebra.member_calls": c["monoid_algebra.member_calls"],
        "monoid_algebra.ddot_set_calls": c["monoid_algebra.ddot_set_calls"],
        "monoid_algebra.dzik_reduce_calls":
            c["monoid_algebra.dzik_reduce_calls"],
        "serialize.dumps_s": incl["serialize.dumps"],
        "serialize.bytes": c["serialize.bytes"],
        "serialize.from_json_calls": c["serialize.from_json_calls"],
        "cli.main_calls": c["cli.main_calls"],
        "trace.spans": len(tracer.spans),
    }
