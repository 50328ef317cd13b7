"""Which qromlab functions the traced run wraps, and how the per-layer metrics
are derived from what the wrappers saw.

Layers are the package's modules.  Hot functions are only counted; functions
called a few times per op also record spans.  Counts the program already
exposes (oracle invocations, framed bytes, trace entries) are read from the
public ``backend.trace`` of every backend the batch created.
"""

from __future__ import annotations

import importlib

# (wrapper name, module, attribute, span)
FUNCTIONS = (
    ("properties.local_family", "qromlab.properties", "prmg_local_family", False),
    ("properties.local_family", "qromlab.properties", "collision_local_family", False),
    ("properties.local_family", "qromlab.properties", "chain_local_family", False),
    ("capacity.quantum", "qromlab.capacity", "quantum_capacity_exact", True),
    ("capacity.classical", "qromlab.capacity", "classical_capacity_exact", True),
    ("capacity.operator_norm", "qromlab.capacity", "operator_norm", False),
    ("capacity.bound", "qromlab.capacity", "bound_thm_simple", True),
    ("capacity.bound", "qromlab.capacity", "bound_thm_tricky", True),
    ("capacity.bound", "qromlab.capacity", "bound_thm_general", True),
    ("groups.transition_matrix", "qromlab.groups", "transition_matrix", False),
    ("groups.dual_transform", "qromlab.groups", "dual_transform", False),
    ("oracle.run_adversary", "qromlab.oracle", "run_adversary", True),
    ("oracle.relation_probabilities", "qromlab.oracle", "relation_probabilities", True),
    ("posw.dag.in_neighbors", "qromlab.posw.dag", "in_neighbors", False),
    ("posw.dag.authentication_path", "qromlab.posw.dag", "authentication_path", False),
    ("posw.dag.prover_order", "qromlab.posw.dag", "prover_order", True),
    ("posw.backend.parse_label_payload", "qromlab.posw.backend", "parse_label_payload", False),
    ("posw.protocol.prove", "qromlab.posw.protocol", "prove", True),
    ("posw.protocol.verify", "qromlab.posw.protocol", "verify", True),
    ("posw.protocol.codec", "qromlab.posw.protocol", "serialize_proof", True),
    ("posw.protocol.codec", "qromlab.posw.protocol", "deserialize_proof", True),
    ("posw.extract.extract", "qromlab.posw.extract", "extract", False),
    ("posw.extract.longest_chain", "qromlab.posw.extract", "longest_posw_chain", False),
    ("posw.extract.check_extract_lemma", "qromlab.posw.extract", "check_extract_lemma", False),
    ("posw.extract.db_has_collision", "qromlab.posw.extract", "db_has_collision", False),
    ("cli.main", "qromlab.cli", "main", True),
    ("reporting.render_json", "qromlab.reporting", "render_json", True),
)

# (wrapper name, module, class, method)
METHODS = (
    ("properties.holds", "qromlab.properties", "DatabaseProperty", "holds"),
    ("oracle.database", "qromlab.oracle", "Database", "__init__"),
    ("posw.backend.label_query", "qromlab.posw.backend", "RoBackend", "label_query"),
    ("posw.backend.new", "qromlab.posw.backend", "RoBackend", "__init__"),
)

WINDOW_GENERATOR = ("qromlab.capacity", "window_exteriors")


def _resolve(module: str, attr: str):
    return getattr(importlib.import_module(module), attr, None)


def attach(tracer) -> list:
    """Wrap every traced function; returns the names that could not be found."""
    counts = tracer.counts

    def on_state(state, args, kwargs):
        circuit = args[0]
        coords = sum(len(s.out_regs) for s in circuit.steps if hasattr(s, "out_regs"))
        counts["oracle.peak_amplitudes"] = max(counts["oracle.peak_amplitudes"], state.vec.size)
        counts["oracle.query_amplitudes"] += state.vec.size * coords

    def on_vertex(result, args, kwargs):
        tracer.distinct.add(tuple(args[:2]))

    def on_serialized(blob, args, kwargs):
        counts["posw.protocol.proof_bytes"] += len(blob)

    def on_collision_check(found, args, kwargs):
        counts["posw.extract.skipped_collision"] += bool(found)

    def on_backend(result, args, kwargs):
        tracer.objects.append(args[0])

    def on_window(args):
        # only windows the quantum engine enumerates, not the bound's
        if tracer.current == "capacity.quantum":
            domain, xs = args[0], args[1]
            counts["capacity.windows"] += 1
            counts["capacity.window_blocks"] += domain.spec.order ** len(xs)

    def extract_lemma_name(args, kwargs):
        if kwargs.get("completeness") or (len(args) > 5 and args[5]):
            return "posw.extract.completeness"
        return "posw.extract.check_extract_lemma"

    # keyed by the wrapped target's full name
    after = {"qromlab.oracle.run_adversary": on_state,
             "qromlab.posw.dag.in_neighbors": on_vertex,
             "qromlab.posw.protocol.serialize_proof": on_serialized,
             "qromlab.posw.extract.db_has_collision": on_collision_check,
             "qromlab.posw.backend.RoBackend.__init__": on_backend}
    labels = {"qromlab.posw.extract.check_extract_lemma": extract_lemma_name}
    missing = []
    for name, module, attr, span in FUNCTIONS:
        target = f"{module}.{attr}"
        fn = _resolve(module, attr)
        if fn is None or tracer.patch_function(fn, labels.get(target, name), span=span,
                                               after=after.get(target)) == 0:
            missing.append(target)
    for name, module, cls_name, attr in METHODS:
        target = f"{module}.{cls_name}.{attr}"
        cls = _resolve(module, cls_name)
        if cls is None or attr not in vars(cls):
            missing.append(target)
            continue
        tracer.patch_method(cls, attr, name, after=after.get(target))
    gen = _resolve(*WINDOW_GENERATOR)
    if gen is None or tracer.patch_generator(gen, on_window) == 0:
        missing.append(".".join(WINDOW_GENERATOR))
    return missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, evaluated_ops: int) -> dict:
    """Per-layer metrics for one traced batch, keyed by metric name."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    entries = [e for backend in tracer.objects for e in backend.trace]
    out = {}
    for prefix in ("properties.holds", "properties.local_family", "capacity.operator_norm",
                   "groups.transition_matrix", "oracle.run_adversary", "posw.dag.in_neighbors",
                   "posw.backend.label_query", "posw.backend.parse_label_payload",
                   "posw.extract.extract"):
        out[prefix + ".calls"] = calls[prefix]
        out[prefix + ".self_s"] = self_s[prefix]
    for prefix in ("capacity.quantum", "capacity.classical", "capacity.bound",
                   "oracle.relation_probabilities", "posw.dag.prover_order",
                   "posw.protocol.prove", "posw.protocol.verify", "posw.protocol.codec",
                   "posw.extract.longest_chain", "posw.extract.completeness",
                   "cli.main", "reporting.render_json"):
        out[prefix + ".self_s"] = self_s[prefix]
    out.update({
        "oracle.database.constructed": calls["oracle.database"],
        "oracle.database.self_s": self_s["oracle.database"],
        "capacity.windows": counts["capacity.windows"],
        "capacity.block_eval_ratio": _ratio(calls["capacity.operator_norm"],
                                            counts["capacity.window_blocks"]),
        "groups.dual_transform.calls": calls["groups.dual_transform"],
        "oracle.peak_amplitudes": counts["oracle.peak_amplitudes"],
        "oracle.query_amplitudes": counts["oracle.query_amplitudes"],
        "posw.dag.in_neighbors.calls_per_vertex": _ratio(calls["posw.dag.in_neighbors"],
                                                         len(tracer.distinct)),
        "posw.dag.authentication_path.calls": calls["posw.dag.authentication_path"],
        "posw.backend.invocations": sum(e.invocations for e in entries),
        "posw.backend.bytes_framed": sum(len(e.payload) for e in entries),
        "posw.backend.fresh_ratio": _ratio(sum(1 for e in entries if e.fresh), len(entries)),
        "posw.backend.trace_entries": len(entries),
        "posw.protocol.proof_bytes": counts["posw.protocol.proof_bytes"],
        "posw.extract.extract_calls_per_trial": _ratio(calls["posw.extract.extract"],
                                                       evaluated_ops),
        "posw.extract.skipped_collision": counts["posw.extract.skipped_collision"],
    })
    return out
