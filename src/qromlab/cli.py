"""Command-line entry point: simulation, capacities, bound tables, the
sequential-work protocol, and the extraction-lemma suites.

Every randomized suite is driven by --seed and produces byte-identical reports
for identical invocations.  Exit status: 0 when all checks hold, 1 when a
scientific check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import capacity as capacity_mod
from . import oracle as oracle_mod
from . import posw as posw_mod
from .groups import GroupSpec
from .posw.backend import LABEL_TAG, encode_vertex, label_bytes
from .properties import parse_property
from .reporting import render_csv, render_json, wilson_interval

BOUND_PROBLEMS = ("preimage", "collision", "gencol", "chain", "posw")


def _write_out(path: str | None, payload, csv_records=None) -> None:
    if path is None:
        return
    p = Path(path)
    if p.suffix == ".csv":
        p.write_text(render_csv(csv_records if csv_records is not None else payload))
    else:
        p.write_text(render_json(payload))


def _domain_bits(text: str) -> tuple:
    """(n, m) of a --domain string n=<input bits>,m=<range bits>."""
    params = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in ("n", "m") or key in params:
            raise ValueError(f"domain key {key!r} is unknown or repeated")
        params[key] = int(value)
    if "n" not in params or "m" not in params:
        raise ValueError("domain must specify n=<input bits>,m=<range bits>")
    return params["n"], params["m"]


def _parse_domain(text: str, kind: str) -> oracle_mod.OracleDomain:
    if kind not in ("bits", "cyclic"):
        raise ValueError(f"domain kind {kind!r} is neither 'bits' nor 'cyclic'")
    n, m = _domain_bits(text)
    spec = GroupSpec.cyclic(1 << m) if kind == "cyclic" else GroupSpec.bits(m)
    return oracle_mod.OracleDomain.of_bit_inputs(n, spec)


# capacity subcommand


def _cmd_capacity(args) -> int:
    n, m = _domain_bits(args.domain)
    restrict = None if args.restrict is None else args.restrict.split(",")
    # refused from the --domain string, before its 2^n inputs are listed; it
    # counts the quantum engine's (M+1)^(|X|-k) exteriors, fewer than the
    # classical engine's (M+1)^|X|, so it refuses no job an engine would run
    capacity_mod.check_enumeration(1 << n if restrict is None else len(restrict), args.k,
                                   1 << m, (1 << n) - args.k)
    domain = _parse_domain(args.domain, args.kind)
    p = parse_property(args.p)
    pprime = parse_property(args.pprime)
    if args.classical:
        report = capacity_mod.classical_capacity_exact(p, pprime, args.k, domain, restrict)
    else:
        report = capacity_mod.quantum_capacity_exact(p, pprime, args.k, domain, restrict)
    if args.bound:
        report.bound = capacity_mod.recognizability_bound(args.bound, pprime, args.k, domain, restrict)
        report.bound_source = args.bound
    record = report.as_record()
    record.update({"p": args.p, "pprime": args.pprime, "k": args.k, "domain": args.domain})
    if args.classical and (pprime.atom or (None,))[0] == "PRMG":
        # the union-bound shorthand k/M is reported next to the exact value,
        # which equals 1 - (1 - 1/M)^k on all-fresh windows
        record["union_bound"] = args.k / domain.spec.order
        record["union_bound_holds"] = report.value <= record["union_bound"] + 1e-12
    print(f"capacity[{args.p} -> {args.pprime}] k={args.k}: {report.value:.10f}"
          + (f"  bound[{args.bound}]={report.bound:.10f}" if args.bound else ""))
    _write_out(args.out, record, [record])
    return 0 if report.holds in (None, True) else 1


# bounds subcommand


def _eval_bound(problem: str, q: int, k: int, m_bits: int, big_t: int, gamma: int,
                w: int, n: int, t: int) -> float:
    m = 1 << m_bits
    if problem == "preimage":
        return bounds_mod.preimage_bound(q, k, m)
    if problem == "collision":
        return bounds_mod.collision_bound(q, k, m)
    if problem == "gencol":
        return bounds_mod.gencol_bound(q, k, m, gamma)
    if problem == "chain":
        return bounds_mod.chain_bound(q, k, m, big_t)
    return bounds_mod.posw_bound(q, k, w, n, t)


def _cmd_bounds(args) -> int:
    records = []
    qs = [args.q]
    if args.sweep:
        key, _, values = args.sweep.partition("=")
        if key.strip() != "q":
            raise ValueError("only q sweeps are supported")
        qs = [int(v) for v in values.split(",")]
    for q in qs:
        value = _eval_bound(args.problem, q, args.k, args.m_bits, args.T, args.gamma,
                            args.w, args.n, args.t)
        rec = {"problem": args.problem, "q": q, "k": args.k, "m_bits": args.m_bits,
               "value": value}
        if args.problem == "gencol":
            rec["gamma"] = args.gamma
        if args.problem == "chain":
            rec["T"] = args.T
        if args.problem == "posw":
            # the assembled non-asymptotic expression is never displayed in one
            # piece in the source analysis; flag its provenance
            rec.update({"w": args.w, "n": args.n, "t": args.t,
                        "formula": "derived-from-proof"})
        records.append(rec)
        print(f"{args.problem} bound at q={q}, k={args.k}: {value:.6g}")
    _write_out(args.out, records, records)
    return 0


# simulate subcommand


def _build_circuit(desc: dict) -> oracle_mod.AdversaryCircuit:
    domain = _parse_domain(desc["domain"], desc.get("kind", "bits"))
    steps = []
    for step in desc["steps"]:
        stype = step["type"]
        if stype == "named":
            steps.append(oracle_mod.NamedGateStep(step["name"], tuple(step["regs"]),
                                                  step.get("param", 0)))
        elif stype == "gate":
            matrix = np.array([[complex(re, im) for re, im in row] for row in step["matrix"]])
            if (matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]
                    or np.abs(matrix.conj().T @ matrix - np.eye(len(matrix))).max() > 1e-9):
                raise ValueError(f"gate matrix of shape {matrix.shape} is not square and unitary")
            steps.append(oracle_mod.GateStep(matrix, tuple(step["regs"])))
        elif stype == "phase_flip":
            flips = {tuple(v) for v in step["values"]}
            steps.append(oracle_mod.PhaseFlipStep(tuple(step["regs"]),
                                                  lambda *vals, flips=flips: vals in flips))
        elif stype == "query":
            steps.append(oracle_mod.QueryStep(
                out_regs=tuple(step["out_regs"]),
                xs=tuple(step["xs"]) if "xs" in step else None,
                in_regs=tuple(step["in_regs"]) if "in_regs" in step else None,
            ))
        else:
            raise ValueError(f"unknown step type {stype!r}")
    return oracle_mod.AdversaryCircuit(
        domain=domain,
        reg_dims=tuple(desc["registers"]),
        steps=tuple(steps),
        output_regs=tuple(desc.get("output_regs", ())),
    )


def _cmd_simulate(args) -> int:
    if args.shots is not None and not 1 <= args.shots <= oracle_mod.SHOTS_BUDGET:
        raise ValueError(f"--shots {args.shots} is not from 1 to {oracle_mod.SHOTS_BUDGET}")
    desc = json.loads(Path(args.circuit).read_text())
    try:  # a file of the wrong shape, such as "regs": 5, is a usage error
        circuit = _build_circuit(desc)
        rel = dict(desc.get("relation", {"kind": "preimage", "target": 0}))
        if rel.get("kind", "preimage") != "preimage":
            raise ValueError("only preimage-style relations are supported in circuit files")
        target = int(rel.get("target", 0))
    except TypeError as exc:
        raise ValueError(f"malformed circuit file: {exc}") from exc
    relation = lambda xs, ys: all(y == target for y in ys)
    claimed = lambda xs: (target,) * len(xs)
    ell = len(circuit.output_regs)
    p, p_prime = oracle_mod.relation_probabilities(circuit, relation, claimed)
    m = circuit.domain.spec.order
    gap_bound = (math.sqrt(p_prime) + math.sqrt(ell / m)) ** 2
    holds = oracle_mod.zhandry_gap_check(p, p_prime, ell, m)
    record = {"p": p, "p_prime": p_prime, "gap_bound": gap_bound, "holds": holds}
    if args.shots is not None:
        sampled = oracle_mod.sampled_relation_probability(
            circuit, relation, claimed, shots=args.shots, seed=args.seed)
        lo, hi = wilson_interval(sampled["successes"], sampled["shots"])
        record.update({"shots": sampled["shots"], "successes": sampled["successes"],
                       "estimate": sampled["estimate"],
                       "wilson_low": lo, "wilson_high": hi})
    print(f"p={p:.10f} p'={p_prime:.10f} gap bound={gap_bound:.10f} holds={holds}")
    _write_out(args.out, record, [record])
    return 0 if holds else 1


# posw subcommands


def _posw_backend(kind: str, w: int, seed: int):
    if kind == "table":
        return posw_mod.TableBackend(w, seed=seed)
    # fixed key: the hash oracle is public, so prove and verify agree across
    # processes regardless of --seed
    return posw_mod.CryptoBackend(w)


def _report_oracle_work(command: str, backend) -> None:
    """One stderr line: the oracle invocations of the run and the bytes it
    framed, both read from the backend's query trace."""
    _, invocations, framed = backend.oracle_work()
    print(f"posw {command}: {invocations} oracle invocations, {framed} bytes framed",
          file=sys.stderr)


def _cmd_posw_prove(args) -> int:
    if not 1 <= args.t <= posw_mod.MAX_CHALLENGES:
        # refused before the labeling: the proof header holds t in 16 bits
        raise ValueError(f"--t {args.t} is outside 1..{posw_mod.MAX_CHALLENGES}, "
                         "the challenge counts a proof file can hold")
    params = posw_mod.PoswParams(n=args.n, w=args.w)
    # the prover labels, and keeps, every vertex of the DAG
    if params.vertex_count > capacity_mod.ENUMERATION_BUDGET:
        raise ValueError(f"--n {params.n} labels {params.vertex_count} vertices, "
                         f"more than the enumeration budget of {capacity_mod.ENUMERATION_BUDGET}")
    chi = args.seed % (1 << args.w) if args.chi is None else int(args.chi, 16)
    backend = _posw_backend(args.backend, args.w, args.seed)
    proof = posw_mod.prove(chi, params, args.t, backend)
    blob = posw_mod.serialize_proof(proof)
    Path(args.out).write_bytes(blob)
    labels = backend.oracle_work()[0]
    print(f"proof written: {len(blob)} bytes, chi={chi:0{(args.w + 3) // 4}x}, "
          f"{labels} label queries + 1 challenge query")
    _report_oracle_work("prove", backend)
    return 0


def _cmd_posw_verify(args) -> int:
    if args.backend == "table":
        print("table-backend proofs are only verifiable in-process; use the crypto backend",
              file=sys.stderr)
        return 2
    data = Path(args.infile).read_bytes()
    proof = posw_mod.deserialize_proof(data)
    params = posw_mod.PoswParams(n=proof.n, w=proof.w)
    backend = _posw_backend("crypto", proof.w, args.seed)
    result = posw_mod.verify(int(args.chi, 16), params, proof.t, proof, backend)
    print("accept" if result.accepted else f"reject ({result.reason})")
    _report_oracle_work("verify", backend)
    return 0 if result.accepted else 1


@functools.lru_cache(maxsize=1)
def _label_heads(n: int, w: int, chi: int) -> tuple:
    """(head, arity) of every vertex, in vertex order: head is the label frame
    up to the in-neighbour labels, LABEL_TAG + label_bytes(chi, w) +
    encode_vertex(v), and arity the number of labels that follow it.  A lemma
    run draws every log for one (n, w, chi), so one table is kept."""
    tag = LABEL_TAG + label_bytes(chi, w)
    return tuple((tag + encode_vertex(v), len(posw_mod.dag.in_neighbors(v, n)))
                 for v in posw_mod.dag.all_vertices(n))


def _random_db(rng, n: int, w: int, chi: int, entries: int) -> dict:
    """A random query log over honest-shaped label inputs.  Each entry draws
    a vertex, its in-neighbour labels and its value, in that order, and frames
    as label_payload does: the vertex's head and each label's w-bit bytes."""
    heads = _label_heads(n, w, chi)
    nbytes = (w + 7) // 8
    db = {}
    for _ in range(entries):
        head, arity = heads[rng.randrange(len(heads))]
        body = b"".join([rng.getrandbits(w).to_bytes(nbytes, "big") for _ in range(arity)])
        db[head + body] = rng.getrandbits(w)
    return db


def _cmd_lemmas(args) -> int:
    import random

    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    params = posw_mod.PoswParams(n=args.n, w=args.w)
    n, w, chi = params.n, params.w, 0x5A
    # the largest log drawn holds 3 * 2^n - 1 entries
    if 3 * (1 << n) - 1 > capacity_mod.ENUMERATION_BUDGET:
        raise ValueError(f"--n {n} draws query logs larger than the enumeration budget")
    rng = random.Random(args.seed)
    failures = skipped = 0
    records = []
    for _ in range(args.trials):
        db = _random_db(rng, n, w, chi, entries=rng.randrange(1, 3 * (1 << n)))
        if args.suite == "leaves":
            ok = posw_mod.check_leaves_lemma(db, n, w, chi, extra_phis=(rng.getrandbits(w),))
        elif args.suite == "newpath":
            if posw_mod.db_has_collision(db, w):
                skipped += 1
                continue
            leaf = "0" * n
            arity = len(posw_mod.dag.in_neighbors(leaf, n))
            xs = [posw_mod.label_payload(chi, leaf, tuple(rng.getrandbits(w) for _ in range(arity)), w)]
            us = [rng.getrandbits(w)]
            ok = posw_mod.check_newpath_lemma(db, xs, us, rng.getrandbits(w), chi, n, w)
        else:  # extraction postconditions on collision-free databases
            if posw_mod.db_has_collision(db, w):
                skipped += 1
                continue
            ok = posw_mod.check_extract_lemma(db, n, w, chi, rng.getrandbits(w))
        failures += 0 if ok else 1
    lo, hi = wilson_interval(failures, args.trials)
    record = {"suite": args.suite, "trials": args.trials, "failures": failures,
              "wilson_low": lo, "wilson_high": hi}
    records.append(record)
    print(f"lemma suite {args.suite}: {failures} failures in {args.trials} trials")
    # the report keeps --trials as its count; the honest split goes to stderr
    print(f"lemma suite {args.suite}: {args.trials - skipped} evaluated, "
          f"{skipped} skipped (query-log collision)", file=sys.stderr)
    _write_out(args.out, records, records)
    return 0 if failures == 0 else 1


def _cmd_report(args) -> int:
    payload = json.loads(Path(args.infile).read_text())
    records = payload if isinstance(payload, list) else [payload]
    if not all(isinstance(r, dict) for r in records):
        raise ValueError("every report record must be a JSON object")
    Path(args.out).write_text(render_csv(records))
    print(f"wrote {len(records)} records to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and returned to every
    later one, so callers must not change it; parse_args keeps no state in it
    between calls."""
    parser = argparse.ArgumentParser(prog="qromlab")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a circuit file and the gap check")
    sim.add_argument("--circuit", required=True)
    sim.add_argument("--shots", type=int,
                     help=f"also estimate p by per-shot sampling, 1 to {oracle_mod.SHOTS_BUDGET} shots")
    sim.add_argument("--out")
    sim.set_defaults(func=_cmd_simulate)

    cap = sub.add_parser("capacity", help="exact transition capacities")
    cap.add_argument("--p", required=True)
    cap.add_argument("--pprime", required=True)
    cap.add_argument("--k", type=int, required=True)
    cap.add_argument("--domain", required=True, help="n=<input bits>,m=<range bits>")
    cap.add_argument("--kind", choices=("bits", "cyclic"), default="bits")
    cap.add_argument("--restrict")
    cap.add_argument("--classical", action="store_true")
    cap.add_argument("--bound", choices=capacity_mod.BOUND_THEOREMS)
    cap.add_argument("--out")
    cap.set_defaults(func=_cmd_capacity)

    bnd = sub.add_parser("bounds", help="closed-form bound evaluators")
    bnd.add_argument("--problem", choices=BOUND_PROBLEMS, required=True)
    bnd.add_argument("--q", type=int, required=True)
    bnd.add_argument("--k", type=int, default=1)
    bnd.add_argument("--m-bits", type=int, default=20)
    bnd.add_argument("--T", type=int, default=1)
    bnd.add_argument("--gamma", type=int, default=1)
    bnd.add_argument("--w", type=int, default=256)
    bnd.add_argument("--n", type=int, default=20)
    bnd.add_argument("--t", type=int, default=10)
    bnd.add_argument("--sweep")
    bnd.add_argument("--out")
    bnd.set_defaults(func=_cmd_bounds)

    posw = sub.add_parser("posw", help="sequential-work protocol")
    posw_sub = posw.add_subparsers(dest="posw_command", required=True)
    pp = posw_sub.add_parser("prove")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--t", type=int, required=True)
    pp.add_argument("--w", type=int, required=True)
    pp.add_argument("--chi", help="hex statement; defaults to one derived from --seed")
    pp.add_argument("--backend", choices=("table", "crypto"), default="crypto")
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=_cmd_posw_prove)
    pv = posw_sub.add_parser("verify")
    pv.add_argument("--in", dest="infile", required=True)
    pv.add_argument("--chi", required=True)
    pv.add_argument("--backend", choices=("table", "crypto"), default="crypto")
    pv.set_defaults(func=_cmd_posw_verify)

    lem = sub.add_parser("lemmas", help="extraction lemma suites")
    lem.add_argument("--suite", choices=("extract", "leaves", "newpath"), required=True)
    lem.add_argument("--trials", type=int, default=1000)
    lem.add_argument("--n", type=int, default=2)
    lem.add_argument("--w", type=int, default=8)
    lem.add_argument("--out")
    lem.set_defaults(func=_cmd_lemmas)

    rep = sub.add_parser("report", help="render a JSON report as CSV")
    rep.add_argument("--in", dest="infile", required=True)
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, oracle_mod.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
