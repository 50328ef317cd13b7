"""Record the golden outputs the benchmark checks its ops against.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/record_golden.py

It rewrites bench/golden.json with, for every pool member: the exit code and
SHA-256 of each capacity report (plus its value and bound, for reading), the
SHA-256 of each honest proof, and p and p' of each circuit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads as wl  # noqa: E402
from qromlab import posw  # noqa: E402


def main() -> int:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    golden: dict = {"capacity": {}, "posw": {}, "simulate": {}}
    for name, argv in wl.CAPACITY_POOL.items():
        code, data = wl.run_cli_job(argv, out_dir / "golden-capacity.json")
        report = json.loads(data)
        golden["capacity"][name] = {"exit": code, "sha256": wl.digest(data),
                                    "value": report["value"], "bound": report.get("bound")}
        print(name, golden["capacity"][name], flush=True)
    params = posw.PoswParams(n=wl.POSW_N, w=wl.POSW_W)
    for index in range(wl.POSW_CHIS):
        proof = posw.prove(wl.posw_chi(index), params, wl.POSW_T, posw.CryptoBackend(wl.POSW_W))
        golden["posw"][str(index)] = wl.digest(posw.serialize_proof(proof))
        print("posw", index, flush=True)
    cases = [(wl.circuit_key(shape, v), wl.random_circuit(shape, v))
             for shape in wl.CIRCUIT_SHAPES for v in range(wl.CIRCUIT_VARIANTS)]
    cases += [(f"grover-{size}", wl.grover_circuit(size)) for size in wl.GROVER_SIZES]
    for key, circuit in cases:
        p, p_prime, tv, holds = wl.simulate_circuit(circuit)
        if not holds or tv > wl.TV_TOL:
            raise SystemExit(f"circuit {key} fails its own checks (tv={tv}, gap={holds})")
        golden["simulate"][key] = {"p": p, "p_prime": p_prime}
        print(key, golden["simulate"][key], flush=True)
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
