"""Command-line dispatch, reports, and determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qromlab import bounds, properties
from qromlab import cli as cli_mod
from qromlab.cli import main
from qromlab.groups import GroupSpec
from qromlab.oracle import (SHOTS_BUDGET, AdversaryCircuit, GateStep, OracleDomain, PhaseFlipStep,
                            QueryStep, relation_probabilities)
from qromlab.posw import dag, label_payload
from qromlab.properties import cl
from qromlab.reporting import normalize_float, render_csv, render_json, wilson_interval
from reference import per_pair_bound

GOLDEN_CAPACITY_JSON = """\
{
  "kind": "quantum",
  "value": 0.866025403784,
  "witness": {
    "xs": [
      "0"
    ],
    "yhats": [
      1
    ],
    "database": [
      [
        "1",
        1
      ]
    ]
  },
  "bound": 2.2360679775,
  "bound_clamped": 1.0,
  "bound_source": "thm5.7",
  "holds": true,
  "p": "!PRMG",
  "pprime": "PRMG",
  "k": 1,
  "domain": "n=1,m=1"
}
"""


def bench_golden(job: str) -> dict:
    """The benchmark's golden record of a capacity job."""
    path = Path(__file__).resolve().parents[1] / "bench" / "golden.json"
    return json.loads(path.read_text())["capacity"][job]


class TestBoundsCommand:
    def test_preimage_reference(self, capsys):
        assert main(["bounds", "--problem", "preimage", "--q", "16", "--k", "4",
                     "--m-bits", "20"]) == 0
        out = capsys.readouterr().out
        value = float(out.split(":")[-1])
        assert value == pytest.approx(0.009966, abs=1e-5)

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["bounds", "--problem", "collision", "--q", "1", "--sweep",
                     "q=1,2,4", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows

    @pytest.mark.parametrize("problem,flag,value,formula", [
        ("gencol", "--gamma", 3, bounds.gencol_bound), ("chain", "--T", 2, bounds.chain_bound)])
    def test_fan_in_parameter_is_reported(self, tmp_path, problem, flag, value, formula):
        out = tmp_path / "table.json"
        assert main(["bounds", "--problem", problem, "--q", "2", "--k", "2", flag, str(value),
                     "--out", str(out)]) == 0
        (record,) = json.loads(out.read_text())
        assert record[flag.lstrip("-")] == value
        assert record["value"] == normalize_float(formula(2, 2, 1 << 20, value))

    def test_sweep_over_k_is_usage_error(self, tmp_path):
        out = tmp_path / "table.json"
        assert main(["bounds", "--problem", "preimage", "--q", "1", "--sweep", "k=1,2",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_posw_bound_requires_wide_labels(self):
        assert main(["bounds", "--problem", "posw", "--q", "4", "--w", "8",
                     "--n", "20", "--t", "10"]) == 2

    @pytest.mark.parametrize("flags, parameter", [
        (["--problem", "preimage", "--m-bits", "1100"], "m"),
        (["--problem", "preimage", "--m-bits", "1024"], "m"),
        (["--problem", "collision", "--m-bits", "1024"], "m"),
        (["--problem", "gencol", "--m-bits", "1024"], "m"),
        (["--problem", "chain", "--m-bits", "1024"], "m"),
        (["--problem", "preimage", "--k", str(10 ** 400)], "k"),
        (["--problem", "posw", "--w", "2000", "--n", "2", "--t", "2"], "w"),
        (["--problem", "posw", "--w", "1023", "--n", "1023", "--t", "1"], "n"),
    ])
    def test_float_overflow_is_a_usage_error(self, tmp_path, capsys, flags, parameter):
        out = tmp_path / "table.json"
        assert main(["bounds", "--q", "1", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: parameter {parameter} ") and "largest float" in err
        assert not out.exists()

    # the widest ranges whose powers of two a float holds
    @pytest.mark.parametrize("flags, sha256", [
        (["--problem", "preimage", "--m-bits", "1023"],
         "d367decde62180a1e5166f5e0d9553e1017cb29b1aa86d527ac016f791a9f602"),
        (["--problem", "collision", "--m-bits", "1023"],
         "d33160e27f5aee33956800697d9af8959ce5f6e594fb33408900cac0290840ae"),
        (["--problem", "gencol", "--m-bits", "1023"],
         "177e86d1926e7567351f4ae4864c2aab161eed9c01d609bf46e8dda2ba5551fa"),
        (["--problem", "chain", "--m-bits", "1023"],
         "2ec7bcf50c4cfeaa3261133f5498a400c48dc660a9d4ef4f220ae9e04ca6f66e"),
        (["--problem", "posw", "--w", "1023", "--n", "30", "--t", "30"],
         "01d0670c2ff3cf1ae20f28bb6f62cc7d26df25e4054cd5d5feb4ad1d0f7edbce"),
    ])
    def test_widest_float_range_pinned(self, tmp_path, flags, sha256):
        out = tmp_path / "table.json"
        assert main(["bounds", "--q", "1", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_posw_challenge_mass_past_the_float_range_is_vacuous(self):
        # ((q + 2) / 4) ** 100 overflows a float; the bound is then 1
        assert bounds.posw_bound(10 ** 6, 1, 1000, 1, 100) == 1.0
        assert bounds.posw_bound(10 ** 6, 1, 1000, 1, 100, clamp=False) == float("inf")


class TestCapacityCommand:
    def test_example_value_and_exit(self, capsys, tmp_path):
        out = tmp_path / "cap.json"
        rc = main(["capacity", "--p", "!PRMG", "--pprime", "PRMG", "--k", "1",
                   "--domain", "n=1,m=1", "--bound", "thm5.7", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "0.8660254038" in printed
        assert out.read_text() == GOLDEN_CAPACITY_JSON

    def test_byte_identical_reports(self, tmp_path):
        argv = ["capacity", "--p", "!CL", "--pprime", "CL", "--k", "2",
                "--domain", "n=1,m=1"]
        one, two = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(one)]) == 0
        assert main(argv + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_classical_mode(self, capsys):
        rc = main(["capacity", "--p", "!PRMG", "--pprime", "PRMG", "--k", "1",
                   "--domain", "n=1,m=1", "--classical"])
        assert rc == 0
        assert "0.5" in capsys.readouterr().out

    @pytest.mark.parametrize("p,pprime,shorthand", [("CL", "!PRMG", False), ("!PRMG", "PRMG", True),
                                                     ("TRUE", "PRMG[target=1]", True)])
    def test_union_bound_only_for_a_bare_prmg_target(self, tmp_path, p, pprime, shorthand):
        out = tmp_path / "cap.json"
        assert main(["capacity", "--p", p, "--pprime", pprime, "--k", "1", "--domain", "n=1,m=1",
                     "--classical", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert ("union_bound" in record) == shorthand
        assert ("union_bound_holds" in record) == shorthand

    def test_classical_prmg_report_matches_bench_golden(self, tmp_path):
        golden = bench_golden("classical-prmg")
        out = tmp_path / "cap.json"
        code = main(["capacity", "--p", "!PRMG", "--pprime", "PRMG", "--k", "2",
                     "--domain", "n=3,m=1", "--classical", "--out", str(out)])
        assert code == golden["exit"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"]

    @pytest.mark.parametrize("name", ["cyclic-prmg", "cyclic-cl"])
    def test_cyclic_report_matches_bench_golden(self, tmp_path, name):
        golden = bench_golden(name)
        out = tmp_path / "cap.json"
        p = "PRMG" if name == "cyclic-prmg" else "CL"
        assert main(["capacity", "--p", f"!{p}", "--pprime", p, "--k", "2", "--domain", "n=2,m=2",
                     "--kind", "cyclic", "--out", str(out)]) == golden["exit"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"]

    @pytest.mark.parametrize("p,pprime,domain", [
        ("!PRMG[tagret=1]", "PRMG[tagret=1]", "n=1,m=1"),
        ("!PRMG[target=1,target=1]", "PRMG[target=1]", "n=1,m=1"),
        ("!CL", "CL[foo=bar]", "n=1,m=1"),
        ("!PRMG[target=2]", "PRMG[target=2]", "n=1,m=1"),
        ("!PRMG[target=7]", "PRMG[target=7]", "n=1,m=1"),
        ("!PRMG", "PRMG", "n=1,m=2,kind=3"),
        ("!PRMG", "PRMG", "n=1,m=1,m=2"),
        ("!PRMG", "PRMG", "n=1"),
        ("!CHN[s=1,t=1]", "CHN[s=2,t=1]", "n=1,m=2"),
    ], ids=["misspelt-key", "repeated-key", "key-on-cl", "target-2-at-m1", "target-7-at-m1",
            "unknown-domain-key", "repeated-domain-key", "domain-without-m", "chain-t-key"])
    def test_input_it_does_not_read_is_usage_error(self, tmp_path, p, pprime, domain):
        out = tmp_path / "cap.json"
        assert main(["capacity", "--p", p, "--pprime", pprime, "--k", "1", "--domain", domain,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_bad_property_is_usage_error(self):
        assert main(["capacity", "--p", "NOSUCH", "--pprime", "PRMG", "--k", "1",
                     "--domain", "n=1,m=1"]) == 2

    @pytest.mark.parametrize("rel", ["custom", "suffix", ""])
    def test_unknown_chain_relation_is_usage_error(self, rel, capsys):
        assert main(["capacity", "--p", f"!CHN[s=1,rel={rel}]", "--pprime",
                     f"CHN[s=2,rel={rel}]", "--k", "1", "--domain", "n=1,m=1"]) == 2
        assert "unknown chain relation" in capsys.readouterr().err

    @pytest.mark.parametrize("k,restrict", [("1", "00,zz"), ("3", "00,01"), ("1", "00,00"), ("1", "")],
                             ids=["unknown-input", "k-above-pool", "repeated-input", "empty"])
    def test_bad_window_pool_is_usage_error(self, k, restrict):
        assert main(["capacity", "--p", "!PRMG", "--pprime", "PRMG", "--k", k,
                     "--domain", "n=2,m=1", "--restrict", restrict, "--bound", "thm5.7"]) == 2

    @pytest.mark.parametrize("pprime", ["!PRMG", "CL|PRMG", "PRMG&SIZE<=1", "SIZE<=1", "!CHN[s=1]"])
    def test_bound_needs_a_bare_family_target(self, pprime, capsys):
        assert main(["capacity", "--p", "PRMG", "--pprime", pprime, "--k", "1",
                     "--domain", "n=1,m=1", "--bound", "thm5.7"]) == 2
        assert "no canonical family" in capsys.readouterr().err

    @pytest.mark.parametrize("pprime,bound", [("PRMG", "thm5.7"), ("(CL)", "thm5.12"),
                                              ("CHN[s=2,rel=prefix]", "thm5.9")])
    def test_bound_accepts_bare_atoms(self, pprime, bound):
        assert main(["capacity", "--p", "TRUE", "--pprime", pprime, "--k", "1",
                     "--domain", "n=1,m=1", "--bound", bound]) == 0

    def test_bound_family_keeps_prmg_target(self, monkeypatch):
        families = []
        build = properties.prmg_local_family
        monkeypatch.setattr(properties, "prmg_local_family",
                            lambda *args: families.append(build(*args)) or families[-1])
        assert main(["capacity", "--p", "!PRMG[target=1]", "--pprime", "PRMG[target=1]",
                     "--k", "1", "--domain", "n=1,m=1", "--bound", "thm5.7"]) == 0
        assert families
        assert {m for fam in families for lp in fam for m in lp.members} == {(1,)}

    def test_bound_honours_restrict(self, tmp_path, monkeypatch):
        windows = []
        build = properties.collision_local_family
        monkeypatch.setattr(properties, "collision_local_family",
                            lambda db, xs: windows.append(xs) or build(db, xs))

        def bound(*restrict):
            out = tmp_path / "cap.json"
            assert main(["capacity", "--p", "!CL", "--pprime", "CL", "--k", "1",
                         "--domain", "n=2,m=1", "--bound", "thm5.12", "--out", str(out),
                         *restrict]) == 0
            return json.loads(out.read_text())["bound"]

        # a pool whose input is not the domain's first
        restricted = bound("--restrict", "11")
        assert set(windows) == {("11",)}
        unrestricted = bound()
        assert restricted <= unrestricted
        domain = OracleDomain.of_bit_inputs(2, GroupSpec.bits(1))
        assert unrestricted == normalize_float(per_pair_bound("thm5.12", cl(), 1, domain))


class TestSimulateCommand:
    def test_grover_circuit_file(self, tmp_path, capsys):
        circuit = {
            "domain": "n=2,m=1",
            "registers": [4, 2],
            "steps": [
                {"type": "named", "name": "prepare_uniform", "regs": [0]},
                {"type": "named", "name": "prepare_dual", "regs": [1], "param": 1},
                {"type": "query", "in_regs": [0], "out_regs": [1]},
                {"type": "named", "name": "reflect_mean", "regs": [0]},
            ],
            "output_regs": [0],
            "relation": {"kind": "preimage", "target": 0},
        }
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit))
        out = tmp_path / "report.json"
        assert main(["simulate", "--circuit", str(path), "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["holds"]
        assert 0.0 <= record["p"] <= 1.0

    def test_shot_sampling_brackets_exact_value(self, tmp_path):
        circuit = {
            "domain": "n=1,m=1",
            "registers": [2, 2],
            "steps": [
                {"type": "named", "name": "prepare_uniform", "regs": [0]},
                {"type": "query", "in_regs": [0], "out_regs": [1]},
            ],
            "output_regs": [0],
        }
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit))
        out = tmp_path / "report.json"
        assert main(["--seed", "4", "simulate", "--circuit", str(path),
                     "--shots", "2000", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["wilson_low"] <= record["p"] <= record["wilson_high"]

    def test_gate_and_phase_flip_steps_match_library_run(self, tmp_path):
        s = 0.5 ** 0.5
        mixer = [[[s, 0.0], [0.0, s]], [[0.0, s], [s, 0.0]]]  # (1/sqrt 2)[[1, i], [i, 1]]
        hadamard = [[[s, 0.0], [s, 0.0]], [[s, 0.0], [-s, 0.0]]]
        circuit = {
            "domain": "n=1,m=1",
            "registers": [2, 2],
            "steps": [
                {"type": "gate", "matrix": mixer, "regs": [0]},
                {"type": "gate", "matrix": hadamard, "regs": [1]},
                {"type": "query", "in_regs": [0], "out_regs": [1]},
                {"type": "phase_flip", "regs": [0, 1], "values": [[1, 1], [0, 1]]},
                {"type": "gate", "matrix": mixer, "regs": [0]},
                {"type": "query", "xs": ["1"], "out_regs": [1]},
            ],
            "output_regs": [0],
        }
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit))
        out = tmp_path / "report.json"
        assert main(["simulate", "--circuit", str(path), "--out", str(out)]) == 0
        record = json.loads(out.read_text())

        as_matrix = lambda rows: np.array([[complex(re, im) for re, im in row] for row in rows])
        domain = OracleDomain.of_bit_inputs(1, GroupSpec.bits(1))
        library = AdversaryCircuit(domain=domain, reg_dims=(2, 2), output_regs=(0,), steps=(
            GateStep(as_matrix(mixer), (0,)),
            GateStep(as_matrix(hadamard), (1,)),
            QueryStep(out_regs=(1,), in_regs=(0,)),
            PhaseFlipStep((0, 1), lambda a, b: b == 1),
            GateStep(as_matrix(mixer), (0,)),
            QueryStep(out_regs=(1,), xs=("1",)),
        ))
        p, p_prime = relation_probabilities(library, lambda xs, ys: all(y == 0 for y in ys),
                                            lambda xs: (0,) * len(xs))
        assert 0.0 < p_prime and 0.0 < p < 1.0
        assert abs(record["p"] - p) <= 1e-12
        assert abs(record["p_prime"] - p_prime) <= 1e-12

    QUERY = {"type": "query", "in_regs": [0], "out_regs": [1]}
    BASE = {"domain": "n=1,m=1", "registers": [2, 2], "output_regs": [0], "steps": [QUERY]}

    @pytest.mark.parametrize("circuit", [
        {**BASE, "steps": [{"type": "swap", "regs": [0, 1]}]},
        {**BASE, "relation": {"kind": "collision"}},
        # [[1, 1], [0, 1]], entries as [re, im] pairs
        {**BASE, "steps": [{"type": "gate", "matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]],
                            "regs": [0]}, QUERY]},
        {**BASE, "steps": [{"type": "gate", "matrix": [[1]], "regs": [0]}, QUERY]},
        {**BASE, "steps": [{"type": "gate", "matrix": [[[1, 0], [0, 0]]], "regs": [0]}, QUERY]},
        {**BASE, "steps": [{"type": "named", "name": "prepare_uniform", "regs": 5}, QUERY]},
        {**BASE, "relation": 5},
        {**BASE, "relation": {"kind": "preimage", "target": [0]}},
        [1, 2],
        {**BASE, "kind": "foo"},
        {**BASE, "registers": [0], "steps": []},
        {**BASE, "registers": [2, 0]},
        {**BASE, "registers": [2.5, 2]},
        {**BASE, "registers": ["2", 2]},
        {**BASE, "registers": [2, None]},
        {**BASE, "registers": [True, 2]},
        {**BASE, "steps": [{"type": "query", "in_regs": [0], "out_regs": [1.0]}]},
        {**BASE, "steps": [{"type": "named", "name": "prepare_uniform", "regs": [1.0]}, QUERY]},
        {**BASE, "output_regs": [True]},
        {**BASE, "steps": [{"type": "named", "name": "prepare_dual", "regs": [1], "param": "1"}, QUERY]},
        {**BASE, "steps": [{"type": "named", "name": "prepare_dual", "regs": [1], "param": 1.5}, QUERY]},
        {**BASE, "steps": [{"type": "named", "name": "prepare_dual", "regs": [1], "param": True}, QUERY]},
        {**BASE, "steps": [{"type": "named", "name": "prepare_uniform", "regs": [0], "param": "junk"}, QUERY]},
    ], ids=["unknown-step-type", "non-preimage-relation", "non-unitary-gate", "bare-number-entries",
            "non-square-gate", "regs-not-a-list", "relation-not-an-object", "target-not-a-number",
            "not-an-object", "unknown-domain-kind", "register-of-dimension-0",
            "second-register-of-dimension-0", "float-register", "string-register", "null-register",
            "bool-register", "float-out-reg", "float-gate-reg", "bool-output-reg",
            "string-param", "float-param", "bool-param", "unused-string-param"])
    def test_unsupported_circuit_file_exit_2(self, tmp_path, capsys, circuit):
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit))
        out = tmp_path / "report.json"
        assert main(["simulate", "--circuit", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("shots", ["0", "-3", str(SHOTS_BUDGET + 1), "1000000000"])
    def test_shots_outside_budget_exit_2(self, tmp_path, capsys, monkeypatch, shots):
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(self.BASE))
        out = tmp_path / "report.json"
        # refused before the exact run
        monkeypatch.setattr(cli_mod.oracle_mod, "relation_probabilities", None)
        assert main(["simulate", "--circuit", str(path), "--shots", shots, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --shots")
        assert not out.exists()

    @pytest.mark.parametrize("query", [
        {"xs": ["00"], "out_regs": [1, 2]},
        {"in_regs": [0, 0], "out_regs": [1]},
        {"xs": ["00"], "in_regs": [0], "out_regs": [1]},
        {"out_regs": [1]},
        {"xs": ["00"], "out_regs": [5]},
    ])
    def test_malformed_query_step_exit_2(self, tmp_path, query):
        circuit = {
            "domain": "n=2,m=1",
            "registers": [4, 2, 2],
            "steps": [{"type": "query", **query}],
            "output_regs": [0],
        }
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit))
        out = tmp_path / "report.json"
        assert main(["simulate", "--circuit", str(path), "--out", str(out)]) == 2
        assert not out.exists()


class TestPoswCommands:
    def test_prove_verify_round_trip(self, tmp_path, capsys):
        proof = tmp_path / "proof.bin"
        rc = main(["posw", "prove", "--n", "2", "--t", "1", "--w", "64",
                   "--chi", "c0ffee", "--out", str(proof)])
        assert rc == 0
        rc = main(["posw", "verify", "--in", str(proof), "--chi", "c0ffee"])
        assert rc == 0
        assert "accept" in capsys.readouterr().out

    def test_oracle_work_on_stderr(self, tmp_path, capsys):
        """prove and verify each print one stderr line: the oracle
        invocations and framed bytes of a backend trace of the same run,
        every block of a challenge query counted."""
        from qromlab import posw

        def work(command, backend):
            trace = backend.trace
            return (f"posw {command}: {sum(e.invocations for e in trace)} oracle invocations, "
                    f"{sum(len(e.payload) * e.invocations for e in trace)} bytes framed\n")

        params, chi, t = posw.PoswParams(n=3, w=8), 0xAB, 3
        prover = posw.CryptoBackend(8)
        proof = posw.prove(chi, params, t, prover)
        verifier = posw.CryptoBackend(8)
        assert posw.verify(chi, params, t, proof, verifier).accepted
        # t * n = 9 challenge bits take two 8-bit oracle outputs, so
        # invocations outnumber trace entries
        assert sum(e.invocations for e in prover.trace) == len(prover.trace) + 1

        path = tmp_path / "proof.bin"
        assert main(["posw", "prove", "--n", "3", "--t", "3", "--w", "8",
                     "--chi", "ab", "--out", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == work("prove", prover)
        assert captured.out.startswith("proof written: ")
        assert path.read_bytes() == posw.serialize_proof(proof)
        assert main(["posw", "verify", "--in", str(path), "--chi", "ab"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("accept\n", work("verify", verifier))

    def test_corrupted_proof_rejected(self, tmp_path, capsys):
        proof = tmp_path / "proof.bin"
        main(["posw", "prove", "--n", "2", "--t", "1", "--w", "64",
              "--chi", "ab", "--out", str(proof)])
        data = bytearray(proof.read_bytes())
        data[-1] ^= 1
        proof.write_bytes(bytes(data))
        assert main(["posw", "verify", "--in", str(proof), "--chi", "ab"]) == 1

    @pytest.mark.parametrize("t", ["70000", "0"])
    def test_prove_refuses_a_challenge_count_the_header_cannot_hold(self, tmp_path, capsys,
                                                                   monkeypatch, t):
        def unreached(*args):
            raise AssertionError("the prover ran")

        monkeypatch.setattr(cli_mod.posw_mod, "prove", unreached)
        proof = tmp_path / "proof.bin"
        assert main(["posw", "prove", "--n", "1", "--t", t, "--w", "256", "--out", str(proof)]) == 2
        assert capsys.readouterr().err == f"error: --t {t} is outside 1..65535, the challenge counts a proof file can hold\n"
        assert not proof.exists()

    def test_prove_refuses_a_dag_above_the_enumeration_budget(self, tmp_path, capsys, monkeypatch):
        """n = 22 has 2^23 - 1 vertices, above the 2^22 budget: refused before
        the first oracle query; n = 21 (2^22 - 1 vertices) reaches the prover."""
        class Reached(Exception):
            pass

        def prover(*args):
            raise Reached

        monkeypatch.setattr(cli_mod.posw_mod, "prove", prover)
        proof = tmp_path / "proof.bin"
        assert main(["posw", "prove", "--n", "22", "--t", "1", "--w", "256", "--out", str(proof)]) == 2
        assert capsys.readouterr().err == ("error: --n 22 labels 8388607 vertices, "
                                           "more than the enumeration budget of 4194304\n")
        assert not proof.exists()
        with pytest.raises(Reached):
            main(["posw", "prove", "--n", "21", "--t", "1", "--w", "256", "--out", str(proof)])

    def test_table_backend_verify_is_usage_error(self, tmp_path, capsys):
        proof = tmp_path / "proof.bin"
        main(["posw", "prove", "--n", "1", "--t", "1", "--w", "16",
              "--chi", "ab", "--out", str(proof)])
        rc = main(["posw", "verify", "--in", str(proof), "--chi", "ab",
                   "--backend", "table"])
        assert rc == 2

    def test_seed_independent_crypto_verification(self, tmp_path):
        proof = tmp_path / "proof.bin"
        main(["--seed", "5", "posw", "prove", "--n", "2", "--t", "1", "--w", "32",
              "--chi", "0f", "--out", str(proof)])
        assert main(["--seed", "9", "posw", "verify", "--in", str(proof),
                     "--chi", "0f"]) == 0

    def test_lemma_suites(self, tmp_path):
        for suite in ("extract", "leaves", "newpath"):
            assert main(["lemmas", "--suite", suite, "--trials", "40"]) == 0

    @pytest.mark.parametrize("n,w", [(2, 8), (2, 32), (9, 8), (9, 32)])
    def test_random_logs_frame_as_label_payload(self, n, w):
        """The drawn logs equal the per-entry label_payload framing, drawn in
        the same order: vertex, its in-neighbour labels, the value."""

        def ref_random_db(rng, n, w, chi, entries):
            db = {}
            vertices = dag.all_vertices(n)
            for _ in range(entries):
                v = vertices[rng.randrange(len(vertices))]
                labels = tuple(rng.getrandbits(w) for _ in range(len(dag.in_neighbors(v, n))))
                db[label_payload(chi, v, labels, w)] = rng.getrandbits(w)
            return db

        for seed in range(3):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            entries = 3 * (1 << n) - 1
            db = cli_mod._random_db(rng, n, w, 0x5A, entries)
            assert list(db.items()) == list(ref_random_db(ref_rng, n, w, 0x5A, entries).items())
            assert rng.getrandbits(64) == ref_rng.getrandbits(64)

    @pytest.mark.parametrize("suite", ["leaves", "newpath", "extract"])
    def test_lemma_counts_on_stderr(self, tmp_path, capsys, monkeypatch, suite):
        collisions = []
        has_collision = cli_mod.posw_mod.db_has_collision

        def counting(db, w):
            collisions.append(has_collision(db, w))
            return collisions[-1]

        monkeypatch.setattr(cli_mod.posw_mod, "db_has_collision", counting)
        out = tmp_path / "lemmas.json"
        assert main(["--seed", "3", "lemmas", "--suite", suite, "--trials", "200",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        skipped = sum(collisions)
        assert captured.out == f"lemma suite {suite}: 0 failures in 200 trials\n"
        assert captured.err == (f"lemma suite {suite}: {200 - skipped} evaluated, "
                                f"{skipped} skipped (query-log collision)\n")
        assert (skipped > 0) == (suite != "leaves")
        assert json.loads(out.read_text())[0]["trials"] == 200

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_lemma_trials_below_one_exit_2(self, tmp_path, trials):
        out = tmp_path / "lemmas.json"
        assert main(["lemmas", "--suite", "leaves", "--trials", trials, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "-1"], ["--n", "21"], ["--n", "40"],
                                       ["--w", "7"], ["--w", "513"], ["--w", "600"]])
    def test_lemma_parameters_out_of_range_exit_2(self, tmp_path, flags):
        out = tmp_path / "lemmas.json"
        assert main(["lemmas", "--suite", "leaves", "--trials", "1", *flags,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_posw_lemmas_alias_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["posw", "lemmas", "--suite", "leaves", "--trials", "10"])
        assert exc.value.code == 2


class TestReportCommand:
    def test_round_trip(self, tmp_path):
        src = tmp_path / "records.json"
        src.write_text(json.dumps([{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]))
        out = tmp_path / "records.csv"
        assert main(["report", "--in", str(src), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        assert len(lines) == 3

    @pytest.mark.parametrize("text", ["5", '[{"a": 1}, [2]]', '["a"]'])
    def test_records_that_are_not_objects_exit_2(self, tmp_path, capsys, text):
        src = tmp_path / "records.json"
        src.write_text(text)
        out = tmp_path / "records.csv"
        assert main(["report", "--in", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: every report record must be a JSON object\n"
        assert not out.exists()


class TestLargeDomainRefusals:
    """A domain far past the budgets exits 2 within seconds, in time linear
    in |X|, with a short message naming the budget it exceeds."""

    @pytest.mark.parametrize("n", [12, 18])
    def test_simulate(self, tmp_path, capsys, n):
        circuit = {"domain": f"n={n},m=1", "registers": [2], "output_regs": [0],
                   "steps": [{"type": "query", "xs": ["0" * n], "out_regs": [0]}]}
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit))
        start = time.perf_counter()
        assert main(["simulate", "--circuit", str(path)]) == 2
        assert time.perf_counter() - start < 10.0
        assert capsys.readouterr().err == f"error: state exceeds the amplitude budget of {1 << 24} (QROMLAB_BUDGET)\n"

    @pytest.mark.parametrize("domain", ["n=6,m=1", "n=5,m=2"])
    def test_simulate_past_int64_keys(self, tmp_path, capsys, monkeypatch, domain):
        # with the amplitude budget out of the way, the int64 oracle keys are
        # the limit: 3^64 and 5^32 databases both reach 2^63
        monkeypatch.setenv("QROMLAB_BUDGET", str(10 ** 40))
        n = int(domain[2])
        circuit = {"domain": domain, "registers": [2], "output_regs": [0],
                   "steps": [{"type": "query", "xs": ["0" * n], "out_regs": [0]}]}
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit))
        assert main(["simulate", "--circuit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2^63" in err and err.count("\n") == 1

    def test_simulate_below_int64_keys_runs(self, tmp_path, capsys, monkeypatch):
        # 3^32 databases stay below 2^63, so the sparse run goes ahead
        monkeypatch.setenv("QROMLAB_BUDGET", str(10 ** 40))
        circuit = {"domain": "n=5,m=1", "registers": [2], "output_regs": [0],
                   "steps": [{"type": "query", "xs": ["00000"], "out_regs": [0]}]}
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit))
        assert main(["simulate", "--circuit", str(path)]) == 0

    def test_capacity(self, capsys):
        start = time.perf_counter()
        assert main(["capacity", "--p", "PRMG", "--pprime", "PRMG", "--k", "1", "--domain", "n=18,m=1"]) == 2
        assert time.perf_counter() - start < 10.0
        assert capsys.readouterr().err == "error: capacity enumeration exceeds the budget\n"

    @pytest.mark.parametrize("flags", [[], ["--classical"],
                                       ["--restrict", "0" * 20 + ",1" + "0" * 19]])
    @pytest.mark.parametrize("n", [20, 40])
    def test_capacity_refused_before_the_domain_is_built(self, capsys, monkeypatch, n, flags):
        def unbuilt(*args):
            raise AssertionError("the domain was built")

        monkeypatch.setattr(OracleDomain, "of_bit_inputs", unbuilt)
        assert main(["capacity", "--p", "PRMG", "--pprime", "PRMG", "--k", "1",
                     "--domain", f"n={n},m=1", *flags]) == 2
        assert capsys.readouterr().err == "error: capacity enumeration exceeds the budget\n"


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["capacity", "--p", "PRMG"])
        assert err.value.code == 2


class TestCachedParser:
    """main parses with one parser per process, built on first use."""

    def test_import_does_not_build_the_parser(self):
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        probe = "import qromlab.cli as c; print(c.build_parser.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "0\n"

    def test_calls_in_one_process_match_fresh_calls(self, tmp_path, capsys):
        proof = tmp_path / "proof.bin"
        assert main(["posw", "prove", "--n", "2", "--t", "1", "--w", "64",
                     "--chi", "c0ffee", "--out", str(proof)]) == 0
        report = tmp_path / "report.json"
        calls = [["capacity", "--p", "!PRMG"],
                 ["capacity", "--p", "!PRMG", "--pprime", "PRMG", "--k", "1",
                  "--domain", "n=1,m=1", "--bound", "thm5.7", "--out", str(report)],
                 ["posw", "verify", "--in", str(proof), "--chi", "c0ffee"]]

        def run(argv):
            report.unlink(missing_ok=True)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return code, out, err, report.read_bytes() if report.exists() else None

        capsys.readouterr()
        shared = [run(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli_mod.build_parser.cache_clear()
            fresh.append(run(argv))
        assert [code for code, *_ in shared] == [2, 0, 0]
        assert shared == fresh
        assert shared[1][3] == GOLDEN_CAPACITY_JSON.encode()
        assert cli_mod.build_parser() is cli_mod.build_parser()


class TestReporting:
    def test_render_json_truncates_floats(self):
        text = render_json({"x": 0.8660254037844386})
        assert "0.866025403784" in text and "4386" not in text

    def test_render_csv_empty(self):
        assert render_csv([]) == "\n"

    def test_csv_row_count_and_quoting(self):
        text = render_csv([{"a": 'x,"y"', "b": True}, {"a": "z", "b": False}])
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert '"x,""y"""' in lines[1]

    def test_wilson_interval(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
