"""Command-line dispatch, reports, and determinism."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qromlab import bounds, capacity
from qromlab.cli import main
from qromlab.groups import GroupSpec
from qromlab.oracle import (AdversaryCircuit, GateStep, OracleDomain, PhaseFlipStep, QueryStep,
                            relation_probabilities)
from qromlab.reporting import normalize_float, render_csv, render_json, wilson_interval

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
    ], ids=["misspelt-key", "repeated-key", "key-on-cl", "target-2-at-m1", "target-7-at-m1",
            "unknown-domain-key", "repeated-domain-key", "domain-without-m"])
    def test_input_it_does_not_read_is_usage_error(self, tmp_path, p, pprime, domain):
        out = tmp_path / "cap.json"
        assert main(["capacity", "--p", p, "--pprime", pprime, "--k", "1", "--domain", domain,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_bad_property_is_usage_error(self):
        assert main(["capacity", "--p", "NOSUCH", "--pprime", "PRMG", "--k", "1",
                     "--domain", "n=1,m=1"]) == 2

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
        build = capacity.prmg_local_family
        monkeypatch.setattr(capacity, "prmg_local_family",
                            lambda *args: families.append(build(*args)) or families[-1])
        assert main(["capacity", "--p", "!PRMG[target=1]", "--pprime", "PRMG[target=1]",
                     "--k", "1", "--domain", "n=1,m=1", "--bound", "thm5.7"]) == 0
        assert families
        assert {m for fam in families for lp in fam for m in lp.members} == {(1,)}

    def test_bound_honours_restrict(self, tmp_path, monkeypatch):
        windows = []
        build = capacity.collision_local_family
        monkeypatch.setattr(capacity, "collision_local_family",
                            lambda db, xs: windows.append(xs) or build(db, xs))

        def bound(*restrict):
            out = tmp_path / "cap.json"
            assert main(["capacity", "--p", "!CL", "--pprime", "CL", "--k", "1",
                         "--domain", "n=2,m=1", "--bound", "thm5.12", "--out", str(out),
                         *restrict]) == 0
            return json.loads(out.read_text())["bound"]

        restricted = bound("--restrict", "00")
        assert set(windows) == {("00",)}
        windows.clear()
        assert restricted <= bound()
        assert set(windows) == {("00",), ("01",), ("10",), ("11",)}


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

    @pytest.mark.parametrize("change", [
        {"steps": [{"type": "swap", "regs": [0, 1]}]},
        {"relation": {"kind": "collision"}},
    ], ids=["unknown-step-type", "non-preimage-relation"])
    def test_unsupported_circuit_file_exit_2(self, tmp_path, change):
        circuit = {"domain": "n=1,m=1", "registers": [2, 2], "output_regs": [0],
                   "steps": [{"type": "query", "in_regs": [0], "out_regs": [1]}], **change}
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit))
        out = tmp_path / "report.json"
        assert main(["simulate", "--circuit", str(path), "--out", str(out)]) == 2
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

    def test_corrupted_proof_rejected(self, tmp_path, capsys):
        proof = tmp_path / "proof.bin"
        main(["posw", "prove", "--n", "2", "--t", "1", "--w", "64",
              "--chi", "ab", "--out", str(proof)])
        data = bytearray(proof.read_bytes())
        data[-1] ^= 1
        proof.write_bytes(bytes(data))
        assert main(["posw", "verify", "--in", str(proof), "--chi", "ab"]) == 1

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

    @pytest.mark.parametrize("suite", ["leaves", "newpath", "extract"])
    def test_lemma_counts_on_stderr(self, tmp_path, capsys, monkeypatch, suite):
        import qromlab.cli as cli_mod

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


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["capacity", "--p", "PRMG"])
        assert err.value.code == 2


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
