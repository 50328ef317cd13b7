"""The batch capacity engine against the per-row enumeration it replaced.

Three layers are checked: holds_batch against per-row holds on random
property expressions, quantum_capacity_exact against the per-row engine kept
below as the differential oracle, and the recognizability bounds against one
family per (window, exterior) pair.  The full capacity reports at the
enumeration-budget edge are pinned to the values of the per-row engine.
"""

import hashlib
import itertools
import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import capacity as capacity_mod
from qromlab import cli
from qromlab.capacity import operator_norm, quantum_capacity_exact
from qromlab.groups import GroupSpec, transition_matrix
from qromlab.oracle import Database, OracleDomain
from qromlab.properties import (
    ChainRelation,
    chain_local_family,
    chn,
    cl,
    collision_local_family,
    empty_db_prop,
    false_prop,
    parse_property,
    prmg,
    prmg_local_family,
    restrict,
    size_at_most,
    true_prop,
    value_dtype,
    window_masks,
    window_tuples,
)

EQ = ChainRelation("equality")
PREFIX = ChainRelation("prefix")
SPECS = (GroupSpec.bits(1), GroupSpec.bits(2), GroupSpec.cyclic(3), GroupSpec.cyclic(4))

ATOMS = (
    [prmg(), prmg(1), cl(), empty_db_prop(), true_prop(), false_prop()]
    + [size_at_most(s) for s in range(5)]
    + [chn(s, rel) for s in range(4) for rel in (EQ, PREFIX)]
)


def _combine(parts):
    left, op, right = parts
    return {"&": left & right, "|": left | right, "-": left - right}[op]


PROPERTIES = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(inner.map(lambda p: ~p),
                            st.tuples(inner, st.sampled_from("&|-"), inner).map(_combine)),
    max_leaves=6,
)


def bit_domain(spec, n=2):
    return OracleDomain.of_bit_inputs(n, spec)


# the per-row engine, kept as the differential oracle


def per_row_window_mask(p, db, xs):
    ext = db.domain.spec.order + 1
    mask = np.zeros(ext ** len(xs), dtype=bool)
    for i, r in enumerate(itertools.product(range(ext), repeat=len(xs))):
        mask[i] = p.holds(db.update(xs, r))
    return mask


def per_row_quantum_capacity(p, pprime, k, domain, x_restrict=None):
    """One Database and one holds call per (window, exterior, window tuple)
    row, one operator norm per non-empty block, the first maximiser by
    (window index, yhats, exterior values) kept within 1e-12."""
    spec = domain.spec
    pool = tuple(domain.inputs if x_restrict is None else x_restrict)
    gammas = {}
    best, best_key, best_witness = 0.0, None, None
    for xi, xs in enumerate(itertools.permutations(pool, k)):
        others = [x for x in domain.inputs if x not in xs]
        for values in itertools.product(range(spec.order + 1), repeat=len(others)):
            db = Database.from_entries(domain, dict(zip(others, values)))
            in_mask = per_row_window_mask(p, db, xs)
            out_mask = per_row_window_mask(pprime, db, xs)
            if not in_mask.any() or not out_mask.any():
                continue
            for yhats in itertools.product(range(spec.order), repeat=k):
                if yhats not in gammas:
                    gammas[yhats] = reduce(np.kron, [np.asarray(transition_matrix(spec, y))
                                                     for y in yhats])
                value = operator_norm(gammas[yhats][np.ix_(out_mask, in_mask)])
                key = (xi, yhats, db.values)
                if value > best + 1e-12 or (value > best - 1e-12 and (best_key is None or key < best_key)):
                    if value > best:
                        best = value
                    best_key = key
                    best_witness = {
                        "xs": list(xs),
                        "yhats": list(yhats),
                        "database": sorted(db.entries().items(), key=lambda kv: domain.index(kv[0])),
                    }
    return best, best_witness


class TestHoldsBatch:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_row_holds(self, data):
        spec = data.draw(st.sampled_from(SPECS))
        domain = bit_domain(spec)
        p = data.draw(PROPERTIES)
        rows = data.draw(st.lists(st.lists(st.integers(0, spec.bot), min_size=domain.size,
                                           max_size=domain.size), max_size=20))
        rows.append([spec.bot] * domain.size)
        dtype = data.draw(st.sampled_from([value_dtype(spec), np.int64]))
        got = p.holds_batch(np.array(rows, dtype=dtype), domain)
        want = [p.holds(Database(domain, tuple(r))) for r in rows]
        assert got.dtype == bool and got.tolist() == want, p.name

    def test_parsed_expressions(self):
        domain = bit_domain(GroupSpec.bits(1))
        rows = np.array(list(itertools.product(range(3), repeat=domain.size)))
        for text in ("!(PRMG|CL)&SIZE<=2", "PRMG[target=1]|BOT", "!CHN[s=1]", "TRUE&!FALSE"):
            p = parse_property(text)
            want = [p.holds(Database(domain, tuple(r))) for r in rows.tolist()]
            assert p.holds_batch(rows, domain).tolist() == want

    def test_custom_predicate_falls_back_to_holds(self):
        from qromlab.properties import DatabaseProperty

        domain = bit_domain(GroupSpec.bits(1))
        seen = []
        odd = DatabaseProperty("ODD", lambda db: seen.append(db.values) or sum(db.values) % 2 == 1)
        rows = np.array([[0, 0, 0, 1], [2, 2, 2, 2]])
        assert (odd & prmg()).holds_batch(rows, domain).tolist() == [True, False]
        assert seen == [(0, 0, 0, 1), (2, 2, 2, 2)]

    def test_window_masks_match_restrict(self):
        domain = bit_domain(GroupSpec.cyclic(3))
        p = ~cl() | chn(2, EQ)
        xs = ("10", "00")
        exteriors = list(capacity_mod.window_exteriors(domain, xs))
        masks = window_masks(p, domain, exteriors, xs)
        window = [tuple(r) for r in window_tuples(domain.spec, 2).tolist()]
        for values, mask in zip(exteriors, masks):
            got = frozenset(r for r, m in zip(window, mask) if m)
            assert got == restrict(p, Database(domain, values), xs)


class TestEngineAgainstPerRow:
    CASES = [
        (~prmg(), prmg()),
        (~cl(), cl()),
        (~chn(1, EQ), chn(2, EQ)),
        # equal maxima recur at later exteriors with smaller yhats, so the
        # witness depends on the tie-break, not on the enumeration order
        (~chn(2, EQ), chn(2, EQ)),
        (parse_property("!(PRMG|CL)&SIZE<=3"), parse_property("PRMG|CL")),
        (true_prop(), true_prop()),
        (false_prop(), prmg()),
    ]

    @pytest.mark.parametrize("spec", [GroupSpec.bits(1), GroupSpec.cyclic(3)])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("x_restrict", [None, ("11", "01", "10")])
    def test_named_transitions(self, spec, k, x_restrict):
        domain = bit_domain(spec)
        for p, pprime in self.CASES:
            report = quantum_capacity_exact(p, pprime, k, domain, x_restrict)
            value, witness = per_row_quantum_capacity(p, pprime, k, domain, x_restrict)
            assert report.value == value, (p.name, pprime.name)
            assert report.witness == witness, (p.name, pprime.name)

    @pytest.mark.parametrize("spec", [GroupSpec.bits(1), GroupSpec.cyclic(3)])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("x_restrict", [None, ("01", "00")])
    @given(p=PROPERTIES, pprime=PROPERTIES)
    @settings(max_examples=6, deadline=None)
    def test_random_transitions(self, spec, k, x_restrict, p, pprime):
        domain = bit_domain(spec)
        report = quantum_capacity_exact(p, pprime, k, domain, x_restrict)
        value, witness = per_row_quantum_capacity(p, pprime, k, domain, x_restrict)
        assert report.value == value and report.witness == witness, (p.name, pprime.name)

    def test_small_mask_chunks(self, monkeypatch):
        # exteriors split across many batches still fold in enumeration order
        domain = bit_domain(GroupSpec.cyclic(3))
        monkeypatch.setattr(capacity_mod, "MASK_ROWS", 40)
        p, pprime = parse_property("!CL"), parse_property("CL|PRMG")
        report = quantum_capacity_exact(p, pprime, 2, domain)
        assert (report.value, report.witness) == per_row_quantum_capacity(p, pprime, 2, domain)


def per_pair_bound(name, pprime, k, domain):
    """One canonical family per (window, exterior) pair."""
    families = []
    for xs in itertools.permutations(domain.inputs, k):
        for values in capacity_mod.window_exteriors(domain, xs):
            db = Database(domain, values)
            if "PRMG" in pprime.name:
                families.append(prmg_local_family(xs, domain.spec))
            elif "CHN" in pprime.name:
                rel = PREFIX if "prefix" in pprime.name else EQ
                families.append(chain_local_family(db, xs, rel))
            else:
                families.append(collision_local_family(db, xs))
    evaluate = {"thm5.7": capacity_mod.bound_thm_simple, "thm5.9": capacity_mod.bound_thm_tricky,
                "thm5.12": capacity_mod.bound_thm_general}[name]
    return evaluate(families)


@pytest.mark.parametrize("name,p,pprime,k,spec", [
    ("thm5.7", "!PRMG", "PRMG", 2, GroupSpec.bits(1)),
    ("thm5.12", "!CL", "CL", 2, GroupSpec.bits(1)),
    ("thm5.12", "!CL", "CL", 1, GroupSpec.cyclic(3)),
    ("thm5.9", "!CHN[s=1]", "CHN[s=2]", 1, GroupSpec.bits(2)),
    ("thm5.9", "!CHN[s=1,rel=prefix]", "CHN[s=2,rel=prefix]", 1, GroupSpec.bits(2)),
])
def test_distinct_family_bound_matches_per_pair(name, p, pprime, k, spec):
    domain = bit_domain(spec)
    p, pprime = parse_property(p), parse_property(pprime)
    assert cli._recognizability_bound(name, p, pprime, k, domain) == per_pair_bound(name, pprime, k, domain)


# Full reports of the per-row engine at n=3, m=1, k=2: the values, the first
# maximising witnesses, the bounds, and the SHA-256 of the report bytes.
N3_REPORTS = [
    (["--p", "!PRMG", "--pprime", "PRMG", "--bound", "thm5.7"],
     "daf92fff24935bf8a72a50745dec069aec16a4807ba2e61ded5979a418990db1",
     {"value": 0.968245836552,
      "witness": {"xs": ["000", "001"], "yhats": [1, 1],
                  "database": [["010", 1], ["011", 1], ["100", 1], ["101", 1], ["110", 1], ["111", 1]]},
      "bound": 3.16227766017, "holds": True}),
    (["--p", "!CL", "--pprime", "CL", "--bound", "thm5.12"],
     "9008b3ba7b86279d7115b1ae60d293179109f4eb609b6532217c75fafddb4904",
     {"value": 1.0,
      "witness": {"xs": ["000", "001"], "yhats": [0, 1], "database": [["010", 0], ["011", 1]]},
      "bound": 27.1828182846, "holds": True}),
    (["--p", "!(PRMG|CL)&SIZE<=4", "--pprime", "PRMG|CL"],
     "4645ba87468df21dd30dc205523a7011400c3ca4ca4f12d5f68eff3a0122632a",
     {"value": 1.0,
      "witness": {"xs": ["000", "001"], "yhats": [0, 1], "database": [["010", 1]]}}),
]


@pytest.mark.parametrize("argv,sha256,expected", N3_REPORTS,
                         ids=["prmg-thm5.7", "cl-thm5.12", "mixed-size4"])
def test_budget_edge_reports_pinned(tmp_path, argv, sha256, expected):
    out = tmp_path / "report.json"
    assert cli.main(["capacity", *argv, "--k", "2", "--domain", "n=3,m=1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert {key: record.get(key) for key in expected} == expected
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
