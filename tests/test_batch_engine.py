"""The batch capacity engines against the per-row enumeration they replaced.

Four layers are checked: holds_batch against the per-row definitions of
the atoms kept below, on random property expressions, the truth-table window
views against per-row window masks, both capacity engines against the
per-row engines kept below as differential oracles, and the
recognizability bounds against one family per (window, exterior) pair.  The full capacity reports at the enumeration-budget edge are
pinned to the values of the per-row engine, and the hot path is pinned to
make no per-database holds call.
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
from qromlab import properties as properties_mod
from qromlab.capacity import classical_capacity_exact, operator_norm, quantum_capacity_exact
from qromlab.groups import GroupSpec, transition_matrix
from qromlab.oracle import Database, OracleDomain, sparse_encode
from qromlab.properties import (
    ChainRelation,
    DatabaseProperty,
    chn,
    cl,
    empty_db_prop,
    false_prop,
    parse_property,
    prmg,
    size_at_most,
    true_prop,
    truth_table,
    value_dtype,
    window_offsets,
    window_tuples,
)
from reference import exterior_values, per_exterior_families, per_pair_bound, restrict, window_view

EQ = ChainRelation("equality")
PREFIX = ChainRelation("prefix")
SPECS = (GroupSpec.bits(1), GroupSpec.bits(2), GroupSpec.cyclic(3), GroupSpec.cyclic(4))

# the per-row definitions of the atoms, kept as the reference their batches
# are checked against


def defined_values(db):
    return [v for v in db.values if v != db.domain.spec.bot]


def preimage_of(target):
    return lambda db: db.domain.spec.check_element(target) in db.values


def has_collision(db):
    values = defined_values(db)
    return len(set(values)) < len(values)


def size_at_most_def(s):
    return lambda db: len(defined_values(db)) <= s


def chain_of(s, rel):
    return lambda db: properties_mod.longest_chain_length(db, rel) >= s


# (property, per-row definition) pairs
DEFINED_ATOMS = (
    [(prmg(), preimage_of(0)), (prmg(1), preimage_of(1)), (cl(), has_collision),
     (empty_db_prop(), lambda db: not defined_values(db)), (true_prop(), lambda db: True),
     (false_prop(), lambda db: False)]
    + [(size_at_most(s), size_at_most_def(s)) for s in range(5)]
    + [(chn(s, rel), chain_of(s, rel)) for s in range(4) for rel in (EQ, PREFIX)]
)


def _complement(pair):
    p, defn = pair
    return ~p, lambda db: not defn(db)


def _combine(parts):
    (left, left_defn), op, (right, right_defn) = parts
    defn = {"&": lambda db: left_defn(db) and right_defn(db),
            "|": lambda db: left_defn(db) or right_defn(db),
            "-": lambda db: left_defn(db) and not right_defn(db)}[op]
    return {"&": left & right, "|": left | right, "-": left - right}[op], defn


DEFINED_PROPERTIES = st.recursive(
    st.sampled_from(DEFINED_ATOMS),
    lambda inner: st.one_of(inner.map(_complement),
                            st.tuples(inner, st.sampled_from("&|-"), inner).map(_combine)),
    max_leaves=6,
)
PROPERTIES = DEFINED_PROPERTIES.map(lambda pair: pair[0])


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


def per_row_classical_capacity(p, pprime, k, domain, x_restrict=None):
    """One Database and one holds call per (database, window, fresh draw), the
    first (database, window) pair whose hit rate exceeds the running best by
    1e-15 kept, databases outer."""
    spec = domain.spec
    pool = tuple(domain.inputs if x_restrict is None else x_restrict)
    best, best_witness = 0.0, None
    for values in itertools.product(range(spec.order + 1), repeat=domain.size):
        db = Database(domain, values)
        if not p.holds(db):
            continue
        for xs in itertools.permutations(pool, k):
            fresh = [x for x in xs if not db.defined(x)]
            hits = 0
            for draw in itertools.product(spec.elements(), repeat=len(fresh)):
                if pprime.holds(db.update(fresh, draw)):
                    hits += 1
            prob = hits / (spec.order ** len(fresh))
            if prob > best + 1e-15:
                best = prob
                best_witness = {"xs": list(xs), "database": sparse_encode(db)}
    return best, best_witness


def nested_loop_exteriors(domain, xs):
    """window_exteriors as first written: one value tuple per assignment of
    the inputs outside the window, which stay undefined."""
    window = {domain.index(x) for x in xs}
    others = [i for i in range(domain.size) if i not in window]
    values = [domain.spec.bot] * domain.size
    for assignment in itertools.product(range(domain.spec.order + 1), repeat=len(others)):
        for i, v in zip(others, assignment):
            values[i] = v
        yield tuple(values)


class TestHoldsBatch:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_row_definitions(self, data):
        spec = data.draw(st.sampled_from(SPECS))
        domain = bit_domain(spec)
        p, defn = data.draw(DEFINED_PROPERTIES)
        rows = data.draw(st.lists(st.lists(st.integers(0, spec.bot), min_size=domain.size,
                                           max_size=domain.size), max_size=20))
        rows.append([spec.bot] * domain.size)
        dtype = data.draw(st.sampled_from([value_dtype(spec), np.int64]))
        got = p.holds_batch(np.array(rows, dtype=dtype), domain)
        want = [defn(Database(domain, tuple(r))) for r in rows]
        assert got.dtype == bool and got.tolist() == want, p.name

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_holds_is_the_one_row_batch(self, data):
        spec = data.draw(st.sampled_from(SPECS))
        domain = bit_domain(spec)
        p = data.draw(PROPERTIES)
        row = data.draw(st.lists(st.integers(0, spec.bot), min_size=domain.size, max_size=domain.size))
        db = Database(domain, tuple(row))
        assert p.holds(db) == p.holds_batch([db.values], domain)[0], p.name

    PARSED = [
        ("!(PRMG|CL)&SIZE<=2",
         lambda db: not (preimage_of(0)(db) or has_collision(db)) and size_at_most_def(2)(db)),
        ("PRMG[target=1]|BOT", lambda db: preimage_of(1)(db) or not defined_values(db)),
        ("!CHN[s=1]", lambda db: not chain_of(1, EQ)(db)),
        ("TRUE&!FALSE", lambda db: True),
    ]

    @pytest.mark.parametrize("text, defn", PARSED, ids=[text for text, _ in PARSED])
    def test_parsed_expressions(self, text, defn):
        domain = bit_domain(GroupSpec.bits(1))
        rows = np.array(list(itertools.product(range(3), repeat=domain.size)))
        want = [defn(Database(domain, tuple(r))) for r in rows.tolist()]
        assert parse_property(text).holds_batch(rows, domain).tolist() == want

    @pytest.mark.parametrize("deciders", [{}, {"pred": lambda db: True, "batch": properties_mod._all_true}],
                             ids=["neither", "both"])
    def test_exactly_one_decider(self, deciders):
        with pytest.raises(ValueError, match="exactly one of pred and batch"):
            DatabaseProperty("P", **deciders)

    def test_custom_predicate_falls_back_to_holds(self):
        domain = bit_domain(GroupSpec.bits(1))
        seen = []
        odd = DatabaseProperty("ODD", lambda db: seen.append(db.values) or sum(db.values) % 2 == 1)
        rows = np.array([[0, 0, 0, 1], [2, 2, 2, 2]])
        assert (odd & prmg()).holds_batch(rows, domain).tolist() == [True, False]
        assert seen == [(0, 0, 0, 1), (2, 2, 2, 2)]

    def test_window_view_matches_restrict(self):
        domain = bit_domain(GroupSpec.cyclic(3))
        p = ~cl() | chn(2, EQ)
        xs = ("10", "00")
        exteriors = list(capacity_mod.window_exteriors(domain, xs))
        masks = window_view(truth_table(p, domain), domain, xs)
        window = [tuple(r) for r in window_tuples(domain.spec, 2).tolist()]
        for values, mask in zip(exteriors, masks):
            got = frozenset(r for r, m in zip(window, mask) if m)
            assert got == restrict(p, Database(domain, values), xs)


class TestTruthTable:
    WINDOWS = [("10", "00"), ("00", "01"), ("11",), ("01", "11", "00"), ("00", "01", "10", "11")]

    def views_match_masks(self, p, domain):
        table = truth_table(p, domain)
        assert table.shape == (domain.spec.order + 1,) * domain.size
        for xs in self.WINDOWS:
            masks = [per_row_window_mask(p, Database(domain, values), xs)
                     for values in capacity_mod.window_exteriors(domain, xs)]
            assert np.array_equal(window_view(table, domain, xs), masks), (p.name, xs)

    @given(spec=st.sampled_from(SPECS[:3]), p=PROPERTIES)
    @settings(max_examples=40, deadline=None)
    def test_view_equals_per_row_masks(self, spec, p):
        self.views_match_masks(p, bit_domain(spec))

    @pytest.mark.parametrize("text", ["!CL|CHN[s=2]", "PRMG[target=1]&SIZE<=2", "!(PRMG|CL)"])
    def test_small_chunks(self, monkeypatch, text):
        monkeypatch.setattr(properties_mod, "MASK_ROWS", 40)
        self.views_match_masks(parse_property(text), bit_domain(GroupSpec.cyclic(3)))

    def test_table_is_canonical_order(self):
        domain = bit_domain(GroupSpec.bits(1))
        p = DatabaseProperty("ODD", lambda db: sum(db.values) % 2 == 1)
        want = [p.holds(db) for db in properties_mod.iter_databases(domain)]
        assert truth_table(p, domain).ravel().tolist() == want

    @pytest.mark.parametrize("spec", SPECS)
    def test_offsets_read_every_window_view(self, spec):
        domain = bit_domain(spec)
        table = np.random.default_rng(spec.order).random((spec.order + 1,) * domain.size) < 0.5
        for k in range(1, domain.size + 1):
            windows = list(itertools.permutations(("11", "00", "10", "01"), k))
            positions = np.array([[domain.index(x) for x in xs] for xs in windows])
            index, cols = window_offsets(domain, positions)
            assert index.dtype == cols.dtype == np.min_scalar_type((spec.order + 1) ** domain.size - 1)
            for w, xs in enumerate(windows):
                gathered = table.ravel()[index[w][:, None] + cols[w][None, :]]
                assert np.array_equal(gathered, window_view(table, domain, xs)), xs

    @pytest.mark.parametrize("spec", [GroupSpec.bits(1), GroupSpec.cyclic(3)])
    def test_window_exteriors_match_nested_loop(self, spec):
        domain = bit_domain(spec)
        for xs in self.WINDOWS:
            assert list(capacity_mod.window_exteriors(domain, xs)) == list(nested_loop_exteriors(domain, xs))
            values = exterior_values(domain, xs)
            assert [tuple(r) for r in values.tolist()] == list(nested_loop_exteriors(domain, xs))


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
    @pytest.mark.parametrize("k", [1, 2, 3])
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


class TestBlocksAndKeys:
    """The engine's two kernels against the numpy calls they replace: blocks
    gathered from their factors against the Kronecker product, and packed
    row keys against np.unique over axis 0."""

    @pytest.mark.parametrize("spec", [GroupSpec.bits(1), GroupSpec.bits(2), GroupSpec.cyclic(3)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gathered_blocks_equal_kron(self, spec, k):
        dim = (spec.order + 1) ** k
        rng = np.random.default_rng(dim + spec.order)
        one_entry = np.zeros(dim, dtype=bool)
        one_entry[rng.integers(dim)] = True
        masks = [(np.ones(dim, dtype=bool), np.ones(dim, dtype=bool)),
                 (one_entry, np.ones(dim, dtype=bool)), (np.ones(dim, dtype=bool), one_entry)]
        masks += [(rng.random(dim) < 0.5, rng.random(dim) < 0.3) for _ in range(4)]
        yhat_tuples = list(itertools.product(range(spec.order), repeat=k))
        gammas = [reduce(np.kron, [transition_matrix(spec, y) for y in yhats]) for yhats in yhat_tuples]
        for in_mask, out_mask in masks:
            blocks = list(capacity_mod.window_blocks(spec, k, in_mask, out_mask))
            assert len(blocks) == len(gammas)
            for yhats, block, gamma in zip(yhat_tuples, blocks, gammas):
                assert np.array_equal(block, gamma[np.ix_(out_mask, in_mask)]), yhats

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_packed_keys_match_unique_rows(self, data):
        width = data.draw(st.integers(1, 40).filter(lambda w: w % 8), label="width")
        row = st.lists(st.booleans(), min_size=width, max_size=width)
        if data.draw(st.booleans(), label="identical"):
            rows = [data.draw(row)] * data.draw(st.integers(1, 12))
        else:
            rows = data.draw(st.lists(row, min_size=1, max_size=30))
        rows = np.array(rows, dtype=bool)
        pairs, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        got_first, got_inverse = properties_mod.unique_rows(rows)
        assert got_first.tolist() == first.tolist()
        assert got_inverse.tolist() == inverse.reshape(-1).tolist()
        assert np.array_equal(rows[got_first], pairs)


class TestClassicalAgainstPerRow:
    CASES = [
        (~prmg(), prmg()),
        (~cl(), cl()),
        (~chn(1, EQ), chn(2, EQ)),
        # the maximum 1 recurs at every database and window, so the witness
        # is the first database and, within it, the first window
        (true_prop(), true_prop()),
        (empty_db_prop() | size_at_most(1), prmg(1) | cl()),
        (false_prop(), prmg()),
        (true_prop(), false_prop()),
    ]

    @pytest.mark.parametrize("spec", [GroupSpec.bits(1), GroupSpec.cyclic(3)])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("x_restrict", [None, ("11", "01", "10")])
    def test_named_transitions(self, spec, k, x_restrict):
        domain = bit_domain(spec)
        for p, pprime in self.CASES:
            report = classical_capacity_exact(p, pprime, k, domain, x_restrict)
            value, witness = per_row_classical_capacity(p, pprime, k, domain, x_restrict)
            assert (report.value, report.witness) == (value, witness), (p.name, pprime.name)

    def test_equal_maxima_recur(self):
        # !PRMG -> PRMG at k=1 reaches 1/M at every undefined window entry of
        # every PRMG-free database; the first is the last input of (1, 1, 1, bot)
        domain = bit_domain(GroupSpec.cyclic(3))
        report = classical_capacity_exact(~prmg(), prmg(), 1, domain)
        assert report.value == 1 / 3
        assert report.witness == {"xs": ["11"], "database": [("00", 1), ("01", 1), ("10", 1)]}
        assert (report.value, report.witness) == per_row_classical_capacity(~prmg(), prmg(), 1, domain)

    @pytest.mark.parametrize("spec", [GroupSpec.bits(1), GroupSpec.cyclic(3)])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("x_restrict", [None, ("01", "00")])
    @given(p=PROPERTIES, pprime=PROPERTIES)
    @settings(max_examples=10, deadline=None)
    def test_random_transitions(self, spec, k, x_restrict, p, pprime):
        domain = bit_domain(spec)
        report = classical_capacity_exact(p, pprime, k, domain, x_restrict)
        value, witness = per_row_classical_capacity(p, pprime, k, domain, x_restrict)
        assert report.value == value and report.witness == witness, (p.name, pprime.name)


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
    assert capacity_mod.recognizability_bound(name, pprime, k, domain) == per_pair_bound(name, pprime, k, domain)


FAMILY_TARGETS = ["PRMG", "PRMG[target=1]", "CL", "CHN[s=2]", "CHN[s=2,rel=prefix]", "CHN[s=1,rel=substring]"]


# (n, k, pool): every window width at n=2, a restricted unsorted pool, and
# windows on every input of n=1, which have no exterior
FAMILY_WINDOWS = [(2, k, pool) for pool in (None, ("11", "00", "10")) for k in (1, 2, 3)] + [(1, 2, None)]


@pytest.mark.parametrize("n,k,pool", FAMILY_WINDOWS)
@pytest.mark.parametrize("spec", [GroupSpec.bits(1), GroupSpec.cyclic(3)], ids=["bits1", "cyclic3"])
@pytest.mark.parametrize("text", FAMILY_TARGETS)
def test_canonical_family_dominates_every_exterior(text, spec, n, k, pool):
    # the bound reads one family: it must have every exterior's members, in
    # their order, each weighing at least as much, or it could miss the maximum
    domain, pprime = bit_domain(spec, n), parse_property(text)
    for xs in capacity_mod.query_windows(domain, k, pool):
        family = properties_mod.canonical_family(pprime, domain, xs)
        for other in per_exterior_families(pprime, domain, xs):
            assert [(lp.support, lp.locality) for lp in family] == [(lp.support, lp.locality) for lp in other]
            assert all(a.weight >= b.weight for a, b in zip(family, other)), (xs, other)


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


# The first reports whose bound is below 1, at k=1: their values, bounds and
# the SHA-256 of the report bytes.
NON_VACUOUS_REPORTS = [
    (["--p", "!PRMG", "--pprime", "PRMG", "--domain", "n=2,m=4"],
     "d4b1987c483729dfb1fa292897dd5f6d4617896622d8af21a78e3b34c2df0784",
     {"value": 0.347985272677, "bound": 0.790569415042, "holds": True}),
    (["--p", "!CHN[s=1]", "--pprime", "CHN[s=2]", "--domain", "n=1,m=5"],
     "15f9445d619f3f44850120b0d57debe2ab5f11289952639d9f673f10cb89eed9",
     {"value": 0.421585548851, "bound": 0.790569415042, "holds": True}),
]


@pytest.mark.parametrize("argv,sha256,expected", NON_VACUOUS_REPORTS, ids=["prmg-m4", "chn-m5"])
def test_non_vacuous_reports_pinned(tmp_path, argv, sha256, expected):
    out = tmp_path / "report.json"
    assert cli.main(["capacity", *argv, "--k", "1", "--bound", "thm5.7", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert {key: record[key] for key in expected} == expected
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# Sub-second reports of each bound, 2-local CL weights among them, pinned to
# the SHA-256 of their bytes; the substring one is the only report of that
# relation.
BOUND_REPORTS = [
    (["--p", "!CL", "--pprime", "CL", "--k", "2", "--domain", "n=2,m=2", "--kind", "cyclic",
      "--bound", "thm5.12"],
     "086a356376dbaec0348041915ea8ae6814bd55f6ee4f53476d64b5a80ddc73e4"),
    (["--p", "!PRMG", "--pprime", "PRMG", "--k", "2", "--domain", "n=2,m=2", "--kind", "cyclic",
      "--bound", "thm5.7"],
     "68c4314be39f5a4cf587f6fbc38676e14b3ec8664be06b31b6902dca22bb2544"),
    (["--p", "!CHN[s=1]", "--pprime", "CHN[s=2]", "--k", "1", "--domain", "n=2,m=2", "--kind", "cyclic",
      "--bound", "thm5.9"],
     "d3faf7aa91487a520e7ee7c1326e26b2f6104341f0674b03e748dd5a28f9ae94"),
    (["--p", "!CL", "--pprime", "CL", "--k", "2", "--domain", "n=1,m=4", "--bound", "thm5.12"],
     "2684833e2bf1e372ee24d81b10f8eb720bf671c1265eceed9870e70b35319e3c"),
    (["--p", "!CHN[s=1,rel=substring]", "--pprime", "CHN[s=2,rel=substring]", "--k", "1",
      "--domain", "n=3,m=1", "--bound", "thm5.9"],
     "ea436a8b63d58bb501b142b0229ba962c065d7a11f4c661dd85483568f062964"),
]


@pytest.mark.parametrize("argv,sha256", BOUND_REPORTS,
                         ids=["cl-cyclic-thm5.12", "prmg-cyclic-thm5.7", "chn-cyclic-thm5.9", "cl-m4-thm5.12",
                              "chn-substring-thm5.9"])
def test_bound_reports_pinned(tmp_path, argv, sha256):
    out = tmp_path / "report.json"
    assert cli.main(["capacity", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# The simulate reports of a one-query Grover circuit file, exact and with 200
# seeded shots, pinned to the SHA-256 of their bytes.
GROVER_CIRCUIT = {
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
SIMULATE_REPORTS = [
    ([], [], "16b536819bcd3e06f0b94ae48a9226386915e6819598ac80854db5c643ec1aeb"),
    (["--seed", "4"], ["--shots", "200"], "69ffc8d3202df883dbe0faf34ca8fdb35f8b806a511485d904ebc9a06b3fc676"),
]


@pytest.mark.parametrize("seed,shots,sha256", SIMULATE_REPORTS, ids=["grover-exact", "grover-shots"])
def test_simulate_reports_pinned(tmp_path, seed, shots, sha256):
    circuit, out = tmp_path / "circuit.json", tmp_path / "report.json"
    circuit.write_text(json.dumps(GROVER_CIRCUIT))
    assert cli.main([*seed, "simulate", "--circuit", str(circuit), *shots, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestHotPath:
    """The budget-edge jobs decide properties only through truth tables and
    build a Database only for the witness and for the bound's one family."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"holds": 0, "database": 0, "families": 0}
        holds, init, family = DatabaseProperty.holds, Database.__init__, properties_mod.collision_local_family

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(DatabaseProperty, "holds", counted("holds", holds))
        monkeypatch.setattr(Database, "__init__", counted("database", init))
        monkeypatch.setattr(properties_mod, "collision_local_family", counted("families", family))
        return counts

    def run(self, tmp_path, *extra):
        argv = ["capacity", "--p", "!CL", "--pprime", "CL", "--k", "2", "--domain", "n=3,m=1",
                "--out", str(tmp_path / "report.json"), *extra]
        assert cli.main(argv) == 0

    def test_quantum_with_bound(self, tmp_path, counts):
        self.run(tmp_path, "--bound", "thm5.12")
        assert counts["holds"] == 0
        # the first of the 56 windows only, at the exterior with the value
        # set {0, 1}: it outweighs every other exterior in every window
        assert counts["families"] == 1
        assert counts["database"] == 1 + counts["families"]

    def test_classical(self, tmp_path, counts):
        self.run(tmp_path, "--classical")
        assert counts == {"holds": 0, "database": 1, "families": 0}
