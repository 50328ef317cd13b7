"""Exact transition capacities, recognizability bound evaluators, and the calculus."""

import itertools
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import capacity as capacity_mod
from qromlab.capacity import (
    CapacityReport,
    bound_thm_general,
    bound_thm_simple,
    bound_thm_tricky,
    check_enumeration,
    classical_capacity_exact,
    multi_step_bound,
    operator_norm,
    quantum_capacity_exact,
    query_windows,
    recognizability_bound,
    verify_calculus,
    window_blocks,
    window_exteriors,
    window_pool,
)
from qromlab.groups import GroupSpec
from qromlab.oracle import Database, OracleDomain, sparse_encode
from qromlab.properties import (
    MASK_ROWS,
    WINDOW_DIM_BUDGET,
    ChainRelation,
    DatabaseProperty,
    LocalFamily,
    LocalProperty,
    chain_local_family,
    check_strong_recognizes,
    check_weak_recognizes,
    chn,
    cl,
    collision_local_family,
    false_prop,
    iter_databases,
    prmg,
    prmg_local_family,
    size_at_most,
    true_prop,
    truth_table,
    unique_rows,
    window_tuples,
)
from reference import per_pair_bound, projector, restrict, support_size, window_view

E = math.e
EQ = ChainRelation("equality")
PREFIX = ChainRelation("prefix")


def make_domain(n_inputs, m=1):
    labels = ("a", "b", "c", "d")[:n_inputs]
    return OracleDomain(labels, GroupSpec.bits(m))


def resampling_oracle(p, pprime, k, domain):
    """Independent brute-force classical capacity: enumerate every database on
    the p side, every distinct query vector, and every full draw vector,
    applying the lazy-sampling update rule literally."""
    spec = domain.spec
    best = 0.0
    for values in itertools.product(range(spec.order + 1), repeat=domain.size):
        db = Database(domain, values)
        if not p.holds(db):
            continue
        for xs in itertools.permutations(domain.inputs, k):
            hits = 0
            for draw in itertools.product(spec.elements(), repeat=k):
                updated = db
                for x, y in zip(xs, draw):
                    if not db.defined(x):
                        updated = updated.update((x,), (y,))
                if pprime.holds(updated):
                    hits += 1
            best = max(best, hits / spec.order ** k)
    return best


class TestQuantumCapacity:
    def test_empty_target_is_zero(self):
        dom = make_domain(2)
        report = quantum_capacity_exact(true_prop(), false_prop(), 1, dom)
        assert report.value == 0.0 and report.witness is None

    def test_preimage_hand_value(self):
        dom = make_domain(2)
        report = quantum_capacity_exact(~prmg(), prmg(), 1, dom)
        assert report.value == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
        assert report.witness["yhats"] == [1]

    @pytest.mark.parametrize("m,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_preimage_below_simple_bound(self, m, k):
        dom = make_domain(3, m=m)
        report = quantum_capacity_exact(~prmg(), prmg(), k, dom)
        assert report.value <= math.sqrt(10.0 * k / dom.spec.order) + 1e-9

    def test_value_never_exceeds_one(self):
        dom = make_domain(2)
        for p, pprime in [(true_prop(), true_prop()), (~cl(), cl()), (~prmg(), prmg())]:
            report = quantum_capacity_exact(p, pprime, 2, dom)
            assert report.value <= 1.0 + 1e-9

    def test_k_larger_than_restriction_rejected(self):
        dom = make_domain(2)
        with pytest.raises(ValueError):
            quantum_capacity_exact(prmg(), prmg(), 2, dom, x_restrict=("a",))

    def test_witness_is_lexicographically_first(self):
        dom = make_domain(2)
        report = quantum_capacity_exact(~prmg(), prmg(), 1, dom)
        assert report.witness["xs"] == ["a"]
        assert report.witness["database"] in ([], [("b", 1)], [("b", 2)])

    def test_witness_reproduces_value(self):
        from functools import reduce

        from qromlab.groups import transition_matrix
        from qromlab.oracle import Database
        dom = make_domain(3)
        for p, pprime, k in [(~prmg(), prmg(), 1), (~cl(), cl(), 2),
                             (~chn(1, EQ), chn(2, EQ), 2)]:
            rep = quantum_capacity_exact(p, pprime, k, dom)
            xs = tuple(rep.witness["xs"])
            db = Database.from_entries(dom, dict(rep.witness["database"]))
            gam = reduce(np.kron, [np.asarray(transition_matrix(dom.spec, y))
                                   for y in rep.witness["yhats"]])
            p_in = projector(restrict(p, db, xs), k, dom.spec)
            p_out = projector(restrict(pprime, db, xs), k, dom.spec)
            assert operator_norm(p_out @ gam @ p_in) == pytest.approx(rep.value, abs=1e-9)

    def test_restricted_inputs(self):
        dom = make_domain(3)
        full = quantum_capacity_exact(~prmg(), prmg(), 1, dom)
        restricted = quantum_capacity_exact(~prmg(), prmg(), 1, dom, x_restrict=("b",))
        assert restricted.value == pytest.approx(full.value, abs=1e-9)

    def test_symmetry(self):
        dom = make_domain(2)
        fwd = quantum_capacity_exact(~prmg(), prmg(), 1, dom).value
        bwd = quantum_capacity_exact(prmg(), ~prmg(), 1, dom).value
        assert fwd == pytest.approx(bwd, abs=1e-9)

    def test_neutral_dual_contributes_nothing_for_disjoint_sides(self):
        # the identity matrix pinched by orthogonal projectors vanishes, so a
        # transition between complementary properties never picks yhat = 0
        dom = make_domain(2)
        for p, pprime in [(~prmg(), prmg()), (~cl(), cl())]:
            report = quantum_capacity_exact(p, pprime, 1, dom)
            assert report.value > 0
            assert report.witness["yhats"] != [0]


class TestClassicalCapacity:
    def test_never_target_is_zero(self):
        dom = make_domain(2)
        assert classical_capacity_exact(true_prop(), false_prop(), 1, dom).value == 0.0

    def test_preimage_single_query(self):
        for m in (1, 2):
            dom = make_domain(2, m=m)
            report = classical_capacity_exact(~prmg(), prmg(), 1, dom)
            assert report.value == pytest.approx(1.0 / dom.spec.order)

    def test_preimage_two_fresh_points(self):
        dom = make_domain(2)
        report = classical_capacity_exact(~prmg(), prmg(), 2, dom)
        assert report.value == pytest.approx(0.75)  # 1 - (1 - 1/2)^2

    @pytest.mark.parametrize("m,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_independent_resampling_oracle(self, m, k):
        dom = make_domain(3, m=m)
        grid = [(~prmg(), prmg()), (~cl(), cl()), (~chn(1, EQ), chn(2, EQ)),
                (size_at_most(1), cl())]
        for p, pprime in grid:
            exact = classical_capacity_exact(p, pprime, k, dom).value
            brute = resampling_oracle(p, pprime, k, dom)
            assert exact == pytest.approx(brute, abs=1e-12)

    def test_preimage_exact_below_union_bound(self):
        for m, k in [(1, 1), (1, 2), (2, 2)]:
            dom = make_domain(2, m=m)
            value = classical_capacity_exact(~prmg(), prmg(), k, dom).value
            expected = 1.0 - (1.0 - 1.0 / dom.spec.order) ** k
            assert value == pytest.approx(expected)
            assert value <= k / dom.spec.order + 1e-12


class TestMultiStep:
    def test_examples(self):
        assert multi_step_bound([]) == 0.0
        assert multi_step_bound([0.25]) == 0.25
        assert multi_step_bound([0.1, 0.1, 0.1]) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            multi_step_bound([-0.1])


class TestBoundEvaluators:
    def test_simple_trivial_families_give_zero(self):
        spec = GroupSpec.bits(1)
        fam = LocalFamily((LocalProperty.constant(True, spec, support=("a",)),))
        assert bound_thm_simple([fam]) == 0.0

    def test_simple_prmg_value(self):
        spec = GroupSpec.bits(1)
        for k in (1, 2):
            fam = prmg_local_family(("a", "b")[:k], spec)
            assert bound_thm_simple([fam]) == pytest.approx(math.sqrt(10.0 * k / 2))

    def test_simple_reports_above_one(self):
        spec = GroupSpec.bits(1)
        fam = prmg_local_family(("a",), spec)
        assert bound_thm_simple([fam]) == pytest.approx(math.sqrt(5), abs=1e-9)

    def test_tricky_examples(self):
        spec = GroupSpec.bits(3)
        assert bound_thm_tricky([LocalFamily(())]) == 0.0
        fam = LocalFamily(tuple(
            LocalProperty.one_local(x, (0,), spec, name=f"L{x}") for x in ("a", "b")
        ))
        assert bound_thm_tricky([fam]) == pytest.approx(2 * E * math.sqrt(10.0 / 8), abs=1e-9)
        assert bound_thm_tricky([fam]) == pytest.approx(6.078, abs=1e-3)

    def test_tricky_chain_families_below_closed_form(self):
        # size-bounded exteriors keep the evaluator below e*k*sqrt(10kqT/M)
        dom = make_domain(3, m=2)
        big_t = EQ.t_bound(dom)
        for k, q in [(1, 2), (2, 2)]:
            for db in iter_databases(dom):
                if support_size(db) > k * (q - 1):
                    continue
                for xs in itertools.permutations(dom.inputs, k):
                    value = bound_thm_tricky([chain_local_family(db, xs, EQ)])
                    envelope = E * k * math.sqrt(10.0 * k * q * big_t / dom.spec.order)
                    assert value <= envelope + 1e-9

    def test_general_matches_e_times_simple_for_one_local(self):
        spec = GroupSpec.bits(1)
        fam = prmg_local_family(("a", "b"), spec)
        assert bound_thm_general([fam]) == pytest.approx(E * bound_thm_simple([fam]), abs=1e-9)

    def test_general_collision_form(self):
        # exteriors with support <= k(q-1) keep the evaluator below the
        # closed-form 2ek sqrt(10 q / M) envelope
        dom = make_domain(3)
        k, q = 2, 2
        for db in iter_databases(dom):
            exterior = db.update(("a", "b"), (dom.spec.bot, dom.spec.bot))
            if support_size(exterior) > k * (q - 1):
                continue
            fam = collision_local_family(exterior, ("a", "b"))
            value = bound_thm_general([fam])
            assert value <= 2 * E * k * math.sqrt(10.0 * q / dom.spec.order) + 1e-9

    def test_non_one_local_rejected_by_simple(self):
        spec = GroupSpec.bits(1)
        pair = LocalProperty(("a", "b"), frozenset({(0, 0)}), spec)
        with pytest.raises(ValueError):
            bound_thm_simple([LocalFamily((pair,))])


# The per-assignment definitions the weight replaced: the restriction of a
# local property at one support position, and the bound evaluators built on it.


def restrict_at(lp, x, assignment):
    """L|_{D'|^x} as a subset of Y u {bot}: fix all support positions except x
    per the assignment and collect the accepted values at x."""
    out = set()
    for v in range(lp.spec.order + 1):
        probe = tuple(assignment[s] if s != x else v for s in lp.support)
        if probe in lp.members:
            out.add(v)
    return frozenset(out)


def restriction_weight(lp):
    """max over x in Supp and assignments D' of P[U in L|_{D'|^x}], trivial
    restrictions counting 0, by enumerating every assignment."""
    spec = lp.spec
    worst = 0.0
    for x in lp.support:
        others = [s for s in lp.support if s != x]
        for values in itertools.product(range(spec.order + 1), repeat=len(others)):
            restricted = restrict_at(lp, x, dict(zip(others, values)))
            if len(restricted) in (0, spec.order + 1):
                continue
            worst = max(worst, sum(1 for v in restricted if v != spec.bot) / spec.order)
    return worst


def uniform_probability(lp):
    return sum(1 for (v,) in lp.members if v != lp.spec.bot) / lp.spec.order


def one_local_weight(lp):
    if lp.locality > 1 and not lp.is_trivial:
        raise ValueError(f"{lp.name} is not 1-local")
    return 0.0 if lp.is_trivial else uniform_probability(lp)


def reference_thm_simple(families):
    best = 0.0
    for fam in families:
        total = sum(one_local_weight(lp) for lp in fam)
        best = max(best, math.sqrt(10.0 * total))
    return best


def reference_thm_tricky(families):
    best = 0.0
    for fam in families:
        total = 0.0
        for lp in fam:
            if lp.locality > 1:
                raise ValueError(f"{lp.name} is not 1-local")
            weight = 1.0 if (lp.is_constant_true and lp.locality == 0) else (
                uniform_probability(lp) if lp.locality == 1 else 0.0
            )
            total += math.sqrt(10.0 * weight)
        best = max(best, E * total)
    return best


def reference_thm_general(families):
    best = 0.0
    for fam in families:
        ell = fam.max_locality
        if ell == 0:
            continue
        total = 0.0
        for lp in fam:
            if not lp.is_trivial:
                total += restriction_weight(lp)
        best = max(best, E * ell * math.sqrt(10.0 * total))
    return best


WEIGHT_SPECS = (GroupSpec.bits(1), GroupSpec.bits(2), GroupSpec.cyclic(3))


def bot_closure(members, spec):
    """The least bot-monotone superset: a member with bot at position i
    brings every range value at i."""
    closed, todo = set(), list(members)
    while todo:
        m = todo.pop()
        if m not in closed:
            closed.add(m)
            todo += [m[:i] + (y,) + m[i + 1:] for i, v in enumerate(m) if v == spec.bot
                     for y in spec.elements()]
    return frozenset(closed)


@st.composite
def local_properties(draw, spec, support, monotone=True):
    """A local property on support: constant true, constant false, or a
    random member set, closed to be bot-monotone when monotone is set."""
    kind = draw(st.sampled_from(("random", "random", "true", "false")))
    if kind != "random":
        return LocalProperty.constant(kind == "true", spec, support=support)
    tuples = list(itertools.product(range(spec.order + 1), repeat=len(support)))
    members = draw(st.sets(st.sampled_from(tuples)))
    return LocalProperty(support, bot_closure(members, spec) if monotone else frozenset(members), spec)


@st.composite
def local_families(draw, spec, max_ell):
    supports = draw(st.lists(st.permutations(("a", "b", "c", "d")).flatmap(
        lambda order: st.integers(0, max_ell).map(lambda ell: tuple(order[:ell]))),
        unique=True, max_size=4))
    return LocalFamily(tuple(draw(local_properties(spec, support)) for support in supports))


def outcome(evaluate, families):
    try:
        return evaluate(families)
    except ValueError as exc:
        return str(exc)


class TestWeightAgainstRestrictions:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_weight_is_the_largest_restriction_probability(self, data):
        spec = data.draw(st.sampled_from(WEIGHT_SPECS))
        support = ("a", "b", "c")[:data.draw(st.integers(0, 3))]
        # the weight is defined, and counted, for members that are not
        # bot-monotone too, where a restriction may hold bot without Y
        lp = data.draw(local_properties(spec, support, monotone=data.draw(st.booleans())))
        assert lp.weight == restriction_weight(lp)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_evaluators_equal_the_restriction_definitions(self, data):
        spec = data.draw(st.sampled_from(WEIGHT_SPECS))
        max_ell = data.draw(st.integers(1, 3))
        families = data.draw(st.lists(local_families(spec, max_ell), max_size=3))
        for evaluate, reference in ((bound_thm_simple, reference_thm_simple),
                                    (bound_thm_tricky, reference_thm_tricky),
                                    (bound_thm_general, reference_thm_general)):
            assert outcome(evaluate, families) == outcome(reference, families)


class TestExactAgainstRecognizabilityBounds:
    def test_chain_capacity_below_tricky_bound(self):
        dom = make_domain(3)
        for k in (1, 2):
            for s in (1, 2):
                p, pprime = ~chn(s, EQ), chn(s + 1, EQ)
                families = []
                for xs in itertools.permutations(dom.inputs, k):
                    for db in iter_databases(dom):
                        fam = chain_local_family(db, xs, EQ)
                        assert check_weak_recognizes(fam, p, pprime, xs, db)
                        families.append(fam)
                exact = quantum_capacity_exact(p, pprime, k, dom).value
                assert exact <= bound_thm_tricky(families) + 1e-9

    def test_collision_capacity_below_general_bound(self):
        dom = make_domain(3)
        for k in (1, 2):
            p, pprime = ~cl(), cl()
            families = []
            for xs in itertools.permutations(dom.inputs, k):
                for db in iter_databases(dom):
                    exterior = db.update(xs, (dom.spec.bot,) * k)
                    if cl().holds(exterior):
                        continue
                    fam = collision_local_family(exterior, xs)
                    assert check_strong_recognizes(fam, pprime, pprime, xs, exterior)
                    families.append(fam)
            exact = quantum_capacity_exact(p, pprime, k, dom).value
            assert exact <= bound_thm_general(families) + 1e-9

    def test_preimage_capacity_below_simple_bound_with_recognizability(self):
        dom = make_domain(2)
        fam_values = []
        for xs in itertools.permutations(dom.inputs, 1):
            for db in iter_databases(dom):
                exterior = db.update(xs, (dom.spec.bot,))
                if any(v == 0 for v in exterior.values):
                    continue  # outside zero: the canonical family is trivial there
                fam = prmg_local_family(xs, dom.spec)
                assert check_strong_recognizes(fam, prmg(), prmg(), xs, exterior)
                fam_values.append(fam)
        exact = quantum_capacity_exact(~prmg(), prmg(), 1, dom).value
        assert exact <= bound_thm_simple(fam_values) + 1e-9


class TestCalculus:
    def grid(self):
        dom = make_domain(3)
        pool = [prmg(), cl(), chn(1, EQ), size_at_most(1), ~prmg()]
        instances = []
        for p, q in itertools.permutations(pool, 2):
            instances.append((p, cl() | prmg(), q))
        return dom, instances

    def test_intersection_equality_when_p_equals_q(self):
        dom = make_domain(2)
        checks = verify_calculus(prmg(), cl(), prmg(), 2, (1, 1),
                                 (("a", "b"), ("a", "b")), dom)
        rec = {c.rule: c for c in checks}
        assert rec["shrink-intersection"].lhs == pytest.approx(
            rec["shrink-intersection"].rhs, abs=1e-9)

    def test_symmetry_exact(self):
        dom = make_domain(2)
        checks = verify_calculus(~prmg(), prmg(), cl(), 2, (1, 1),
                                 (("a", "b"), ("a", "b")), dom)
        rec = {c.rule: c for c in checks}
        assert abs(rec["symmetry-forward"].lhs - rec["symmetry-forward"].rhs) <= 1e-9

    def test_grid_instances_all_hold(self):
        dom, instances = self.grid()
        splits = (("a", "b"), ("b", "c"))
        count = 0
        for p, pprime, q in instances:
            checks = verify_calculus(p, pprime, q, 2, (1, 1), splits, dom)
            for c in checks:
                assert c.holds, (p.name, pprime.name, q.name, c.rule, c.lhs, c.rhs)
            count += 1
        assert count >= 20

    def test_properties_sharing_a_name_are_kept_apart(self):
        # both custom relations are named rel=custom; only the first relates
        dom = make_domain(2)
        always = ChainRelation("custom", fn=lambda y, x: True)
        never = ChainRelation("custom", fn=lambda y, x: False)
        p, pprime, psecond = ~chn(1, always), chn(1, always), chn(1, never)
        assert pprime.name == psecond.name
        checks = verify_calculus(p, pprime, pprime, 2, (1, 1), (("a", "b"), ("a", "b")), dom,
                                 psecond=psecond)
        lhs = {c.rule: c.lhs for c in checks}
        assert lhs["symmetry-forward"] == pytest.approx(1.0)
        assert lhs["split-target"] == quantum_capacity_exact(p, psecond, 2, dom, ("a", "b")).value == 0.0

    def test_repeated_terms_computed_once(self, monkeypatch):
        # p and q are two parses of one atom, and composed terms recur
        calls = []
        engine = capacity_mod.quantum_capacity_exact

        def counted(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(capacity_mod, "quantum_capacity_exact", counted)
        verify_calculus(prmg(), cl(), prmg(), 2, (1, 1), (("a", "b"), ("b", "c")), make_domain(3))
        assert len(calls) == 21

    def test_bad_split_rejected(self):
        dom = make_domain(2)
        with pytest.raises(ValueError):
            verify_calculus(prmg(), cl(), prmg(), 2, (2, 1), (("a",), ("b",)), dom)


class TestFullSpaceCrossCheck:
    """Independent route to the one-round capacity: build the projected query
    operator on the full database space (no window restriction, no exterior
    canonicalization) and take the largest norm over query/dual vectors."""

    @staticmethod
    def full_space_capacity(p, pprime, k, dom):
        from functools import reduce

        from qromlab.groups import transition_matrix
        from qromlab.properties import iter_databases

        spec = dom.spec
        ext = spec.order + 1
        dbs = list(iter_databases(dom))
        index = {db.values: i for i, db in enumerate(dbs)}
        p_diag = np.array([p.holds(db) for db in dbs], dtype=float)
        pp_diag = np.array([pprime.holds(db) for db in dbs], dtype=float)
        best = 0.0
        for xs in itertools.permutations(dom.inputs, k):
            axes = [dom.index(x) for x in xs]
            for yhats in itertools.product(range(spec.order), repeat=k):
                op = np.zeros((len(dbs), len(dbs)), dtype=complex)
                gam = reduce(np.kron, [np.asarray(transition_matrix(spec, y))
                                       for y in yhats])
                for db in dbs:
                    col = index[db.values]
                    src = 0
                    for a in axes:
                        src = src * ext + db.values[a]
                    for dst in range(ext ** k):
                        window = []
                        rest = dst
                        for _ in range(k):
                            window.append(rest // ext ** (k - 1))
                            rest = (rest % ext ** (k - 1)) * ext
                        target = list(db.values)
                        for a, v in zip(axes, window):
                            target[a] = v
                        op[index[tuple(target)], col] = gam[dst, src]
                pinched = pp_diag[:, None] * op * p_diag[None, :]
                best = max(best, operator_norm(pinched))
        return best

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_window_enumeration(self, k):
        dom = make_domain(2)
        for p, pprime in [(~prmg(), prmg()), (~cl(), cl()),
                          (size_at_most(1), cl()), (~chn(1, EQ), chn(2, EQ))]:
            windowed = quantum_capacity_exact(p, pprime, k, dom).value
            full = self.full_space_capacity(p, pprime, k, dom)
            assert windowed == pytest.approx(full, abs=1e-9), (p.name, pprime.name)


WINDOW_USERS = {
    "windows": lambda k, dom, pool: query_windows(dom, k, pool),
    "quantum": lambda k, dom, pool: quantum_capacity_exact(~prmg(), prmg(), k, dom, pool),
    "classical": lambda k, dom, pool: classical_capacity_exact(~prmg(), prmg(), k, dom, pool),
    "bound": lambda k, dom, pool: recognizability_bound("thm5.7", prmg(), k, dom, pool),
}


class TestQueryWindows:
    def test_permutations_of_the_pool(self):
        dom = make_domain(3)
        assert query_windows(dom, 2) == list(itertools.permutations(dom.inputs, 2))
        assert query_windows(dom, 1, ("c", "a")) == [("c",), ("a",)]

    @pytest.mark.parametrize("k,pool,error", [
        (1, ("a", "z"), KeyError),
        (0, None, ValueError),
        (3, None, ValueError),
        (2, ("b",), ValueError),
        (1, ("a", "a"), ValueError),
    ], ids=["unknown-input", "k-zero", "k-above-domain", "k-above-pool", "repeated-input"])
    @pytest.mark.parametrize("user", WINDOW_USERS)
    def test_pool_is_validated(self, user, k, pool, error):
        with pytest.raises(error):
            WINDOW_USERS[user](k, make_domain(2), pool)


@given(st.integers(1, 40), st.integers(1, 30), st.integers(1, 16), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_enumeration_check_matches_the_exact_product(pool, k, order, exterior):
    """The capped, factor-by-factor check refuses exactly the jobs whose
    exact product exceeds the budget, for every pool that admits k."""
    k = min(k, pool)
    exact = math.perm(pool, k) * order ** k * (order + 1) ** exterior
    if exact > capacity_mod.ENUMERATION_BUDGET:
        with pytest.raises(ValueError, match="capacity enumeration exceeds the budget"):
            capacity_mod.check_enumeration(pool, k, order, exterior)
    else:
        capacity_mod.check_enumeration(pool, k, order, exterior)


class TestCalculusOnArbitraryProperties:
    """The calculus inequalities are property-agnostic; hammer them with
    unstructured random subsets of the database space."""

    DOM = OracleDomain(("a", "b"), GroupSpec.bits(1))
    ALL_DBS = tuple(iter_databases(OracleDomain(("a", "b"), GroupSpec.bits(1))))

    def subset_property(self, mask: int):
        chosen = frozenset(db.values for i, db in enumerate(self.ALL_DBS) if mask >> i & 1)
        name = f"S{mask:03x}"
        return DatabaseProperty(name, lambda db: db.values in chosen)

    @given(st.integers(0, 2 ** 9 - 1), st.integers(0, 2 ** 9 - 1),
           st.integers(0, 2 ** 9 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_property_triples(self, pm, ppm, qm):
        p = self.subset_property(pm)
        pprime = self.subset_property(ppm)
        q = self.subset_property(qm)
        # both split inputs cover the whole domain: k=2 needs two distinct
        # entries, so single-input restrictions are not meaningful here
        checks = verify_calculus(p, pprime, q, 2, (1, 1),
                                 (("a", "b"), ("a", "b")), self.DOM)
        for c in checks:
            assert c.holds, (pm, ppm, qm, c.rule, c.lhs, c.rhs)


class TestOperatorNorm:
    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
            assert operator_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])

    def test_empty_matrix(self):
        assert operator_norm(np.zeros((0, 0))) == 0.0

    @pytest.mark.parametrize("shape", [(3, 9), (9, 3), (5, 5), (1, 7), (7, 1), (1, 1)])
    def test_smaller_gram_matches_numpy_norm(self, shape):
        """Wide and tall blocks are normed through the smaller Gram matrix;
        both agree with numpy's spectral norm."""
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            expected = np.linalg.norm(a, 2)
            assert abs(operator_norm(a) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_empty_blocks(self, shape):
        assert operator_norm(np.zeros(shape, dtype=complex)) == 0.0


# The per-window engine as it stood before every window was decided in one
# pass, kept verbatim as the differential reference.


def per_window_quantum_capacity(p: DatabaseProperty, pprime: DatabaseProperty, k: int,
                                domain: OracleDomain, x_restrict=None) -> CapacityReport:
    """Exact one-round quantum transition capacity by full enumeration.

    Returns the maximum operator norm together with the lexicographically first
    witness (xs, yhats, exterior database) attaining it.  The block of an
    exterior depends on it only through its two window masks, so the masks of
    all exteriors of a window are decided in one batch and each distinct mask
    pair is normed once per yhat.
    """
    spec = domain.spec
    pool = window_pool(domain, k, x_restrict)
    if (spec.order + 1) ** k > WINDOW_DIM_BUDGET:
        raise ValueError("window dimension exceeds the exact-computation budget")
    # refused from the pool size, before a window is listed
    check_enumeration(len(pool), k, spec.order, domain.size - k)
    windows = query_windows(domain, k, pool)

    all_yhats = list(itertools.product(range(spec.order), repeat=k))
    dim = (spec.order + 1) ** k
    norms: dict = {}

    def block_norms(masks: np.ndarray) -> list:
        """Norms of the blocks of one (in_mask, out_mask) pair, one per yhat."""
        key = masks.tobytes()
        if key not in norms:
            norms[key] = [operator_norm(b) for b in window_blocks(spec, k, masks[:dim], masks[dim:])]
        return norms[key]

    p_table, pprime_table = truth_table(p, domain), truth_table(pprime, domain)
    best = 0.0
    best_key = None
    chunk = max(1, MASK_ROWS // dim)
    for xi, xs in enumerate(windows):
        window = np.concatenate([window_view(p_table, domain, xs),
                                 window_view(pprime_table, domain, xs)], axis=1)
        for start in range(0, len(window), chunk):
            masks = window[start:start + chunk]
            live = np.flatnonzero(masks[:, :dim].any(axis=1) & masks[:, dim:].any(axis=1))
            if not len(live):
                continue
            first, pair_of = unique_rows(masks[live])
            table = np.array([block_norms(pair) for pair in masks[live[first]]])
            # one event per (live exterior, yhat), in the order the per-row
            # enumeration visits them: exteriors outer, yhats inner
            events = table[pair_of].ravel()
            # An event moves the fold below only if it exceeds the running
            # best less 1e-12, and the running best never falls more than
            # 1e-12 below the largest value seen; skipping the events under
            # that maximum less 2e-12 therefore changes nothing.
            seen = np.maximum.accumulate(np.concatenate(([best], events)))[:-1]
            for e in np.flatnonzero(events > seen - 2e-12).tolist():
                i, y = divmod(e, len(all_yhats))
                value = float(events[e])
                # exteriors are enumerated in value order, so within one
                # window the row index orders them as their values would
                key = (xi, all_yhats[y], start + int(live[i]))
                if value > best + 1e-12 or (value > best - 1e-12 and (best_key is None or key < best_key)):
                    if value > best:
                        best = value
                    best_key = key
    best_witness = None
    if best_key is not None:
        best_xs = windows[best_key[0]]
        values = next(itertools.islice(window_exteriors(domain, best_xs), best_key[2], None))
        best_witness = {
            "xs": list(best_xs),
            "yhats": list(best_key[1]),
            "database": sparse_encode(Database(domain, values)),
        }
    return CapacityReport(value=best, witness=best_witness, kind="quantum")


def table_property(name: str, table: np.ndarray) -> DatabaseProperty:
    """A batch predicate: a database holds when its entry of table, a boolean
    array over the value cube (M+1,)*|X|, is set."""
    return DatabaseProperty(name, batch=lambda v, d: table[tuple(np.asarray(v).T)])


@st.composite
def table_jobs(draw, max_k=2):
    """(p, pprime, k, domain, pool): two random tables over |X| <= 4 inputs
    with bit or cyclic ranges, k from 1 to max_k, and all inputs or a drawn
    pool in drawn order."""
    spec = draw(st.sampled_from((GroupSpec.bits(1), GroupSpec.bits(2), GroupSpec.cyclic(3))))
    domain = OracleDomain(("a", "b", "c", "d")[:draw(st.integers(1, 4))], spec)
    k = draw(st.integers(1, min(max_k, domain.size)))
    pool = draw(st.none() | st.permutations(domain.inputs).flatmap(
        lambda order: st.integers(k, len(order)).map(lambda n: tuple(order[:n]))))
    shape = (spec.order + 1,) * domain.size
    tables = []
    for _ in range(2):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        tables.append(rng.random(shape) < draw(st.sampled_from((0.02, 0.1, 0.3, 0.6, 0.95))))
    return table_property("P", tables[0]), table_property("P'", tables[1]), k, domain, pool


class TestEngineAgainstPerWindow:
    """The one-pass engine, with its stop at the maximum, against the
    per-window reference: value and witness, exactly."""

    @staticmethod
    def same(p, pprime, k, domain, pool=None):
        record = quantum_capacity_exact(p, pprime, k, domain, pool).as_record()
        assert record == per_window_quantum_capacity(p, pprime, k, domain, pool).as_record()
        return record

    @given(job=table_jobs(), mask_rows=st.sampled_from((None, 7, 40, 300)))
    @settings(max_examples=200, deadline=None)
    def test_random_tables(self, job, mask_rows):
        # small batches split windows, and runs of windows, across batches
        rows = MASK_ROWS if mask_rows is None else mask_rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(capacity_mod, "MASK_ROWS", rows)
            self.same(*job)

    @given(job=table_jobs(), mask_rows=st.sampled_from((None, 7, 40, 300)))
    @settings(max_examples=150, deadline=None)
    def test_random_tables_with_near_ties(self, job, mask_rows):
        # each block's norm is raised by 0, 1e-13, 5e-13, 2e-12 or 1e-10,
        # picked by its bytes, so blocks of equal norm become maxima inside
        # the 1e-12 tolerance, just outside it, and far outside it; small
        # batches fold them across batch boundaries inside and between windows
        def nudged(a, exact=operator_norm):
            return exact(a) + (0.0, 1e-13, 5e-13, 2e-12, 1e-10)[zlib.crc32(a.tobytes()) % 5]

        rows = MASK_ROWS if mask_rows is None else mask_rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(capacity_mod, "MASK_ROWS", rows)
            patch.setattr(capacity_mod, "operator_norm", nudged)
            patch.setitem(globals(), "operator_norm", nudged)
            self.same(*job)

    def test_zero_capacity(self):
        dom = OracleDomain.of_bit_inputs(2, GroupSpec.bits(1))
        # no exterior has both window masks non-empty: no live event at all
        for p, pprime in [(true_prop(), false_prop()), (size_at_most(0), ~size_at_most(3))]:
            record = self.same(p, pprime, 1, dom)
            assert record["value"] == 0.0 and "witness" not in record

    def test_late_witness(self):
        # p' = inputs 110 and 111 both 0: only window 48 of 56 attains the
        # maximum, so the fold runs through the windows before it
        dom = OracleDomain.of_bit_inputs(3, GroupSpec.bits(1))
        pprime = DatabaseProperty("IN67", batch=lambda v, d: (v[:, 6] == 0) & (v[:, 7] == 0))
        record = self.same(~pprime, pprime, 2, dom)
        assert record["witness"]["xs"] == ["110", "111"]
        assert list(itertools.permutations(dom.inputs, 2)).index(("110", "111")) == 48

    def test_maxima_within_the_tolerance(self):
        # the two windows' maxima differ by less than 1e-12 (one ulp of 1.0
        # with this LAPACK), so the fold keeps window 0's witness and the
        # stop falls between the windows
        dom = OracleDomain(("a", "b"), GroupSpec.cyclic(3))
        p_table, pprime_table = np.zeros((2, 16), dtype=bool)
        p_table[[0, 1, 2, 4, 6, 7, 11, 15]] = pprime_table[[3, 4, 6, 8, 9, 11, 14, 15]] = True
        p = table_property("P", p_table.reshape(4, 4))
        pprime = table_property("P'", pprime_table.reshape(4, 4))
        a, b = (quantum_capacity_exact(p, pprime, 1, dom, (x,)).value for x in dom.inputs)
        assert abs(a - b) < 1e-12
        record = self.same(p, pprime, 1, dom)
        assert record["witness"]["xs"] == ["a"]


# The classical engine as it stood before it read the window index, moving
# the window's axes per window, kept verbatim as the differential reference.


def per_window_classical_capacity(p: DatabaseProperty, pprime: DatabaseProperty, k: int,
                                  domain: OracleDomain, x_restrict=None) -> CapacityReport:
    """Exact one-round classical transition capacity.

    Maximizes, over databases satisfying p and distinct query vectors, the
    probability that uniformly resampling the window's fresh coordinates lands
    in pprime (already-defined coordinates keep their values).  Per window,
    the hit counts of all databases are one product of pprime's window view
    with the 0/1 matrix of draws, reading both truth tables once.
    """
    spec = domain.spec
    pool = window_pool(domain, k, x_restrict)
    check_enumeration(len(pool), k, spec.order, domain.size)
    windows = query_windows(domain, k, pool)
    p_table, pprime_table = truth_table(p, domain), truth_table(pprime, domain)
    ext = spec.order + 1
    outcomes = float(spec.order) ** (window_tuples(spec, k) == spec.bot).sum(axis=1)
    best, best_at = 0.0, None
    for xi, xs in enumerate(windows):
        # hits[D] counts the draws for D's undefined window entries that land
        # in pprime: the product of pprime's window view with the k-fold
        # Kronecker power of the draw matrix a (a[w, r] = [w == r] for a
        # group value w, [r != bot] for w = bot), applied one axis at a time
        hits = window_view(pprime_table, domain, xs).reshape((-1,) + (ext,) * k).astype(np.int64)
        for axis in range(1, k + 1):
            undefined = (slice(None),) * axis + (spec.bot,)
            hits[undefined] = hits.sum(axis=axis) - hits[undefined]
        prob = np.where(window_view(p_table, domain, xs), hits.reshape(-1, ext ** k) / outcomes, 0.0)
        value = float(prob.max())
        if value < best or value == 0.0:
            continue
        # the first database, in canonical order, at which this window
        # attains its maximum: undo window_view's axis move on the hit mask
        at_max = (prob == value).reshape(p_table.shape)
        axes = [domain.index(x) for x in xs]
        first = int(np.argmax(np.moveaxis(at_max, range(domain.size - k, domain.size), axes)))
        # Distinct probabilities differ by at least M^-k, so the per-row
        # fold's first prob > best + 1e-15 is the first (database, window)
        # pair, databases outer, that attains the exact maximum.
        if value > best or (first, xi) < best_at:
            best, best_at, best_xs = value, (first, xi), xs
    best_witness = None
    if best_at is not None:
        values = np.unravel_index(best_at[0], p_table.shape)
        best_witness = {
            "xs": list(best_xs),
            "database": sparse_encode(Database(domain, tuple(int(v) for v in values))),
        }
    return CapacityReport(value=best, witness=best_witness, kind="classical")


class TestClassicalAgainstPerWindow:
    """The classical engine on the one window index against the axis-moving
    reference: value and witness, exactly."""

    @staticmethod
    def same(p, pprime, k, domain, pool=None):
        record = classical_capacity_exact(p, pprime, k, domain, pool).as_record()
        assert record == per_window_classical_capacity(p, pprime, k, domain, pool).as_record()
        return record

    @given(job=table_jobs(max_k=3))
    @settings(max_examples=300, deadline=None)
    def test_random_tables(self, job):
        self.same(*job)

    def test_zero_capacity(self):
        dom = make_domain(3)
        for p, pprime in [(true_prop(), false_prop()), (false_prop(), true_prop())]:
            record = self.same(p, pprime, 2, dom)
            assert record["value"] == 0.0 and "witness" not in record

    def test_tie_across_windows(self):
        # every window reaches 1/2; the first database that reaches it is
        # (1, 1, bot) for window c, before (1, bot, 1) and (bot, 1, 1), so
        # the last window wins the (database, window) tie-break
        record = self.same(~prmg(), prmg(), 1, make_domain(3))
        assert record["value"] == 0.5
        assert record["witness"] == {"xs": ["c"], "database": [("a", 1), ("b", 1)]}

    def test_tie_at_one_database(self):
        # every window reaches 1 first at the all-zero database, so the
        # first window wins
        record = self.same(true_prop(), prmg(), 2, make_domain(3), ("c", "a", "b"))
        assert record["value"] == 1.0
        assert record["witness"]["xs"] == ["c", "a"]
        assert record["witness"]["database"] == [("a", 0), ("b", 0), ("c", 0)]


def bound_outcome(bound, *args):
    """The bound's value, or the type and message of the error it raises."""
    try:
        return bound(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


class TestBoundAgainstPerPair:
    """The bound, reading the first window, against one family per (window,
    exterior) pair of every window: the same float, or the same error."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_jobs(self, data):
        spec = data.draw(st.sampled_from((GroupSpec.bits(1), GroupSpec.bits(2), GroupSpec.cyclic(3))))
        # bit-string inputs, so a prefix relation relates some
        domain = OracleDomain(("00", "01", "10", "11")[:data.draw(st.integers(1, 4))], spec)
        k = data.draw(st.integers(1, min(3, domain.size)))
        pool = data.draw(st.sampled_from(("default", "restricted", "unsorted")))
        if pool == "default":
            pool = None
        else:
            # a drawn subset, in domain order or in a drawn order
            order = data.draw(st.permutations(domain.inputs)) if pool == "unsorted" else domain.inputs
            chosen = data.draw(st.sets(st.sampled_from(domain.inputs), min_size=k))
            pool = tuple(x for x in order if x in chosen)
        pprime = data.draw(st.sampled_from((prmg(), cl(), chn(1, EQ), chn(2, EQ), chn(2, PREFIX)))
                           | st.sampled_from(spec.elements()).map(prmg))
        theorem = data.draw(st.sampled_from(capacity_mod.BOUND_THEOREMS))
        args = (theorem, pprime, k, domain, pool)
        assert bound_outcome(recognizability_bound, *args) == bound_outcome(per_pair_bound, *args)

    @pytest.mark.parametrize("n_inputs,k", [(2, 2), (3, 2), (4, 3)])
    def test_thm57_refuses_a_cl_target(self, n_inputs, k):
        # the first window's 2-local diagonal pairs are refused, as every window's were
        domain = make_domain(n_inputs)
        with pytest.raises(ValueError, match="CL_01 is not 1-local"):
            recognizability_bound("thm5.7", cl(), k, domain)
        with pytest.raises(ValueError, match="CL_01 is not 1-local"):
            per_pair_bound("thm5.7", cl(), k, domain)
