"""Properties, restrictions, local families, and recognizability checkers."""

import itertools
import math

import numpy as np
import pytest

from qromlab.groups import GroupSpec
from qromlab.oracle import Database, OracleDomain
from qromlab.properties import (
    ChainRelation,
    LocalFamily,
    LocalProperty,
    chain_local_family,
    check_strong_recognizes,
    check_weak_recognizes,
    chn,
    cl,
    collision_local_family,
    empty_db_prop,
    false_prop,
    iter_databases,
    longest_chain_length,
    parse_property,
    prmg,
    prmg_local_family,
    projector,
    restrict,
    size_at_most,
    subset_of,
    true_prop,
)


def domain3(m=1):
    return OracleDomain(("a", "b", "c"), GroupSpec.bits(m))


EQ = ChainRelation("equality")


class TestStandardProperties:
    def test_empty_database_memberships(self):
        dom = domain3()
        empty = Database.empty(dom)
        assert not prmg().holds(empty)
        assert not cl().holds(empty)
        assert not chn(1, EQ).holds(empty)
        assert size_at_most(0).holds(empty)
        assert empty_db_prop().holds(empty)

    def test_prmg_on_single_zero(self):
        dom = domain3()
        assert prmg().holds(Database.from_entries(dom, {"a": 0}))

    def test_cl_needs_two_equal_defined(self):
        dom = domain3()
        assert not cl().holds(Database.from_entries(dom, {"a": 1}))
        assert cl().holds(Database.from_entries(dom, {"a": 1, "c": 1}))

    def test_size(self):
        dom = domain3()
        db = Database.from_entries(dom, {"a": 1, "b": 0})
        assert size_at_most(2).holds(db) and not size_at_most(1).holds(db)

    def test_boolean_composition_names(self):
        p, q = prmg(), cl()
        assert (p & q).name == "(PRMG&CL)"
        assert (~p).name == "!PRMG"


class TestChains:
    def test_cycle_gives_unbounded_chain(self):
        # equality relation on the index space: value 1 points at input "b"
        dom = domain3()
        db = Database.from_entries(dom, {"a": 1, "b": 1})
        assert math.isinf(longest_chain_length(db, EQ))
        for s in (1, 2, 7):
            assert chn(s, EQ).holds(db)

    def test_simple_two_chain(self):
        dom = domain3()
        # a -> b (value 1 = index of b), b -> c (value 2 = index of c); with
        # M=2 index 2 is out of range, so use m=2.
        dom = domain3(m=2)
        db = Database.from_entries(dom, {"a": 1, "b": 2})
        assert longest_chain_length(db, EQ) == 2
        assert chn(2, EQ).holds(db) and not chn(3, EQ).holds(db)

    def test_final_free_hop_semantics(self):
        # A single defined point whose value names an input yields a 1-chain
        # even though the target is undefined.
        dom = domain3()
        db = Database.from_entries(dom, {"a": 1})
        assert longest_chain_length(db, EQ) == 1

    def test_value_without_successor_ends_chain(self):
        # M=4 over 3 inputs: value 3 names no input, so no link leaves it.
        dom = domain3(m=2)
        db = Database.from_entries(dom, {"a": 3})
        assert longest_chain_length(db, EQ) == 0

    def test_chain_monotone_exhaustive(self):
        dom = OracleDomain(("a", "b", "c"), GroupSpec.bits(1))
        for db in iter_databases(dom):
            lengths = [chn(s, EQ).holds(db) for s in (1, 2, 3)]
            for shorter, longer in zip(lengths, lengths[1:]):
                assert shorter or not longer  # chn(s) <= chn(s-1)

    def test_t_bound(self):
        dom = domain3(m=2)
        assert EQ.t_bound(dom) == 1
        assert ChainRelation("prefix").t_bound(dom) == 1
        sub = ChainRelation("substring")
        dom_bits = OracleDomain.of_bit_inputs(3, GroupSpec.bits(2))
        assert sub.t_bound(dom_bits) == 2  # 2-bit windows of a 3-bit string
        custom = ChainRelation("custom", fn=lambda y, x: True)
        assert custom.t_bound(dom) == 4

    def test_prefix_relation(self):
        dom = OracleDomain.of_bit_inputs(2, GroupSpec.bits(1))
        pre = ChainRelation("prefix")
        assert pre.relates(0, "01", dom)
        assert not pre.relates(1, "01", dom)


class TestRestrict:
    def test_full_property_gives_full_window(self):
        dom = domain3()
        db = Database.empty(dom)
        assert len(restrict(true_prop(), db, ("a", "b"))) == 9

    def test_prmg_with_outside_zero(self):
        dom = domain3()
        db = Database.from_entries(dom, {"c": 0})
        assert len(restrict(prmg(), db, ("a", "b"))) == 9

    def test_prmg_without_outside_zero(self):
        dom = domain3()
        db = Database.from_entries(dom, {"c": 1})
        assert restrict(prmg(), db, ("a",)) == frozenset({(0,)})

    def test_duplicates_rejected(self):
        dom = domain3()
        with pytest.raises(ValueError):
            restrict(prmg(), Database.empty(dom), ("a", "a"))

    def test_boolean_compatibility_exhaustive(self):
        dom = domain3()
        p, q = prmg(), cl()
        for db in iter_databases(dom):
            rp = restrict(p, db, ("a", "b"))
            rq = restrict(q, db, ("a", "b"))
            assert restrict(p & q, db, ("a", "b")) == rp & rq
            assert restrict(p | q, db, ("a", "b")) == rp | rq
            full = restrict(true_prop(), db, ("a", "b"))
            assert restrict(~p, db, ("a", "b")) == full - rp


class TestProjector:
    def test_empty_and_full(self):
        spec = GroupSpec.bits(1)
        assert np.array_equal(projector(frozenset(), 1, spec), np.zeros((3, 3)))
        full = frozenset((v,) for v in range(3))
        assert np.array_equal(projector(full, 1, spec), np.eye(3))

    def test_zero_singleton_m2(self):
        # canonical order (0, 1, bot); in the displayed (bot, 0, 1) order this
        # is diag(0, 1, 0).
        spec = GroupSpec.bits(1)
        diag = np.diag(projector(frozenset({(0,)}), 1, spec))
        assert list(diag) == [1.0, 0.0, 0.0]

    def test_idempotent(self):
        spec = GroupSpec.bits(1)
        proj = projector(frozenset({(0, 2), (1, 1)}), 2, spec)
        assert np.array_equal(proj @ proj, proj)

    def test_mixed_radix_order(self):
        spec = GroupSpec.bits(1)
        diag = np.diag(projector(frozenset({(0, 2), (1, 1)}), 2, spec))
        assert np.flatnonzero(diag).tolist() == [0 * 3 + 2, 1 * 3 + 1]

    @pytest.mark.parametrize("bad", [(3,), (-1,), (0, 3)])
    def test_out_of_range_value_raises(self, bad):
        spec = GroupSpec.bits(1)
        with pytest.raises(ValueError):
            projector(frozenset({(0,) * len(bad), bad}), len(bad), spec)


class TestLocalProperties:
    def test_bot_monotonicity_validator(self):
        spec = GroupSpec.bits(1)
        good = LocalProperty(("a",), frozenset({(0,)}), spec)
        assert good.check_bot_monotone()
        bad = LocalProperty(("a",), frozenset({(spec.bot,)}), spec)
        assert not bad.check_bot_monotone()
        with pytest.raises(ValueError):
            LocalFamily((bad,))

    def test_distinct_supports_required(self):
        spec = GroupSpec.bits(1)
        a = LocalProperty.one_local("a", (0,), spec)
        b = LocalProperty.one_local("a", (1,), spec)
        with pytest.raises(ValueError):
            LocalFamily((a, b))

    def test_uniform_probability_and_triviality(self):
        spec = GroupSpec.bits(1)
        lp = LocalProperty.one_local("a", (0,), spec)
        assert lp.uniform_probability() == pytest.approx(0.5)
        assert LocalProperty.constant(True, spec, support=("a",)).is_constant_true
        assert LocalProperty.constant(False, spec).is_constant_false

    def test_restrict_at(self):
        spec = GroupSpec.bits(1)
        diag = LocalProperty(("a", "b"), frozenset((y, y) for y in spec.elements()), spec)
        assert diag.restrict_at("a", {"b": 1}) == frozenset({1})
        assert diag.restrict_at("a", {"b": spec.bot}) == frozenset()


class TestChainFamily:
    def test_empty_database_no_links(self):
        dom = domain3()
        rel = ChainRelation("custom", fn=lambda y, x: False, t_bound_override=1)
        fam = chain_local_family(Database.empty(dom), ("a",), rel)
        assert all(lp.is_constant_false for lp in fam)

    def test_equality_example(self):
        dom = domain3(m=2)
        db = Database.from_entries(dom, {"a": 3})
        fam = chain_local_family(db, ("b",), EQ)
        # anchors are a (defined) and b (queried): range indices 0 and 1
        assert fam.properties[0].members == frozenset({(0,), (1,)})

    def test_size_bound(self):
        for m in (1, 2):
            dom = domain3(m=m)
            for db in iter_databases(dom):
                for k in (1, 2):
                    for xs in itertools.permutations(dom.inputs, k):
                        fam = chain_local_family(db, xs, EQ)
                        bound = (db.support_size() + k) * EQ.t_bound(dom)
                        for lp in fam:
                            assert len(lp.members) <= bound

    def test_lemma_chain_certificate_exhaustive(self):
        # For all D, xs, r, u at tiny scale: leaving no s-chain while creating
        # an (s+1)-chain forces a changed coordinate landing in the family.
        dom = OracleDomain(("a", "b"), GroupSpec.bits(1))
        k = 2
        for db in iter_databases(dom):
            xs = ("a", "b")
            fam = chain_local_family(db, xs, EQ)
            for s in (1, 2):
                p_side = chn(s, EQ)
                pprime_side = chn(s + 1, EQ)
                for r in itertools.product(range(3), repeat=k):
                    if p_side.holds(db.update(xs, r)):
                        continue
                    for u in itertools.product(range(3), repeat=k):
                        if not pprime_side.holds(db.update(xs, u)):
                            continue
                        witness = any(
                            r[i] != u[i] and lp.contains_window_tuple(xs, u)
                            for i, lp in enumerate(fam)
                        )
                        assert witness

    def test_weak_recognizability_of_chain_transition(self):
        dom = OracleDomain(("a", "b"), GroupSpec.bits(1))
        for db in iter_databases(dom):
            fam = chain_local_family(db, ("a", "b"), EQ)
            assert check_weak_recognizes(fam, ~chn(1, EQ), chn(2, EQ), ("a", "b"), db)


class TestCollisionFamily:
    def test_k1_has_no_pair_terms(self):
        dom = domain3()
        fam = collision_local_family(Database.empty(dom), ("a",))
        assert len(fam) == 1 and fam.properties[0].locality == 1

    def test_empty_database_gives_empty_singletons(self):
        dom = domain3()
        fam = collision_local_family(Database.empty(dom), ("a", "b"))
        singles = [lp for lp in fam if lp.locality == 1]
        assert all(lp.is_constant_false for lp in singles)

    def test_example_members(self):
        dom = domain3()
        db = Database.from_entries(dom, {"a": 1})
        fam = collision_local_family(db, ("b", "c"))
        pair = next(lp for lp in fam if lp.locality == 2)
        singles = [lp for lp in fam if lp.locality == 1]
        assert pair.members == frozenset({(0, 0), (1, 1)})
        assert all(lp.members == frozenset({(1,)}) for lp in singles)

    def test_strong_recognizability_small(self):
        dom = domain3()
        for db in iter_databases(dom):
            exterior = db.update(("a", "b"), (dom.spec.bot, dom.spec.bot))
            if cl().holds(exterior):
                continue  # family targets collision-free exteriors
            fam = collision_local_family(exterior, ("a", "b"))
            assert check_strong_recognizes(fam, cl(), cl(), ("a", "b"), exterior)


class TestPrmgFamily:
    def test_strong_recognizability_without_outside_zero(self):
        dom = domain3()
        db = Database.from_entries(dom, {"c": 1})
        fam = prmg_local_family(("a", "b"), dom.spec)
        assert check_strong_recognizes(fam, prmg(), prmg(), ("a", "b"), db)

    def test_vacuous_strong_case(self):
        dom = domain3()
        fam = LocalFamily((LocalProperty.constant(False, dom.spec),))
        assert check_strong_recognizes(fam, true_prop(), false_prop(), ("a",),
                                       Database.empty(dom))

    def test_weak_vacuous_when_sides_empty(self):
        dom = domain3()
        fam = LocalFamily((LocalProperty.constant(False, dom.spec),))
        assert check_weak_recognizes(fam, false_prop(), false_prop(), ("a",),
                                     Database.empty(dom))


class TestSubsetAndParse:
    def test_subset_of(self):
        dom = domain3()
        assert subset_of(prmg() & cl(), prmg(), dom)
        assert not subset_of(true_prop(), prmg(), dom)

    def test_parse_atoms(self):
        dom = domain3()
        empty = Database.empty(dom)
        assert parse_property("PRMG").name == "PRMG"
        assert parse_property("SIZE<=6").holds(empty)
        assert parse_property("CHN[s=2,rel=prefix]").name == "CHN[s=2,rel=prefix]"
        assert parse_property("!PRMG").holds(empty)

    def test_parse_boolean_structure(self):
        dom = domain3()
        db = Database.from_entries(dom, {"a": 0, "b": 0})
        combined = parse_property("PRMG & CL | FALSE")
        assert combined.holds(db)
        negated = parse_property("!(PRMG | CL)")
        assert negated.holds(Database.empty(dom))

    def test_parse_accepts_every_key_an_atom_reads(self):
        for text in ("PRMG[target=1]", "CHN[s=2,rel=prefix,t=1]", "SIZE[s=1]", "SIZE<=1",
                     "CL", "TRUE", "FALSE", "BOT"):
            parse_property(text)

    @pytest.mark.parametrize("text", [
        "PRMG[tagret=1]", "PRMG[target=1,target=2]", "CHN[s=1,u=2]", "CHN[s=1,s=2]", "SIZE[t=1]",
        "SIZE<=2[s=1]", "SIZEX[s=1]", "PRMG<=1", "CL[foo=bar]", "TRUE[x=1]", "FALSE[x=1]",
        "BOT[x=1]", "!PRMG[tagret=1]&CL"])
    def test_parse_rejects_keys_an_atom_does_not_read(self, text):
        with pytest.raises(ValueError):
            parse_property(text)

    @pytest.mark.parametrize("target", [2, 7])
    def test_prmg_target_outside_the_range_raises(self, target):
        dom = domain3()
        with pytest.raises(ValueError):
            prmg(target).holds(Database.empty(dom))
        with pytest.raises(ValueError):
            prmg(target).holds_batch(np.zeros((1, dom.size), dtype=int), dom)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_property("NOSUCH")
        with pytest.raises(ValueError):
            parse_property("PRMG &")
        with pytest.raises(ValueError):
            parse_property("(PRMG")
