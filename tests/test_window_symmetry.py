"""The capacity engines decide one query window when both truth tables are
invariant under every permutation of X.  Each report is checked, byte for
byte, against the all-windows path, which the engines take when the
invariance check fails; the check itself is checked against every axis
permutation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qromlab import capacity as capacity_mod
from qromlab.capacity import classical_capacity_exact, permutation_invariant, quantum_capacity_exact
from qromlab.groups import GroupSpec
from qromlab.oracle import OracleDomain
from qromlab.properties import (
    ChainRelation,
    DatabaseProperty,
    chn,
    cl,
    empty_db_prop,
    parse_property,
    prmg,
    size_at_most,
    truth_table,
)
from qromlab.reporting import render_json


def _defined(db):
    return [v for v in db.values if v != db.domain.spec.bot]


# custom predicates: invariant under every permutation of X, under the
# transposition of the first two inputs only, and under their cycle only
# (for |X| = 4; at |X| = 2 the transposition is the cycle)
SYMMETRIC = DatabaseProperty("sum-even", pred=lambda db: sum(_defined(db)) % 2 == 0)
TRANSPOSITION = DatabaseProperty("first-two-equal", pred=lambda db: db.values[0] == db.values[1])
CYCLE = DatabaseProperty("cyclic-neighbours-equal", pred=lambda db: any(
    v == db.values[i - 1] != db.domain.spec.bot for i, v in enumerate(db.values)))

ATOMS = [prmg(), prmg(1), cl(), size_at_most(1), size_at_most(2), empty_db_prop(),
         chn(1, ChainRelation("equality")), chn(2, ChainRelation("equality")),
         SYMMETRIC, TRANSPOSITION, CYCLE]
PROPERTIES = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(inner.map(lambda p: ~p),
                            st.tuples(inner, inner).map(lambda pq: pq[0] & pq[1]),
                            st.tuples(inner, inner).map(lambda pq: pq[0] | pq[1])),
    max_leaves=4,
)


@st.composite
def jobs(draw):
    """A domain, a parallelism and a window pool: the default one, or a
    restricted pool in an unsorted order."""
    spec = draw(st.sampled_from([GroupSpec.bits(1), GroupSpec.cyclic(3)]), label="spec")
    domain = OracleDomain.of_bit_inputs(draw(st.integers(1, 2), label="n"), spec)
    pool = None
    if draw(st.booleans(), label="restricted"):
        pool = draw(st.permutations(domain.inputs), label="order")
        pool = pool[:draw(st.integers(2, len(pool)), label="size")]
        if pool == sorted(pool):
            pool = pool[::-1]
    k = draw(st.integers(1, min(3, len(domain.inputs if pool is None else pool))), label="k")
    return domain, k, pool


def reports(engine, p, pprime, k, domain, pool) -> tuple:
    """The engine's report bytes, and the report bytes of the all-windows path."""
    fast = render_json(engine(p, pprime, k, domain, pool).as_record())
    with pytest.MonkeyPatch.context() as m:
        m.setattr(capacity_mod, "permutation_invariant", lambda *tables: False)
        every = render_json(engine(p, pprime, k, domain, pool).as_record())
    return fast, every


@pytest.mark.parametrize("engine", [quantum_capacity_exact, classical_capacity_exact])
@given(p=PROPERTIES, pprime=PROPERTIES, job=jobs())
@settings(max_examples=60, deadline=None)
def test_one_window_matches_every_window(engine, p, pprime, job):
    domain, k, pool = job
    fast, every = reports(engine, p, pprime, k, domain, pool)
    assert fast == every, (p.name, pprime.name)


NAMED = [tuple(map(parse_property, text.split(" -> ")))
         for text in ["!PRMG -> PRMG", "!CL -> CL", "!(PRMG|CL)&SIZE<=2 -> PRMG|CL", "BOT -> SIZE<=1",
                      "!CHN[s=1] -> CHN[s=2]"]]
NAMED += [(~SYMMETRIC, SYMMETRIC), (~TRANSPOSITION, TRANSPOSITION), (~CYCLE, CYCLE)]


@pytest.mark.parametrize("engine", [quantum_capacity_exact, classical_capacity_exact])
@pytest.mark.parametrize("p,pprime", NAMED, ids=[f"{p.name}->{q.name}" for p, q in NAMED])
@pytest.mark.parametrize("pool", [None, ("11", "01", "10")])
def test_named_transitions_match_every_window(engine, p, pprime, pool):
    domain = OracleDomain.of_bit_inputs(2, GroupSpec.cyclic(3))
    for k in (1, 2):
        fast, every = reports(engine, p, pprime, k, domain, pool)
        assert fast == every, k


def brute_force_invariant(table: np.ndarray) -> bool:
    return all(np.array_equal(table, table.transpose(order))
               for order in itertools.permutations(range(table.ndim)))


def orbit_or(table: np.ndarray, orders) -> np.ndarray:
    """The OR of the table over a set of axis orders closed under
    composition: a table invariant under the group they form."""
    return np.logical_or.reduce([table.transpose(order) for order in orders])


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_invariance_matches_every_axis_permutation(data):
    size = data.draw(st.integers(1, 4), label="|X|")
    ext = data.draw(st.integers(2, 3), label="M+1")
    cells = data.draw(st.lists(st.booleans(), min_size=ext ** size, max_size=ext ** size), label="cells")
    table = np.array(cells, dtype=bool).reshape((ext,) * size)
    axes = tuple(range(size))
    group = data.draw(st.sampled_from(["none", "all", "transposition", "cycle"]), label="group")
    if group == "all":
        table = orbit_or(table, list(itertools.permutations(axes)))
    elif group == "transposition" and size >= 2:
        table = orbit_or(table, [axes, (1, 0) + axes[2:]])
    elif group == "cycle":
        table = orbit_or(table, [axes[i:] + axes[:i] for i in range(size)])
    assert permutation_invariant(table) == brute_force_invariant(table)
    # a second table that fails makes the pair fail
    assert permutation_invariant(table, np.zeros_like(table)) == brute_force_invariant(table)


def test_atom_tables():
    domain = OracleDomain.of_bit_inputs(2, GroupSpec.bits(1))
    for p in [prmg(), prmg(1), cl(), size_at_most(2), empty_db_prop(), SYMMETRIC]:
        assert permutation_invariant(truth_table(p, domain)), p.name
    for p in [chn(2, ChainRelation("equality")), TRANSPOSITION, CYCLE]:
        assert not permutation_invariant(truth_table(p, domain)), p.name


@pytest.mark.parametrize("text,pool,windows", [
    ("!PRMG -> PRMG", None, 1),
    ("!PRMG -> PRMG", ("11", "01", "10"), 1),
    ("!CHN[s=1] -> CHN[s=2]", None, math.perm(4, 2)),
    ("!CHN[s=1] -> CHN[s=2]", ("11", "01", "10"), math.perm(3, 2)),
])
def test_symmetric_jobs_decide_one_window(monkeypatch, text, pool, windows):
    rows = []
    offsets = capacity_mod.window_offsets

    def recorded(domain, positions):
        rows.append(len(positions))
        return offsets(domain, positions)

    monkeypatch.setattr(capacity_mod, "window_offsets", recorded)
    p, pprime = map(parse_property, text.split(" -> "))
    quantum_capacity_exact(p, pprime, 2, OracleDomain.of_bit_inputs(2, GroupSpec.bits(1)), pool)
    assert rows == [windows]
