"""Database properties, query-window restrictions, local properties, and the
recognizability checkers that connect them.

A database property is a decidable predicate on databases; a local property is
one whose truth value depends only on the values at a fixed small support and
that treats the undefined symbol as no more informative than any group value.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec
from .oracle import Database, OracleDomain

MASK_ROWS = 1 << 16  # database rows decided in one batch
WINDOW_DIM_BUDGET = 4096  # largest dense (M+1)^k window space


class DatabaseProperty:
    """Named decidable subset of the databases over some oracle domain.

    A property has exactly one decider.  batch decides many databases at
    once: it maps an int array of value rows, shape (N, |X|), and the domain
    to N booleans, and holds decides the one-row batch.  pred decides one
    Database, for the properties with no batch (CHN[s>=1] and custom
    predicates); holds_batch then lifts it through holds, one row at a time.
    atom is (NAME, parameter) for a bare PRMG, CL or CHN atom, the ones with
    a canonical local family, such as ("PRMG", 0), and None otherwise.
    """

    def __init__(self, name: str, pred=None, batch=None, atom=None):
        if (pred is None) == (batch is None):
            raise ValueError("a database property takes exactly one of pred and batch")
        self.name = name
        self._pred = pred
        self._batch = batch
        self.atom = atom

    def holds(self, db: Database) -> bool:
        if self._batch is None:
            return bool(self._pred(db))
        return bool(self._batch(np.array([db.values]), db.domain)[0])

    def holds_batch(self, values, domain: OracleDomain) -> np.ndarray:
        """holds for every row of an int array of database values, shape (N, |X|)."""
        values = np.asarray(values)
        if self._batch is None:
            return np.fromiter((self.holds(Database(domain, tuple(row))) for row in values.tolist()),
                               dtype=bool, count=len(values))
        return np.asarray(self._batch(values, domain), dtype=bool)

    def __and__(self, other: "DatabaseProperty") -> "DatabaseProperty":
        return DatabaseProperty(f"({self.name}&{other.name})",
                                batch=lambda v, d: self.holds_batch(v, d) & other.holds_batch(v, d))

    def __or__(self, other: "DatabaseProperty") -> "DatabaseProperty":
        return DatabaseProperty(f"({self.name}|{other.name})",
                                batch=lambda v, d: self.holds_batch(v, d) | other.holds_batch(v, d))

    def __invert__(self) -> "DatabaseProperty":
        return DatabaseProperty(f"!{self.name}", batch=lambda v, d: ~self.holds_batch(v, d))

    def __sub__(self, other: "DatabaseProperty") -> "DatabaseProperty":
        return DatabaseProperty(f"({self.name}\\{other.name})",
                                batch=lambda v, d: self.holds_batch(v, d) & ~other.holds_batch(v, d))

    def __repr__(self):
        return f"DatabaseProperty({self.name})"


def _all_true(values: np.ndarray, domain: OracleDomain) -> np.ndarray:
    return np.ones(len(values), dtype=bool)


def true_prop() -> DatabaseProperty:
    return DatabaseProperty("TRUE", batch=_all_true)


def false_prop() -> DatabaseProperty:
    return DatabaseProperty("FALSE", batch=lambda v, d: np.zeros(len(v), dtype=bool))


def empty_db_prop() -> DatabaseProperty:
    """The property holding exactly for the all-undefined database."""
    return DatabaseProperty("BOT", batch=lambda v, d: (v == d.spec.bot).all(axis=1))


def prmg(target: int = 0) -> DatabaseProperty:
    """Some input maps to target; deciding it on a range without target raises
    ValueError."""
    name = "PRMG" if target == 0 else f"PRMG[{target}]"
    return DatabaseProperty(name, batch=lambda v, d: (v == d.spec.check_element(target)).any(axis=1),
                            atom=("PRMG", target))


def cl() -> DatabaseProperty:
    """Two defined inputs share a value: after a row sort, equal neighbours
    other than the undefined index."""
    def has_collision_batch(values: np.ndarray, domain: OracleDomain) -> np.ndarray:
        ordered = np.sort(values, axis=1)
        repeat = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != domain.spec.bot)
        return repeat.any(axis=1)

    return DatabaseProperty("CL", batch=has_collision_batch, atom=("CL", None))


def size_at_most(s: int) -> DatabaseProperty:
    if s < 0:
        raise ValueError("size bound must be nonnegative")
    return DatabaseProperty(f"SIZE<={s}", batch=lambda v, d: (v != d.spec.bot).sum(axis=1) <= s)


def iter_databases(domain: OracleDomain):
    """All (M+1)^|X| databases over the domain, in canonical value order."""
    for values in itertools.product(range(domain.spec.order + 1), repeat=domain.size):
        yield Database(domain, values)


# Chain relations and the chain property


@dataclass(frozen=True)
class ChainRelation:
    """A link relation between range values y and inputs x, with its fan-in bound
    T = max_x |{y : y relates to x}| read from its relation table."""

    kind: str  # equality | prefix | substring | custom
    fn: object = None

    def relates(self, y: int, x, domain: OracleDomain) -> bool:
        spec = domain.spec
        spec.check_element(y)
        if self.kind == "equality":
            idx = domain.index(x)
            return idx < spec.order and y == idx
        if self.kind in ("prefix", "substring"):
            bits = format(y, f"0{spec.nbits}b")
            label = x if isinstance(x, str) else format(x, "b")
            if self.kind == "prefix":
                return label.startswith(bits)
            return bits in label
        if self.kind == "custom":
            return bool(self.fn(y, x))
        raise ValueError(f"unknown chain relation kind {self.kind!r}")

    def t_bound(self, domain: OracleDomain) -> int:
        table = relation_table(self, domain)
        return max([sum(i in row for row in table) for i in range(domain.size)] + [1])


@functools.lru_cache(maxsize=64)
def relation_table(rel: ChainRelation, domain: OracleDomain) -> tuple:
    """The relation over the domain, one row per range value y: the frozenset
    of the positions of the inputs y relates to, each pair decided by one
    relates call."""
    return tuple(frozenset(i for i, x in enumerate(domain.inputs) if rel.relates(y, x, domain))
                 for y in domain.spec.elements())


def longest_path(nodes, successors, base) -> float:
    """Longest path length in a successor graph, inf when a cycle is reachable.

    A node's value is the larger of base[node] and 1 plus a successor's
    value; the result is the maximum over nodes, 0 when there are none.
    """
    best: dict = {}
    on_stack: set = set()

    def longest_from(x) -> float:
        if x in best:
            return best[x]
        if x in on_stack:
            return math.inf
        on_stack.add(x)
        value = base[x]
        for x2 in successors[x]:
            tail = longest_from(x2)
            if math.isinf(tail):
                value = math.inf
                break
            value = max(value, 1.0 + tail)
        on_stack.discard(x)
        best[x] = value
        return value

    return max((longest_from(x) for x in nodes), default=0.0)


def longest_chain_length(db: Database, rel: ChainRelation) -> float:
    """Length of the longest chain x_0,...,x_s with D(x_{i-1}) relating to x_i.

    Every x_i except the last must be in the support (its value feeds the next
    link); the final element may be any domain input.  A cycle in the support
    graph yields chains of every length, reported as inf.
    """
    table = relation_table(rel, db.domain)
    bot = db.domain.spec.bot
    # positions stand for inputs; a support value's table row holds its links
    support = [i for i, y in enumerate(db.values) if y != bot]
    links = {i: table[db.values[i]] for i in support}
    return longest_path(support, {i: [j for j in support if j in links[i]] for i in support},
                        {i: 1.0 if links[i] else 0.0 for i in support})


def chn(s: int, rel: ChainRelation) -> DatabaseProperty:
    if s < 0:
        raise ValueError("chain length must be nonnegative")
    if s == 0:
        return DatabaseProperty(f"CHN[s=0,rel={rel.kind}]", batch=_all_true, atom=("CHN", rel))
    return DatabaseProperty(f"CHN[s={s},rel={rel.kind}]", lambda db: longest_chain_length(db, rel) >= s,
                            atom=("CHN", rel))


# Query windows


def value_dtype(spec: GroupSpec) -> np.dtype:
    """Smallest integer dtype holding every extended value, the undefined index included."""
    return np.min_scalar_type(spec.bot)


def _distinct_window(xs) -> tuple:
    xs = tuple(xs)
    if len(set(xs)) != len(xs):
        raise ValueError("query window inputs must be distinct")
    return xs


def window_tuples(spec: GroupSpec, k: int) -> np.ndarray:
    """Every response tuple of a k-input window, or value tuple of any k
    inputs, one per row, in the canonical mixed-radix order of the window
    basis (undefined index last)."""
    ext = spec.order + 1
    return digit_rows(np.arange(ext ** k), ext, k, value_dtype(spec))


def digit_rows(index: np.ndarray, ext: int, width: int, dtype) -> np.ndarray:
    """The base-ext digits of each index, one row of width digits per index,
    the most significant first: for index = arange(ext**width) the rows are
    itertools.product(range(ext), repeat=width) in order."""
    rows = np.empty((len(index), width), dtype=dtype)
    for i in range(width):
        rows[:, i] = index // ext ** (width - 1 - i) % ext
    return rows


def truth_table(p: DatabaseProperty, domain: OracleDomain) -> np.ndarray:
    """p on every database of the domain, shape (M+1,)*|X|: entry [v_0, ...,
    v_{|X|-1}] decides the database with value v_i at input i.

    The databases are decided in canonical order, MASK_ROWS rows per batch.
    """
    ext, size = domain.spec.order + 1, domain.size
    table = np.empty(ext ** size, dtype=bool)
    for start in range(0, len(table), MASK_ROWS):
        index = np.arange(start, min(start + MASK_ROWS, len(table)))
        rows = digit_rows(index, ext, size, value_dtype(domain.spec))
        table[start:start + len(index)] = p.holds_batch(rows, domain)
    return table.reshape((ext,) * size)


def window_offsets(domain: OracleDomain, positions: np.ndarray) -> tuple:
    """(index, cols): where the window views of every window sit in a
    raveled truth table.  positions holds one window per row, as the domain
    positions of its inputs in window order.

    index[w, e] + cols[w, j] is the flat table position of exterior e of
    window w with the window set to tuple j: exteriors in canonical value
    order on the other inputs, tuples in window_tuples order.  Both are in
    the smallest unsigned dtype that holds (M+1)^|X| - 1, which their sums
    never leave."""
    ext, size = domain.spec.order + 1, domain.size
    n_windows, k = positions.shape
    dtype = np.min_scalar_type(ext ** size - 1)
    strides = ext ** np.arange(size - 1, -1, -1, dtype=np.int64)
    inside = np.zeros((n_windows, size), dtype=bool)
    np.put_along_axis(inside, positions, True, axis=1)
    # the other inputs of each window, in domain order
    others = np.nonzero(~inside)[1].reshape(n_windows, size - k)
    return (_digit_sums(strides[others].astype(dtype), ext),
            _digit_sums(strides[positions].astype(dtype), ext))


def _digit_sums(strides: np.ndarray, ext: int) -> np.ndarray:
    """Per row of strides, sum_i d_i * strides[i] for every digit tuple d in
    itertools.product(range(ext), repeat=width) order, the first digit the
    most significant."""
    sums = np.zeros((len(strides), 1), dtype=strides.dtype)
    digits = np.arange(ext, dtype=strides.dtype)[:, None]
    # the last digit first, each new digit outermost, so the sums already
    # formed stay the long inner axis
    for column in strides.T[::-1]:
        sums = (column[:, None, None] * digits + sums[:, None, :]).reshape(len(strides), -1)
    return sums


def _around_window(domain: OracleDomain, xs, rows: np.ndarray) -> np.ndarray:
    """Database values undefined on the window xs, one row per row of rows,
    which gives the values of the other inputs in domain order."""
    window = {domain.index(x) for x in _distinct_window(xs)}
    others = [i for i in range(domain.size) if i not in window]
    values = np.full((len(rows), domain.size), domain.spec.bot, dtype=rows.dtype)
    values[:, others] = rows
    return values


def unique_rows(rows: np.ndarray) -> tuple:
    """(first, inverse) of np.unique(rows, axis=0, return_index=True,
    return_inverse=True) for a boolean matrix, keyed by each row's packed
    bytes.  packbits is MSB-first and void keys compare like memcmp, so the
    distinct rows rows[first] come out in the same order."""
    packed = np.packbits(rows, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def _window_sides(db: Database, xs, *props) -> tuple:
    """The window xs, its response tuples, and per property the mask of tuples
    r with db[xs -> r] inside it, each decided by holds on its own Database."""
    xs = _distinct_window(xs)
    window = [tuple(r) for r in window_tuples(db.domain.spec, len(xs)).tolist()]
    updated = [db.update(xs, r) for r in window]
    return xs, window, [[p.holds(d) for d in updated] for p in props]


# Local properties


@dataclass(frozen=True)
class LocalProperty:
    """Database property determined by the values on an ordered support tuple.

    members is the accepting subset of (Y u {bot})^len(support).  The support
    is part of the identity; trivial constant-true/false properties are
    detectable so the bound evaluators can apply their zero-weight conventions.
    """

    support: tuple
    members: frozenset
    spec: GroupSpec
    name: str = "L"

    def __post_init__(self):
        for m in self.members:
            if len(m) != len(self.support):
                raise ValueError("member tuples must match the support length")
            for v in m:
                self.spec.check_extended(v)

    @classmethod
    def one_local(cls, x, values, spec: GroupSpec, name: str = "L") -> "LocalProperty":
        return cls((x,), frozenset((v,) for v in values), spec, name)

    @classmethod
    def constant(cls, truth: bool, spec: GroupSpec, support=(), name=None) -> "LocalProperty":
        support = tuple(support)
        if truth:
            members = frozenset(itertools.product(range(spec.order + 1), repeat=len(support)))
        else:
            members = frozenset()
        return cls(support, members, spec, name or ("TRUE" if truth else "FALSE"))

    @property
    def locality(self) -> int:
        return len(self.support)

    @property
    def is_constant_true(self) -> bool:
        return len(self.members) == (self.spec.order + 1) ** len(self.support)

    @property
    def is_constant_false(self) -> bool:
        return not self.members

    @property
    def is_trivial(self) -> bool:
        return self.is_constant_true or self.is_constant_false

    def contains_window_tuple(self, xs: tuple, r: tuple) -> bool:
        """Membership of a response tuple r over the window xs (supp inside xs)."""
        pos = [xs.index(x) for x in self.support]
        return tuple(r[i] for i in pos) in self.members

    @property
    def weight(self) -> float:
        """The largest P[U in L|_{D'|^x}] over support positions x and
        assignments D' of the other positions, a trivial restriction (empty,
        or all M+1 values) counting 0; a 0-local property weighs 0.

        Members are grouped on the tuple with position x removed: an
        assignment that no member has restricts to the empty set, and a group
        of M+1 members to every value, so only the smaller groups count, each
        with its non-bot values at x over M."""
        best = 0
        for i in range(self.locality):
            groups: dict = {}
            for m in self.members:
                groups.setdefault(m[:i] + m[i + 1:], []).append(m[i])
            best = max([best] + [sum(v != self.spec.bot for v in at_x)
                                 for at_x in groups.values() if len(at_x) <= self.spec.order])
        return best / self.spec.order

    def check_bot_monotone(self) -> bool:
        """Executable validator for the locality definition's second condition."""
        for m in self.members:
            for i, v in enumerate(m):
                if v == self.spec.bot:
                    for y in self.spec.elements():
                        if m[:i] + (y,) + m[i + 1 :] not in self.members:
                            return False
        return True


@dataclass(frozen=True)
class LocalFamily:
    """A family of local properties with pairwise distinct supports."""

    properties: tuple

    def __post_init__(self):
        supports = [p.support for p in self.properties]
        if len(set(supports)) != len(supports):
            raise ValueError("local properties in a family must have distinct supports")
        for p in self.properties:
            if not p.check_bot_monotone():
                raise ValueError(f"local property {p.name} violates bot-monotonicity")

    def __iter__(self):
        return iter(self.properties)

    def __len__(self):
        return len(self.properties)

    @property
    def max_locality(self) -> int:
        return max((p.locality for p in self.properties), default=0)


def _check_supports(fam: LocalFamily, xs: tuple) -> None:
    for lp in fam:
        if any(x not in xs for x in lp.support):
            raise ValueError("family supports must lie inside the query window")


def check_strong_recognizes(fam: LocalFamily, p: DatabaseProperty, pprime: DatabaseProperty,
                            xs, db: Database) -> bool:
    """Exhaustively verify pprime|_{D|xs} <= union of the family <= p|_{D|xs}."""
    xs, window, (p_mask, pprime_mask) = _window_sides(db, xs, p, pprime)
    _check_supports(fam, xs)
    for r, in_p, in_pprime in zip(window, p_mask, pprime_mask):
        in_union = any(lp.contains_window_tuple(xs, r) for lp in fam)
        if (in_pprime and not in_union) or (in_union and not in_p):
            return False
    return True


def check_weak_recognizes(fam: LocalFamily, p: DatabaseProperty, pprime: DatabaseProperty,
                          xs, db: Database) -> bool:
    """Exhaustively verify the weak-recognizability implication: every pair of a
    p-side tuple r and a pprime-side tuple u admits a family member containing u
    and differing from r somewhere on its support."""
    xs, window, (p_mask, pprime_mask) = _window_sides(db, xs, p, pprime)
    _check_supports(fam, xs)
    for r in itertools.compress(window, p_mask):
        for u in itertools.compress(window, pprime_mask):
            if not any(lp.contains_window_tuple(xs, u)
                       and any(r[xs.index(x)] != u[xs.index(x)] for x in lp.support) for lp in fam):
                return False
    return True


def chain_local_family(db: Database, xs, rel: ChainRelation) -> LocalFamily:
    """The 1-local family certifying chain extension: position i accepts any
    range value relating to some defined or queried input."""
    xs = _distinct_window(xs)
    domain = db.domain
    anchors = [domain.index(x) for x in db.support() + xs]
    values = frozenset(y for y, row in enumerate(relation_table(rel, domain)) if not row.isdisjoint(anchors))
    props = tuple(
        LocalProperty.one_local(x, values, domain.spec, name=f"CHN_L{i}") for i, x in enumerate(xs)
    )
    return LocalFamily(props)


def collision_local_family(db: Database, xs) -> LocalFamily:
    """The 2-local diagonal pairs plus 1-local old-image hits certifying a fresh
    collision inside or across the query window."""
    xs = _distinct_window(xs)
    spec = db.domain.spec
    outside = frozenset(
        v for x, v in db.entries().items() if x not in xs
    )
    props = []
    for i, j in itertools.combinations(range(len(xs)), 2):
        members = frozenset((y, y) for y in spec.elements())
        props.append(LocalProperty((xs[i], xs[j]), members, spec, name=f"CL_{i}{j}"))
    for i, x in enumerate(xs):
        props.append(LocalProperty.one_local(x, outside, spec, name=f"CL_{i}"))
    return LocalFamily(tuple(props))


def prmg_local_family(xs, spec: GroupSpec, target: int = 0) -> LocalFamily:
    """The uniform 1-local family recognizing preimage creation at the window."""
    props = tuple(
        LocalProperty.one_local(x, (target,), spec, name=f"PRMG_L{i}") for i, x in enumerate(xs)
    )
    return LocalFamily(props)


def canonical_family(pprime: DatabaseProperty, domain: OracleDomain, xs) -> LocalFamily:
    """The canonical local family of the target pprime, a bare PRMG, CL or CHN
    atom, at the exterior of the window xs that maximises every bound.

    PRMG has one uniform family.  CL and CHN take the exterior whose other
    inputs hold the values 0, 1, 2, ... mod M: it has min(|X| - k, M)
    distinct values, the most any exterior has, and it is defined on every
    other input.  The choice is exact.  Every exterior's family has the same
    members in the same order, with the same supports and localities; only
    the weights differ.  A CL 2-local diagonal member always weighs 1/M, and
    a CL 1-local member weighs |exterior values|/M.  A CHN member weighs
    |V|/M, where V holds the range values that relate to an anchor (support
    and window), so V grows with the support.  Float +, * and sqrt never
    fall as an operand grows, so each theorem's float here is at least its
    float at any other exterior, and a locality error (thm5.7 on CL at k >= 2)
    is raised by every family alike.
    """
    kind, arg = pprime.atom or (None, None)
    if kind == "PRMG":
        return prmg_local_family(xs, domain.spec, arg)
    if kind not in ("CL", "CHN"):
        raise ValueError(f"no canonical family for target {pprime.name!r}: "
                         "the bound needs a bare PRMG, CL or CHN target")
    others = np.arange(domain.size - len(_distinct_window(xs)))[None, :] % domain.spec.order
    db = Database(domain, tuple(_around_window(domain, xs, others)[0].tolist()))
    return collision_local_family(db, xs) if kind == "CL" else chain_local_family(db, xs, arg)


# Property strings: NAME[key=val,...] with "!" complement, "&" intersection,
# "|" union; SIZE accepts the shorthand SIZE<=s.


def parse_property(text: str) -> DatabaseProperty:
    tokens = _tokenize(text)
    prop, pos = _parse_union(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing input in property string at {tokens[pos]!r}")
    return prop


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "!&|()":
            tokens.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "[]=,<>_"):
                j += 1
            if j == i:
                raise ValueError(f"unexpected character {c!r} in property string")
            tokens.append(text[i:j])
            i = j
    return tokens


def _parse_union(tokens, pos):
    prop, pos = _parse_intersection(tokens, pos)
    while pos < len(tokens) and tokens[pos] == "|":
        right, pos = _parse_intersection(tokens, pos + 1)
        prop = prop | right
    return prop, pos


def _parse_intersection(tokens, pos):
    prop, pos = _parse_unary(tokens, pos)
    while pos < len(tokens) and tokens[pos] == "&":
        right, pos = _parse_unary(tokens, pos + 1)
        prop = prop & right
    return prop, pos


def _parse_unary(tokens, pos):
    if pos >= len(tokens):
        raise ValueError("property string ended unexpectedly")
    if tokens[pos] == "!":
        prop, pos = _parse_unary(tokens, pos + 1)
        return ~prop, pos
    if tokens[pos] == "(":
        prop, pos = _parse_union(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ValueError("unbalanced parenthesis in property string")
        return prop, pos + 1
    return _parse_atom(tokens[pos]), pos + 1


ATOM_KEYS = {"PRMG": ("target",), "CHN": ("s", "rel"), "SIZE": ("s",),
             "CL": (), "TRUE": (), "FALSE": (), "BOT": ()}
# the relations an atom can name; a custom relation needs a function
CHAIN_RELATION_KINDS = ("equality", "prefix", "substring")


def _parse_atom(token: str) -> DatabaseProperty:
    """One NAME[key=val,...] atom; an unknown name, or a key the atom does not
    read or that is given twice, raises ValueError."""
    name, args = token, {}
    if "[" in token:
        if not token.endswith("]"):
            raise ValueError(f"malformed property atom {token!r}")
        name, body = token[:-1].split("[", 1)
        for item in body.split(","):
            if item:
                key, _, value = (part.strip() for part in item.partition("="))
                if key in args:
                    raise ValueError(f"repeated key {key!r} in property atom {token!r}")
                args[key] = value
    name = name.strip().upper()
    base, shorthand, size_bound = name.partition("<=")
    if base not in ATOM_KEYS or (shorthand and base != "SIZE"):
        raise ValueError(f"unknown property name {name!r}")
    allowed = () if shorthand else ATOM_KEYS[base]
    unknown = sorted(set(args) - set(allowed))
    if unknown:
        raise ValueError(f"property atom {token!r} takes no key {unknown[0]!r}")
    if base == "SIZE":
        return size_at_most(int(size_bound if shorthand else args["s"]))
    if name == "PRMG":
        return prmg(int(args.get("target", 0)))
    if name == "CL":
        return cl()
    if name == "CHN":
        rel_kind = args.get("rel", "equality")
        if rel_kind not in CHAIN_RELATION_KINDS:
            raise ValueError(f"unknown chain relation {rel_kind!r} in property atom {token!r}")
        return chn(int(args["s"]), ChainRelation(rel_kind))
    if name == "TRUE":
        return true_prop()
    if name == "FALSE":
        return false_prop()
    return empty_db_prop()
