"""Exact root-system arithmetic over the root lattice.

Semisimple Dynkin data with integer Cartan matrices and an integral
Weyl-invariant form, normalized so that the short roots of every simple
component have squared length 2.  Functionals take values in (1/2)Z and are
stored doubled, so all arithmetic is on ints; no floats.
A root system has total rank at most MAX_RANK.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add, attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple

# Largest total rank a root system may have.  It is checked before anything
# of size n is built, a rank-k component's k x k Cartan block included; it
# bounds what one input document can make the program allocate.
MAX_RANK = 64

# The labels a1, a2, ..., a{MAX_RANK} that `build_root_system` gives the
# simple roots by position, formatted once.
_LABELS = tuple(f"a{i}" for i in range(1, MAX_RANK + 1))


class RootSystemError(ValueError):
    """Invalid series/rank data or unknown simple-root label."""


# Record subclasses set their fields through this alias: a module global is
# found faster than the attribute `object.__setattr__`.
_set = object.__setattr__


class Record:
    """Immutable value with named fields.

    The value fields are the names in the class attribute `_value`, which
    defaults to `__slots__`; a class that keeps indexes derived from its
    value in further slots names the value alone there.  A subclass's
    `__init__` sets each slot once through `_set`, which is
    `object.__setattr__`.  Equality (same class, equal values), the hash,
    the repr `Name(field=value, ...)` and copy and pickle, which call the
    class with the value again, read the value as one tuple through
    `_fields`, an `operator.attrgetter` over `_value`.  Assigning or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._value = cls.__dict__.get("_value", cls.__slots__)
        get = attrgetter(*names)
        # attrgetter of one name returns the bare value, not a 1-tuple.
        cls._fields = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._value, self._fields(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which never assigns.
        return (self.__class__, self._fields(self))


class LatticeVector(Record):
    """Integer vector over simple-root labels, finitely supported.

    Zero coefficients are dropped on construction; equality and hashing
    are coefficient-wise.  Every label must be a `str` and every coefficient
    an `int` (not a bool): anything else raises ValueError naming it, rather
    than failing later, when the vector is printed or sorted.  Like every
    `Record`, a vector cannot be changed once built.  Arithmetic on vectors
    builds its result through `_of_ints`, since the operands were checked.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[str, int] | Iterable[Tuple[str, int]] = ()):
        coeffs = dict(coeffs)
        for k, v in coeffs.items():
            if not isinstance(k, str):
                raise ValueError(f"label {k!r} is not a str")
            if type(v) is not int:
                raise ValueError(f"coefficient of {k!r} is not an int: {v!r}")
        _set(self, "_coeffs", {k: v for k, v in coeffs.items() if v})

    @classmethod
    def _of_ints(cls, coeffs: dict) -> "LatticeVector":
        """The vector with these int coefficients, taken as they are but for zeros.

        The dict becomes the vector's own; nothing is copied or checked.
        """
        v = object.__new__(cls)
        if 0 in coeffs.values():
            coeffs = {k: c for k, c in coeffs.items() if c}
        _set(v, "_coeffs", coeffs)
        return v

    @property
    def support(self) -> frozenset:
        return frozenset(self._coeffs)

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        merged = dict(self._coeffs)
        for k, v in other._coeffs.items():
            merged[k] = merged.get(k, 0) + v
        return LatticeVector._of_ints(merged)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self + (-other)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector._of_ints({k: -v for k, v in self._coeffs.items()})

    def __mul__(self, n: int) -> "LatticeVector":
        if type(n) is not int:
            raise ValueError(f"factor is not an int: {n!r}")
        return LatticeVector._of_ints({k: n * v for k, v in self._coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LatticeVector) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for k in sorted(self._coeffs, key=_label_key):
            v = self._coeffs[k]
            if v == 1:
                parts.append(k)
            elif v == -1:
                parts.append(f"-{k}")
            else:
                parts.append(f"{v}*{k}")
        return "+".join(parts).replace("+-", "-")

    def __repr__(self) -> str:
        return f"LatticeVector({dict(sorted(self._coeffs.items()))})"


def _label_key(label: str) -> Tuple[int, str]:
    # One character that is not a digit, then decimal digits, as in "a12".
    tail = label[1:]
    if tail.isdecimal() and not label[:1].isdecimal():
        return (int(tail), label)
    # Decimal digits only: `int` refuses other digits, such as "²".
    digits = "".join(filter(str.isdecimal, label))
    return (int(digits) if digits else 0, label)


class Functional(Record):
    """Linear functional with values in (1/2)Z, given on an ordered base.

    Used for color functionals and restricted coroots: the values are
    indexed by the position of each spherical root in the ambient system.
    Every value is stored doubled, as the int `twice[i]`.  The constructor
    takes ints (not bools) and `Fraction`s with denominator 1 or 2, and
    raises ValueError on anything else (the document reader checks its
    text itself and builds through `_of_twice`); `twice` cannot be changed
    afterwards.  `values` and `phi[i]` read the values back as `Fraction`s.
    """

    __slots__ = ("twice",)

    def __init__(self, values: Iterable[Fraction | int]):
        twice = []
        for i, v in enumerate(values):
            if type(v) is int:
                twice.append(2 * v)
            elif type(v) is Fraction and v.denominator <= 2:
                twice.append(2 * v.numerator // v.denominator)
            else:
                raise ValueError(
                    f"value {i} of a functional is not an int or a half-integer "
                    f"Fraction: {v!r}"
                )
        _set(self, "twice", tuple(twice))

    @classmethod
    def _of_twice(cls, twice: Tuple[int, ...]) -> "Functional":
        """The functional whose doubled values are `twice`, taken as they are."""
        f = object.__new__(cls)
        _set(f, "twice", twice)
        return f

    @property
    def values(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(t, 2) for t in self.twice)

    def __add__(self, other: "Functional") -> "Functional":
        if len(self.twice) != len(other.twice):
            raise ValueError("functional length mismatch")
        return Functional._of_twice(tuple(map(add, self.twice, other.twice)))

    def restrict(self, indices: Sequence[int]) -> "Functional":
        """The functional on the spherical roots at `indices`, in that order."""
        return Functional._of_twice(tuple([self.twice[i] for i in indices]))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Functional) and self.twice == other.twice

    def __hash__(self) -> int:
        return hash(self.twice)

    def __reduce__(self):
        # __init__ would double the stored values again.
        return (self._of_twice, (self.twice,))

    def __len__(self) -> int:
        return len(self.twice)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.twice[i], 2)

    def __str__(self) -> str:
        return "(" + ", ".join(map(half_text, self.twice)) + ")"

    __repr__ = __str__


def half_text(twice: int) -> str:
    """The value twice/2 as `Fraction` prints it: "t" or "t/2"."""
    return f"{twice}/2" if twice % 2 else str(twice // 2)


def _simply_laced(n: int, edges: Iterable[Tuple[int, int]]) -> list:
    cartan = [[0] * n for _ in range(n)]
    for i in range(n):
        cartan[i][i] = 2
    for i, j in edges:
        cartan[i][j] = cartan[j][i] = -1
    return cartan


def _chain_cartan(n: int) -> list:
    return _simply_laced(n, [(i, i + 1) for i in range(n - 1)])


def component_cartan(series: str, rank: int) -> Tuple[list, list]:
    """Standard Cartan matrix and squared lengths for one simple component.

    Ordering follows the usual Bourbaki numbering; in B_k the short simple
    root is last, in G_2 it is the second one.  Short roots have squared
    length 2.  A rank that is not an `int` (a bool included) raises
    RootSystemError, so every component's rank is written as a JSON number.
    Each call builds fresh lists; `RootSystem` and `positive_roots` read the
    same data from the table `_COMPONENTS`, built once per (series, rank).
    """
    if type(rank) is not int:
        raise RootSystemError(f"invalid component {series}{rank}: rank is not an int")
    n = rank
    if series == "A" and n >= 1:
        return _chain_cartan(n), [2] * n
    if series == "B" and n >= 2:
        cartan = _chain_cartan(n)
        cartan[n - 1][n - 2] = -2
        return cartan, [4] * (n - 1) + [2]
    if series == "C" and n >= 2:
        cartan = _chain_cartan(n)
        cartan[n - 2][n - 1] = -2
        return cartan, [2] * (n - 1) + [4]
    if series == "D" and n >= 3:
        return _simply_laced(n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]), [2] * n
    if series == "E" and n in (6, 7, 8):
        edges = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        return _simply_laced(n, edges[: n - 1]), [2] * n
    if series == "F" and n == 4:
        cartan = _chain_cartan(4)
        cartan[2][1] = -2
        return cartan, [4, 4, 2, 2]
    if series == "G" and n == 2:
        return [[2, -1], [-3, 2]], [6, 2]
    raise RootSystemError(f"invalid component {series}{rank}")


# (series, rank) -> [half-norms, columns, roots] of one simple component, by
# position: columns[c] is the pair (rows, entries) of two tuples, the rows r
# with a_rc != 0 in ascending order and those entries a_rc, so a column is
# labelled in one `zip` over a `map`.  Roots, None until `positive_roots`
# first asks for them, lists the positive roots, each a tuple of (position,
# coefficient) pairs.  Filled from `component_cartan` on first use, only for
# valid components of rank at most MAX_RANK, so it never holds more than
# 7 * MAX_RANK entries.  With every valid (series, rank) entered and its
# roots filled it holds 257 entries, 312,245 roots and about 75 MB
# (tracemalloc, CPython 3.11).
_COMPONENTS: dict = {}


def _component(series: str, rank: int) -> list:
    """The entry [half-norms, columns, roots] of one component, by position.

    Invalid data raises as in `component_cartan`, and a rank above MAX_RANK
    raises before anything is built.  The table is read only for a `str`
    series and an `int` rank: a dict finds 2.0 and True under the keys 2 and 1.
    """
    key = (series, rank)
    if type(series) is str and type(rank) is int:
        entry = _COMPONENTS.get(key)
        if entry is not None:
            return entry
        if rank > MAX_RANK:
            raise RootSystemError(f"component {series}{rank} exceeds the limit {MAX_RANK}")
    cartan, lengths = component_cartan(series, rank)
    entry = _COMPONENTS[key] = [
        tuple(x // 2 for x in lengths),
        tuple(
            (
                tuple(r for r, row in enumerate(cartan) if row[c]),
                tuple(row[c] for row in cartan if row[c]),
            )
            for c in range(rank)
        ),
        None,
    ]
    return entry


def _place(comp: Component, by_label: dict) -> None:
    """Enter one component's (half-norm, Cartan column) pairs, read from
    `_COMPONENTS` by position, under its labels.  Each column's (rows,
    entries) pair is labelled by mapping its rows to the component's labels
    and zipping them with its entries, without a loop in Python per entry."""
    norms, cols, _ = _component(comp.series, comp.rank)
    labels = comp.labels
    at = labels.__getitem__
    for label, d, (rows, entries) in zip(labels, norms, cols):
        by_label[label] = (d, frozenset(zip(map(at, rows), entries)))


class Component(Record):
    """One simple component: its series, rank and labels in canonical order.

    The labels are kept as a tuple, whatever sequence they are given as, so
    components compare and hash by value; a `str`, which would be read as
    its characters, raises RootSystemError.
    """

    __slots__ = ("series", "rank", "labels")

    def __init__(self, series: str, rank: int, labels: Sequence[str]):
        if isinstance(labels, str):
            raise RootSystemError(
                f"component {series}{rank}: labels is a str, not a sequence of labels: {labels!r}"
            )
        _set(self, "series", series)
        _set(self, "rank", rank)
        _set(self, "labels", tuple(labels))


# A component's labels, read by `map` in `RootSystem._assign`.
_labels_of = attrgetter("labels")


class RootSystem(Record):
    """Semisimple root system with exact Cartan and form data.

    The Cartan matrix a_ab = <alpha_a^vee, alpha_b> is stored once, as an
    index of its columns by their nonzero entries, keyed by label:
    `column(b)` is the frozenset of pairs (a, a_ab) with a_ab != 0, read off
    b's own component block, so every column holds at most four entries and
    pairing a coroot with a vector costs its support times the few
    neighbours of each label.  With it comes d_a = |alpha_a|^2 / 2, which is
    1, 2 or 3 (`half_norm`).  Both sit in one table keyed by label, as the
    pair (d_b, column(b)), read by position in the component from the table
    `_COMPONENTS`, which holds them once per (series, rank) and at most
    7 * MAX_RANK entries in all, so a new root system builds no Cartan block
    and only maps positions to its labels: each column is kept there as a
    (rows, entries) pair, and its rows are mapped to labels in one `zip`.
    The invariant form on simple roots is (alpha_a, alpha_b) = d_a a_ab, so
    no Gram matrix is stored.
    Nothing of size n x n is built.  Only `index` knows where a label stands
    in the system; no other field of it depends on positions.  The total rank may not exceed MAX_RANK.
    A `Record` whose value is its components: equality, hash, copy and
    pickle read them alone, and every other slot is derived from them.
    Safe for concurrent use.

    Components are listed by their smallest label under `_label_key`,
    whatever order they are given in, so two root systems with the same
    components are equal and hash equal; every label must be a `str`.
    Each component's smallest key is computed once and kept with it, so
    `induced` merges the components it reuses with the pieces it cuts
    without computing their keys again.  A document's components arrive in
    this order already, and the sort then makes one comparison per
    component; it needs no check of the order before it.
    """

    __slots__ = ("components", "simple_roots", "_keys", "_index", "_by_label")
    _value = ("components",)

    def __init__(self, components: Sequence[Component]):
        components = tuple(components)
        # The total rank, the label types and, after the sort, duplicates are
        # checked on one flat list of the labels.
        labels = list(chain.from_iterable(map(_labels_of, components)))
        n = len(labels)
        if n > MAX_RANK:
            raise RootSystemError(f"total rank {n} exceeds the limit {MAX_RANK}")
        for lab in labels:
            if not isinstance(lab, str):
                raise RootSystemError(f"simple-root label {lab!r} is not a str")
        # A component without labels is refused below, with its own message.
        keyed = sorted(
            ((min(map(_label_key, comp.labels), default=()), comp) for comp in components),
            key=itemgetter(0),
        )
        if len(set(labels)) != n:
            raise RootSystemError("duplicate simple-root labels")
        by_label = {}
        for _, comp in keyed:
            if len(comp.labels) != comp.rank:
                raise RootSystemError("component label count mismatch")
            _place(comp, by_label)
        self._assign(keyed, by_label)

    def _assign(self, keyed: Sequence[Tuple[tuple, Component]], by_label: dict) -> None:
        """Set every field from the (smallest key, component) pairs in key
        order and the (half-norm, column) pairs by label.  The keys and
        components are split apart in one `zip`, and the labels and their
        index are gathered by `chain` and `zip`, without a loop in Python."""
        keys, components = tuple(zip(*keyed)) or ((), ())
        simple_roots = tuple(chain.from_iterable(map(_labels_of, components)))
        _set(self, "components", components)
        _set(self, "_keys", keys)
        _set(self, "simple_roots", simple_roots)
        _set(self, "_index", dict(zip(simple_roots, range(len(simple_roots)))))
        _set(self, "_by_label", by_label)

    def induced(self, subset: Iterable[str]) -> "RootSystem":
        """The root system on the sub-diagram of a set of simple-root labels.

        Equal to `RootSystem` of the typed components of that sub-diagram,
        but derived from this one.  A label outside the system, or a `str`
        (read as its characters), raises RootSystemError before anything
        is built.  The label table starts as a copy of this system's, so a
        component the subset covers keeps its key and entries as they are.
        The labels of every other component are deleted from the copy; what
        the subset keeps of a cut component is typed again by
        `detect_subdiagram_type`, and each piece enters its half-norms and
        columns from `_COMPONENTS`, as `__init__` does.
        """
        if isinstance(subset, str):
            raise RootSystemError(f"subset is a str, not a set of labels: {subset!r}")
        subset = frozenset(subset)
        unknown = subset - self._index.keys()
        if unknown:
            raise RootSystemError(f"unknown simple-root label {next(iter(unknown))!r}")
        by_label = dict(self._by_label)
        keyed = []
        for key, comp in zip(self._keys, self.components):
            if subset.issuperset(comp.labels):
                keyed.append((key, comp))
                continue
            for lab in comp.labels:
                del by_label[lab]
            kept = [lab for lab in comp.labels if lab in subset]
            if kept:
                for piece in detect_subdiagram_type(self, kept):
                    keyed.append((min(map(_label_key, piece.labels)), piece))
                    _place(piece, by_label)
        keyed.sort(key=itemgetter(0))
        rs = object.__new__(RootSystem)
        rs._assign(keyed, by_label)
        return rs

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    def index(self, label: str) -> int:
        """The position of a label in `simple_roots`."""
        try:
            return self._index[label]
        except KeyError:
            raise RootSystemError(f"unknown simple-root label {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def column(self, label: str) -> frozenset:
        """The nonzero entries (a, a_ab) of the Cartan column of b = label."""
        try:
            return self._by_label[label][1]
        except KeyError:
            raise RootSystemError(f"unknown simple-root label {label!r}") from None

    def cartan_entry(self, a: str, b: str) -> int:
        """a_ab = <alpha_a^vee, alpha_b>, found by label a in the column of b."""
        self.index(a)  # raises on an unknown label
        for row, x in self.column(b):
            if row == a:
                return x
        return 0

    def half_norm(self, label: str) -> int:
        """d_a = (alpha_a, alpha_a) / 2 of the simple root a = label: 1, 2 or 3."""
        try:
            return self._by_label[label][0]
        except KeyError:
            raise RootSystemError(f"unknown simple-root label {label!r}") from None

    def as_simple_label(self, v: LatticeVector) -> Optional[str]:
        """Label of v if v is a simple root of this system, else None."""
        coeffs = v._coeffs
        if len(coeffs) == 1:
            ((label, c),) = coeffs.items()
            if c == 1 and label in self._index:
                return label
        return None

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.series}{c.rank}" for c in self.components)
        return f"RootSystem({inner})"


def build_root_system(spec: Sequence[Tuple[str, int]]) -> RootSystem:
    """Build a root system from (series, rank) pairs with labels a1, a2, ....

    Each component's labels are a slice of `_LABELS`, taken once its rank
    is known to keep the total within MAX_RANK."""
    comps = []
    next_i = 1
    for series, rank in spec:
        # component_cartan refuses a rank that is not an int, before any sum.
        if type(rank) is int and next_i - 1 + rank > MAX_RANK:
            raise RootSystemError(f"total rank exceeds the limit {MAX_RANK}")
        _component(series, rank)  # raises on invalid data
        comps.append(Component(series, rank, _LABELS[next_i - 1 : next_i - 1 + rank]))
        next_i += rank
    return RootSystem(comps)


def detect_subdiagram_type(rs: RootSystem, sigma: Iterable[str]) -> list:
    """Decompose the induced sub-diagram on a label set into typed components.

    Returns a list of Component, one per connected component in the order of
    their smallest labels, each with its labels in the canonical ordering of
    its series (short root last for B, second for G).  The canonical ordering
    is the first one, comparing labels by `_label_key`, whose Cartan block is
    the standard matrix of the first matching series in A, B, C, D, E, F, G;
    it depends only on the labels and their Cartan entries, never on the
    ambient indexing, so repeated localization is stable.  Each component is
    recognized from its node degrees, branch arms and multiple bond, read off
    the Cartan columns of its labels, at most four entries per label, in
    whatever order a column lists them.  A label outside the system, or a
    `str` (which would be read as its characters), raises RootSystemError.
    """
    if isinstance(sigma, str):
        raise RootSystemError(f"subset is a str, not a set of labels: {sigma!r}")
    labels = sorted(set(sigma), key=_label_key)
    # Nodes are positions in `labels`; `at` maps a label of the set to one.
    at = {lab: p for p, lab in enumerate(labels)}
    nbrs = []
    bonds = {}  # short node -> (short, long, multiplicity) of a multiple bond
    for q, lab in enumerate(labels):
        near = []
        for other, a in rs.column(lab):
            # Off the diagonal every nonzero entry is negative.
            if a < 0 and other in at:
                p = at[other]
                near.append(p)
                if a < -1:
                    bonds[p] = (p, q, -a)
        nbrs.append(near)
    seen = [False] * len(labels)
    out = []
    for start, near in enumerate(nbrs):
        if seen[start]:
            continue
        seen[start] = True
        if not near:
            out.append(Component("A", 1, (labels[start],)))
            continue
        members, stack = [start], [start]
        while stack:
            for q in nbrs[stack.pop()]:
                if not seen[q]:
                    seen[q] = True
                    members.append(q)
                    stack.append(q)
        members.sort()
        out.append(_recognize(members, nbrs, bonds, labels))
    return out


def _walk(nbrs: list, prev: Optional[int], cur: int) -> list:
    """Nodes of the simple path from cur away from prev, up to an end or branch."""
    path = [cur]
    while True:
        ahead = [q for q in nbrs[cur] if q != prev]
        if len(ahead) != 1:
            return path
        prev, cur = cur, ahead[0]
        path.append(cur)


def _recognize(members: list, nbrs: list, bonds: dict, labels: list) -> Component:
    """Type and canonical order of a connected Dynkin diagram of two or more nodes.

    `members` are its nodes, ascending positions in the `_label_key`-sorted
    `labels`; `nbrs[p]` lists the neighbours of node p, and `bonds` maps the
    short end of each multiple bond to (short, long, multiplicity).
    """
    k = len(members)
    branches = [i for i in members if len(nbrs[i]) == 3]
    order = None
    if branches:
        b = branches[0]
        arms = sorted((_walk(nbrs, b, j) for j in nbrs[b]), key=lambda a: (len(a), a[-1]))
        lengths = [len(a) for a in arms]
        if lengths == [1, 1, 1]:
            series, order = "D", arms[0] + [b] + arms[1] + arms[2]
        elif lengths[:2] == [1, 1]:
            series, order = "D", arms[2][::-1] + [b] + arms[0] + arms[1]
        elif lengths[:2] == [1, 2] and lengths[2] <= 4:
            series, order = "E", [arms[1][1], arms[0][0], arms[1][0], b] + arms[2]
    else:
        order = _walk(nbrs, None, min(i for i in members if len(nbrs[i]) == 1))
        bond = next((bonds[i] for i in order if i in bonds), None)
        if bond is None:
            series = "A"
        else:
            short, long_, mult = bond
            # B_2, B_n and G_2 end at the short root, F_4 runs long to short,
            # C_n ends at its long end root.
            if mult == 3:
                series = "G"
            elif short in (order[0], order[-1]):
                series = "B"
            elif long_ in (order[0], order[-1]):
                series = "C"
            else:
                series = "F"
            if (order.index(long_) < order.index(short)) != (series != "C"):
                order.reverse()
    if order is None:
        raise RootSystemError(f"unclassifiable sub-diagram on {[labels[i] for i in members]}")
    return Component(series, k, tuple(labels[i] for i in order))


def _component_positive_roots(columns: tuple) -> tuple:
    """Positive roots of one simple component by position: each root is a
    tuple of (position, coefficient) pairs, with every coefficient positive.

    Closure of the simple roots under height-raising simple reflections
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    10.2): s_i permutes the positive roots other than alpha_i, and a
    positive root beta that is not simple pairs positively with some coroot
    alpha_i^vee, so s_i(beta) is a lower positive root.  Hence reflecting
    beta at each i with c = <beta, alpha_i^vee> < 0, which adds -c to
    coefficient i, reaches every positive root and nothing else.  A root
    carries its nonzero pairings by position, and s_i(beta) pairs as beta
    minus c times the sparse column `columns[i]`, a (rows, entries) pair as
    `_COMPONENTS` holds it.  Its key is the int with coefficient i in bits
    4i to 4i + 3: no coefficient exceeds 6 (E8's highest root), so the
    fields never carry and the key is injective.
    The roots share one tuple per distinct pair, which keeps the roots slots
    of `_COMPONENTS` compact.
    """
    unit = [1 << 4 * i for i in range(len(columns))]
    found = set(unit)
    layer = [(unit[i], {i: 1}, dict(zip(*col))) for i, col in enumerate(columns)]
    pairs = {}
    out = []
    while layer:
        above = []
        for key, coeffs, pairing in layer:
            out.append(tuple([pairs.setdefault(pc, pc) for pc in coeffs.items()]))
            for i, c in pairing.items():
                if c < 0 and (up := key - c * unit[i]) not in found:
                    found.add(up)
                    coeffs_up = dict(coeffs)
                    coeffs_up[i] = coeffs.get(i, 0) - c
                    pairing_up = dict(pairing)
                    for r, x in zip(*columns[i]):
                        pairing_up[r] = pairing_up.get(r, 0) - c * x
                    above.append((up, coeffs_up, pairing_up))
        layer = above
    return tuple(out)


# The setter of `LatticeVector`'s `_coeffs` slot, called as
# `_set_coeffs(vector, coeffs)`: it skips the lookup of the slot by name
# that `_set` makes on every call.
_set_coeffs = LatticeVector._coeffs.__set__


def positive_roots(rs: RootSystem) -> frozenset:
    """All positive roots: each lies in one simple component.  A component's
    roots are closed once by position along the sparse columns of its
    `_COMPONENTS` entry and kept in that entry's roots slot, which only this
    function fills; each call only maps positions to the component's labels,
    building each root's coefficient dict as its vector's own and storing it
    through the slot's setter `_set_coeffs`, so no Cartan block and no
    checked vector is built.  `_component_positive_roots` gives the
    reflection argument."""
    out = []
    new = object.__new__
    for comp in rs.components:
        entry = _component(comp.series, comp.rank)
        roots = entry[2]
        if roots is None:
            roots = entry[2] = _component_positive_roots(entry[1])
        labels = comp.labels
        for root in roots:
            v = new(LatticeVector)
            _set_coeffs(v, {labels[p]: c for p, c in root})
            out.append(v)
    return frozenset(out)
