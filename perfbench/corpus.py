"""Seeded corpora for the benchmark, with every expected result known by construction.

A generated system is a direct sum of primitives placed on fresh components.
Each primitive carries its own expected results: the catalog systems bring
their pinned `expected` values, and the chains, the doubled root and the
colored flags below state theirs.  The expectations of a sum follow from
the parts:

* sigma is distinguished in the sum iff it is distinguished in its part,
  with the same condition;
* sigma is critical in the sum iff it is critical in its part and every
  simple root of every other part is of type a (otherwise the coatom that
  drops such a root keeps the whole part and sigma stays non-distinguished);
  the verdict is vacuous under the same condition.

Mutants change one part in a way whose violated axioms are known exactly.
Documents are written here as JSON text, without calling the program, so
the corpus does not depend on the code it measures.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

# (series, rank) of each component; simple roots are numbered 1..rank across them.
Shape = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class Part:
    """One primitive on local labels 1..rank, with its expected results."""

    name: str
    shape: Shape
    psi: Tuple[Tuple[Tuple[int, int], ...], ...]  # per root: ((label, coeff), ...)
    colors: Tuple[Tuple[str, Tuple[int, ...], Tuple[Fraction, ...]], ...]
    types: str  # type letter per simple root
    distinguished: Tuple[Tuple[int, int], ...] = ()  # (root index, condition)
    critical: Tuple[Tuple[bool, bool], ...] = ()  # (critical, vacuous) per root

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.shape)

    @property
    def all_type_a(self) -> bool:
        return set(self.types) <= {"a"}


@dataclass(frozen=True)
class Case:
    """One generated document and what the program must say about it."""

    text: str
    shape: Shape
    n_psi: int
    axioms: frozenset  # violated axioms; empty for a valid system
    distinguished: Tuple[Tuple[int, int], ...]
    critical: Tuple[Tuple[bool, bool], ...]

    @property
    def valid(self) -> bool:
        return not self.axioms

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.shape)


# ---------------------------------------------------------------- primitives

def _one(*values) -> Tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def chain_a(n: int) -> Part:
    """A_n (n >= 2), sigma = a1 + ... + an, end roots colored: vacuously critical."""
    return Part(
        f"A{n}-chain", (("A", n),), (tuple((i, 1) for i in range(1, n + 1)),),
        (("D1", (1,), _one(1)), ("D2", (n,), _one(1))),
        "d" + "a" * (n - 2) + "d", (), ((True, True),),
    )


def chain_b(n: int) -> Part:
    """B_n (n >= 2), sigma = a1 + ... + an with type-a tail: distinguished (condition 2)."""
    return Part(
        f"B{n}-chain", (("B", n),), (tuple((i, 1) for i in range(1, n + 1)),),
        (("D1", (1,), _one(1)),), "d" + "a" * (n - 1), ((0, 2),), ((False, False),),
    )


def chain_c(n: int) -> Part:
    """C_n (n >= 3), sigma = a1 + 2(a2 + ... + a_{n-1}) + an: vacuously critical."""
    coeffs = ((1, 1),) + tuple((i, 2) for i in range(2, n)) + ((n, 1),)
    return Part(
        f"C{n}-chain", (("C", n),), (coeffs,), (("D1", (1,), _one(0)),),
        "d" + "a" * (n - 1), (), ((True, True),),
    )


def doubled_a1() -> Part:
    """A_1 with sigma = 2*a1 and its half-coroot color: type c, vacuously critical."""
    return Part("A1-doubled", (("A", 1),), (((1, 2),),), (("D", (1,), _one(2)),), "c",
                (), ((True, True),))


def flag(series: str, rank: int, colored: Sequence[int]) -> Part:
    """Rank-0 system whose `colored` simple roots carry a zero-functional color."""
    colored = sorted(set(colored))
    types = "".join("d" if i in colored else "a" for i in range(1, rank + 1))
    return Part(
        f"{series}{rank}-flag{{{','.join(map(str, colored))}}}", ((series, rank),), (),
        tuple((f"D{i}", (i,), ()) for i in colored), types,
    )


def catalog_parts() -> Dict[str, Part]:
    """The catalog systems as parts, with their pinned expected values."""
    from wondersys.catalog import catalog_entries

    parts = {}
    for entry in catalog_entries():
        s = entry.system
        index = {lab: i + 1 for i, lab in enumerate(s.rs.simple_roots)}
        exp = entry.expected
        parts[entry.name] = Part(
            entry.name,
            tuple((c.series, c.rank) for c in s.rs.components),
            tuple(tuple(sorted((index[l], v) for l, v in sigma.items())) for sigma in s.psi),
            tuple((d.id, tuple(sorted(index[l] for l in d.moved_by)), d.phi.values)
                  for d in s.colors),
            "".join(exp["type_map"][lab] for lab in s.rs.simple_roots),
            tuple(exp["distinguished"]),
            tuple((crit, vac) for _, crit, vac in exp["critical"]),
        )
    return parts


# ------------------------------------------------------------------ mutants
# Each kind changes one part so that exactly the named axioms fail.

def _drop_b_color(part: Part, rng: random.Random) -> Optional[Part]:
    """Remove a color of a type-b root: that root keeps one color, P1 fails."""
    picks = [k for k, (_, moved, _) in enumerate(part.colors)
             if any(part.types[i - 1] == "b" for i in moved)]
    if not picks:
        return None
    k = rng.choice(picks)
    return replace(part, colors=part.colors[:k] + part.colors[k + 1:])


def _bump_d_phi(part: Part, rng: random.Random) -> Optional[Part]:
    """Add 1 to a type-d color's functional on a root of its part: P1 fails.

    P2 looks only at colors of type-b roots and P3 at coroots, so neither moves.
    """
    picks = [k for k, (_, moved, _) in enumerate(part.colors)
             if part.psi and all(part.types[i - 1] == "d" for i in moved)]
    if not picks:
        return None
    k = rng.choice(picks)
    cid, moved, phi = part.colors[k]
    j = rng.randrange(len(phi))
    bumped = phi[:j] + (phi[j] + 1,) + phi[j + 1:]
    return replace(part, colors=part.colors[:k] + ((cid, moved, bumped),) + part.colors[k + 1:])


def _neighbours(part: Part, label: int) -> List[int]:
    """Neighbours of a label when every component is a chain (A, B, C, G)."""
    start = 1
    for series, rank in part.shape:
        if start <= label < start + rank:
            return [x for x in (label - 1, label + 1) if start <= x < start + rank]
        start += rank
    raise ValueError(label)


def _negate_a_coeff(part: Part, rng: random.Random) -> Optional[Part]:
    """Negate the coefficient of a type-a root whose neighbours are all type a.

    The base property fails (negative coefficient).  No colored root pairs
    differently with the changed root, so P1-P3 are untouched.
    """
    if not all(series in "ABCG" for series, _ in part.shape):
        return None
    picks = [(j, x) for j, sigma in enumerate(part.psi) for x, _ in sigma
             if part.types[x - 1] == "a"
             and all(part.types[y - 1] == "a" for y in _neighbours(part, x))]
    if not picks:
        return None
    j, x = rng.choice(picks)
    sigma = tuple((l, -v if l == x else v) for l, v in part.psi[j])
    return replace(part, psi=part.psi[:j] + (sigma,) + part.psi[j + 1:])


MUTATIONS = (("P1", _drop_b_color), ("P1", _bump_d_phi), ("BASE", _negate_a_coeff))


# ------------------------------------------------------------- composition

def _encode(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def compose(parts: Sequence[Part], axioms: frozenset = frozenset()) -> Case:
    """Direct sum of parts as a document, with expectations from the parts."""
    label_off, psi_off, n_labels, n_psi = [], [], 0, 0
    for p in parts:
        label_off.append(n_labels)
        psi_off.append(n_psi)
        n_labels += p.rank
        n_psi += len(p.psi)
    roots, colors, distinguished, critical = [], [], [], []
    for k, p in enumerate(parts):
        lo, po = label_off[k], psi_off[k]
        others_a = all(q.all_type_a for m, q in enumerate(parts) if m != k)
        for sigma in p.psi:
            roots.append({"coeffs": {f"a{lo + i}": v for i, v in sigma}})
        for cid, moved, phi in p.colors:
            values = [0] * po + [_encode(v) for v in phi] + [0] * (n_psi - po - len(phi))
            colors.append({"id": f"p{k + 1}.{cid}",
                           "moved_by": [f"a{lo + i}" for i in moved], "phi": values})
        distinguished += [(po + j, cond) for j, cond in p.distinguished]
        critical += [(crit and others_a, vac and others_a) for crit, vac in p.critical]
    shape = tuple(c for p in parts for c in p.shape)
    doc = {
        "root_system": {"components": [{"series": s, "rank": r} for s, r in shape]},
        "spherical_roots": roots,
        "colors": colors,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if axioms:
        return Case(text, shape, n_psi, frozenset(axioms), (), ())
    return Case(text, shape, n_psi, frozenset(), tuple(distinguished), tuple(critical))


def mutant(parts: List[Part], rng: random.Random) -> Optional[Case]:
    """Mutate one part of the sum; None when no part admits the chosen kind."""
    axiom, kind = rng.choice(MUTATIONS)
    order = list(range(len(parts)))
    rng.shuffle(order)
    for k in order:
        changed = kind(parts[k], rng)
        if changed is not None:
            return compose(parts[:k] + [changed] + parts[k + 1:], frozenset({axiom}))
    return None


# ---------------------------------------------------------------- workloads

SMALL_FLAGS = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2))
BIG_FLAGS = (("D", 6), ("D", 8), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("B", 5), ("C", 5))


def _random_flag(rng: random.Random, kinds) -> Part:
    series, rank = rng.choice(kinds)
    return flag(series, rank, rng.sample(range(1, rank + 1), rng.randint(0, min(2, rank))))


def _small_pool(catalog: Dict[str, Part]) -> List[Part]:
    return (list(catalog.values())
            + [chain_a(n) for n in (2, 3, 4)] + [chain_b(n) for n in (2, 3, 4)]
            + [chain_c(n) for n in (3, 4)] + [doubled_a1()])


def batch_small(seed: int, count: int = 1000) -> List[Case]:
    """Sums of 1-4 small primitives of total rank <= 8; every fifth is a mutant."""
    rng = random.Random(seed)
    pool = _small_pool(catalog_parts())
    cases = []
    while len(cases) < count:
        parts, rank = [], 0
        for _ in range(rng.randint(1, 4)):
            part = _random_flag(rng, SMALL_FLAGS) if rng.random() < 0.25 else rng.choice(pool)
            if rank + part.rank <= 8:
                parts.append(part)
                rank += part.rank
        if not parts:
            continue
        case = mutant(parts, rng) if len(cases) % 5 == 4 else compose(parts)
        if case is not None:
            cases.append(case)
    rng.shuffle(cases)
    return cases


WIDE_RANKS = (24, 28, 32, 36, 40, 44, 48)


def _root_counts(part: Part) -> Tuple[int, int]:
    """(distinguished, other) spherical roots of a part."""
    return len(part.distinguished), len(part.psi) - len(part.distinguished)


def _wide_sum(rng: random.Random, pool: List[Part], rank: int, roots: int) -> Case:
    """A sum of exactly `rank` simple roots and `roots` spherical roots, a third
    of them distinguished.

    The other roots are open: neither distinguished nor vacuous, so each costs
    critical_roots one localization.  Fixing the counts fixes the cost mix.
    """
    fillers = {(1, 0): next(p for p in pool if p.name == "p1"),
               (0, 1): next(p for p in pool if p.name == "A1-doubled")}
    dist, open_ = roots // 3, roots - roots // 3
    parts, room = [], rank
    while dist or open_:
        fits = [p for p in pool if p.psi and _root_counts(p)[0] <= dist
                and _root_counts(p)[1] <= open_ and p.rank + dist + open_ - len(p.psi) <= room]
        part = rng.choice(fits) if fits else fillers[(1, 0) if dist else (0, 1)]
        d, o = _root_counts(part)
        parts.append(part)
        dist, open_, room = dist - d, open_ - o, room - part.rank
    while room:
        part = _random_flag(rng, [(s, r) for s, r in SMALL_FLAGS if r <= room])
        parts.append(part)
        room -= part.rank
    rng.shuffle(parts)
    return compose(parts)


def wide_sums(seed: int, per_rank: int = 3) -> List[Case]:
    """Rank 24-48 sums of primitives on at most 3 nodes, 8-21 spherical roots.

    Each block of len(WIDE_RANKS) cases holds every rank once, and the root
    count grows with the rank, so the cost mix is the same for every seed.
    """
    rng = random.Random(seed)
    pool = [p for p in _small_pool(catalog_parts()) if all(r <= 3 for _, r in p.shape)]
    cases = []
    for _ in range(per_rank):
        block = [_wide_sum(rng, pool, r, 8 + round(13 * (r - 24) / 24)) for r in WIDE_RANKS]
        rng.shuffle(block)
        cases += block
    return cases


# 15 chains x 8 flags = 120 cases: the C8 and B8 cases are 1/15 each, so p90
# falls inside the B8 group rather than on the edge between two groups.
BIG_CHAINS = [make(n) for make in (chain_a, chain_b, chain_c) for n in range(4, 9)]


def big_components(seed: int) -> List[Case]:
    """Every A/B/C chain of rank 4-8 summed with a colored flag of every large kind.

    The last node of each flag is colored, so the first coatom of
    critical_roots drops it and localize detects the same remainder for
    every seed: the cost mix is fixed.  The seed colors one more node below
    it (or none) and orders the parts and the cases.
    """
    rng = random.Random(seed)
    cases = []
    for chain in BIG_CHAINS:
        for series, rank in BIG_FLAGS:
            colored = [rank] + rng.sample(range(1, rank), rng.randint(0, 1))
            parts = [chain, flag(series, rank, colored)]
            rng.shuffle(parts)
            cases.append(compose(parts))
    rng.shuffle(cases)
    return cases


def orbit_sum(rng: random.Random, roots: int) -> Case:
    """A valid sum with `roots` spherical roots on as many simple roots, for orbits and DOT."""
    pool = [p for p in _small_pool(catalog_parts()) if p.psi and len(p.psi) == p.rank]
    parts, have = [], 0
    while have < roots:
        part = rng.choice([p for p in pool if len(p.psi) <= roots - have])
        parts.append(part)
        have += len(part.psi)
    return compose(parts)


# -------------------------------------------------------- workload properties

def shape_repeat_share(shapes: Sequence[Shape]) -> float:
    """Share of items whose component shapes repeat an earlier item's."""
    seen, repeats = set(), 0
    for shape in shapes:
        repeats += shape in seen
        seen.add(shape)
    return repeats / len(shapes) if shapes else 0.0


def rank_histogram(ranks: Sequence[int]) -> Dict[str, int]:
    hist: Dict[str, int] = {}
    for r in sorted(ranks):
        hist[str(r)] = hist.get(str(r), 0) + 1
    return hist


@dataclass(frozen=True)
class CliCase:
    """One CLI invocation: verb, output format, input and what must come back."""

    verb: str
    json: bool
    source: str  # catalog name, or "" when `doc` is written to a file
    doc: Optional[str]
    exit_code: int
    expect: Optional[Case]  # None for a malformed document


# One cycle of the cli-oneshot mix: (verb, --format json, input kind).  The
# three orbit ops with 12 spherical roots are 15% of the cycle, so p90 falls
# inside that group rather than on the edge between two groups.
CLI_CYCLE = (
    ("validate", False, "catalog"), ("validate", True, "catalog"),
    ("rigidity", False, "catalog"), ("rigidity", True, "catalog"),
    ("critical", True, "catalog"),
    ("validate", False, "valid"), ("validate", True, "valid"),
    ("rigidity", True, "valid"), ("critical", True, "valid"), ("critical", False, "valid"),
    ("validate", True, "invalid"), ("validate", False, "invalid"), ("critical", True, "invalid"),
    ("validate", True, "malformed"), ("critical", False, "malformed"),
    ("orbits", False, 10), ("orbits", True, 11), ("orbits", False, 12),
    ("orbits", True, 12), ("orbits", False, 12),
)


def _malformed(text: str, rng: random.Random) -> str:
    """Break a valid document so that parsing must fail with exit code 2."""
    doc = json.loads(text)
    kind = rng.randrange(5)
    if kind == 0:
        return text[: len(text) // 2]
    if kind == 1:
        del doc["root_system"]
    elif kind == 2:
        doc["root_system"]["components"][0]["series"] = "Q"
    elif kind == 3:
        doc["colors"].append({"id": "X", "moved_by": ["a999"], "phi": [0] * len(doc["spherical_roots"])})
    else:
        doc["colors"].append({"id": "X", "moved_by": ["a1"], "phi": ["1/3"] * len(doc["spherical_roots"])})
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cli_mix(seed: int) -> List[CliCase]:
    """One cycle of CLI invocations with seeded inputs."""
    rng = random.Random(seed)
    catalog = catalog_parts()
    names = sorted(catalog)
    small = batch_small(rng.randrange(2**32), count=40)
    # Inputs with a root that is neither distinguished nor vacuous, so that
    # `critical` localizes.
    valid = [c for c in small if c.valid and any(
        not vac and i not in dict(c.distinguished) for i, (_, vac) in enumerate(c.critical))]
    invalid = [c for c in small if not c.valid]
    out = []
    for verb, as_json, kind in CLI_CYCLE:
        if kind == "catalog":
            name = rng.choice(names)
            out.append(CliCase(verb, as_json, name, None, 0, compose([catalog[name]])))
        elif kind == "valid":
            case = rng.choice(valid)
            out.append(CliCase(verb, as_json, "", case.text, 0, case))
        elif kind == "invalid":
            case = rng.choice(invalid)
            out.append(CliCase(verb, as_json, "", case.text, 1, case))
        elif kind == "malformed":
            text = _malformed(rng.choice(valid).text, rng)
            out.append(CliCase(verb, as_json, "", text, 2, None))
        else:
            case = orbit_sum(rng, kind)
            out.append(CliCase(verb, as_json, "", case.text, 0, case))
    return out
