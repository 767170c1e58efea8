"""Synthetic smokers-network data, ground-atom database files, and typed subsampling.

Databases are closed-world: a set of true ground atoms over named constants;
everything unlisted is false. The generator and the subsampler draw from
numpy's seeded PCG64 generator in a fixed order, so outputs are reproducible
across runs and platforms; the generator identifier is recorded in metadata.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .logic import Signature
from .worlds import AtomIndex, DomainSpec, World

RNG_ID = "numpy-PCG64"

PERSON = "person"

SMOKER_SHARE = Fraction(2, 5)
CANCER_SHARE_SMOKER = Fraction(3, 10)
CANCER_SHARE_NONSMOKER = Fraction(1, 10)
FRIEND_PROB_SAME_HABIT = 0.8
FRIEND_PROB_DIFF_HABIT = 0.1

FRIENDS_SMOKERS_MLN = """\
// Smokers network, desk scale
type person = 3
predicate Smokes(person)
predicate Cancer(person)
predicate Friends(person,person)

0 Smokes(x)
0 Cancer(x)
0 Smokes(x) => Cancer(x)
0 Friends(x,y) ^ Smokes(x) => Smokes(y)
"""


class DbParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message + (f" (line {line})" if line is not None else ""))
        self.line = line


@dataclass(frozen=True)
class SampleSpec:
    """Uniform subsample of one type's constants: which type, how many, which seed."""

    sample_type: str
    size: int
    seed: int


class Database:
    """Closed-world set of true ground atoms over named, per-type constants.

    Constants are registered in insertion order; their 1-based position is the
    integer id used when grounding against a ``DomainSpec``.
    """

    def __init__(self, signature: Signature):
        self.signature = signature
        self.constants: dict[str, list[str]] = {t: [] for t, _ in signature.types}
        self.atoms: set[tuple[str, tuple[str, ...]]] = set()

    def add_constant(self, type_name: str, name: str) -> None:
        if type_name not in self.constants:
            raise ValueError(f"unknown type: {type_name}")
        if name not in self.constants[type_name]:
            self.constants[type_name].append(name)

    def add_atom(self, pred: str, args: tuple[str, ...], register: bool = True) -> None:
        p = self.signature.predicate(pred)
        if len(args) != p.arity:
            raise ValueError(f"predicate {pred} expects {p.arity} arguments, got {len(args)}")
        for a, t in zip(args, p.arg_types):
            if register:
                self.add_constant(t, a)
            elif a not in self.constants[t]:
                raise ValueError(f"unregistered constant {a} of type {t}")
        self.atoms.add((pred, tuple(args)))

    def constant_ids(self, type_name: str) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.constants[type_name], start=1)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Database)
            and self.signature == other.signature
            and self.constants == other.constants
            and self.atoms == other.atoms
        )

    def __repr__(self) -> str:
        counts = {t: len(cs) for t, cs in self.constants.items()}
        return f"Database({counts}, {len(self.atoms)} atoms)"


def friends_smokers_signature() -> Signature:
    return Signature.make(
        {PERSON: 3},
        {"Smokes": (PERSON,), "Cancer": (PERSON,), "Friends": (PERSON, PERSON)},
    )


def _round_half_up(x: Fraction) -> int:
    return int(x + Fraction(1, 2))


def generate_friends_smokers(population: int, seed: int) -> Database:
    """Smokers-network database over ``population`` people.

    A fixed share of the population smokes; cancer strikes fixed shares of
    smokers and non-smokers (all shares rounded half-up, chosen uniformly);
    each ordered pair of distinct people is a friendship independently, with
    probability depending on whether their smoking habits match. Friendships
    are directed and self-friendship is never generated.
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    rng = np.random.default_rng(seed)
    db = Database(friends_smokers_signature())
    names = [f"P{i}" for i in range(1, population + 1)]
    for name in names:
        db.add_constant(PERSON, name)

    n_smokers = _round_half_up(SMOKER_SHARE * population)
    smokers = sorted(int(i) for i in rng.choice(population, size=n_smokers, replace=False))
    smoker_set = set(smokers)
    non_smokers = [i for i in range(population) if i not in smoker_set]

    for i in smokers:
        db.add_atom("Smokes", (names[i],))
    for group, share in ((smokers, CANCER_SHARE_SMOKER), (non_smokers, CANCER_SHARE_NONSMOKER)):
        k = _round_half_up(share * len(group))
        picks = sorted(int(i) for i in rng.choice(len(group), size=k, replace=False)) if group else []
        for p in picks:
            db.add_atom("Cancer", (names[group[p]],))

    for i in range(population):
        for j in range(population):
            if i == j:
                continue
            same = (i in smoker_set) == (j in smoker_set)
            p = FRIEND_PROB_SAME_HABIT if same else FRIEND_PROB_DIFF_HABIT
            if rng.random() < p:
                db.add_atom("Friends", (names[i], names[j]))
    return db


def generation_metadata(population: int, seed: int, db: Database) -> dict:
    """Sidecar metadata describing one generated database."""
    return {
        "kind": "friends_smokers",
        "population": population,
        "seed": seed,
        "rng": RNG_ID,
        "shares": {
            "smoker": str(SMOKER_SHARE),
            "cancer_smoker": str(CANCER_SHARE_SMOKER),
            "cancer_nonsmoker": str(CANCER_SHARE_NONSMOKER),
        },
        "friend_prob_same_habit": FRIEND_PROB_SAME_HABIT,
        "friend_prob_diff_habit": FRIEND_PROB_DIFF_HABIT,
        "n_smokers": sum(1 for a in db.atoms if a[0] == "Smokes"),
        "n_cancer": sum(1 for a in db.atoms if a[0] == "Cancer"),
        "n_friendships": sum(1 for a in db.atoms if a[0] == "Friends"),
    }


def subsample(db: Database, sample: SampleSpec) -> Database:
    """Keep a uniform subset of one type's constants and every atom whose
    constants of that type all fall inside it; other types survive whole.

    Kept constants are re-registered densely in their original order.
    """
    if sample.sample_type not in db.constants:
        raise ValueError(f"unknown type: {sample.sample_type}")
    population = db.constants[sample.sample_type]
    if sample.size > len(population):
        raise ValueError(
            f"sample size {sample.size} exceeds population {len(population)}"
        )
    rng = np.random.default_rng(sample.seed)
    picks = sorted(int(i) for i in rng.choice(len(population), size=sample.size, replace=False))
    kept = {population[i] for i in picks}

    out = Database(db.signature)
    for t, constants in db.constants.items():
        for name in constants:
            if t != sample.sample_type or name in kept:
                out.add_constant(t, name)
    for pred, args in db.atoms:
        arg_types = db.signature.predicate(pred).arg_types
        if all(t != sample.sample_type or a in kept for a, t in zip(args, arg_types)):
            out.add_atom(pred, args, register=False)
    return out


_DB_ATOM_RE = re.compile(r"([A-Za-z_]\w*)\s*\(\s*([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*\)$")


def parse_db(text: str, signature: Signature) -> Database:
    """Parse one ground atom per line; ``//`` comments; constants are bare identifiers."""
    db = Database(signature)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("//", 1)[0].strip()
        if not stripped:
            continue
        m = _DB_ATOM_RE.fullmatch(stripped)
        if m is None:
            raise DbParseError(f"cannot parse ground atom: {stripped!r}", lineno)
        pred = m.group(1)
        args = tuple(a.strip() for a in m.group(2).split(","))
        if not signature.has_predicate(pred):
            raise DbParseError(f"unknown predicate: {pred}", lineno)
        if len(args) != signature.predicate(pred).arity:
            raise DbParseError(
                f"predicate {pred} expects {signature.predicate(pred).arity} arguments, "
                f"got {len(args)}",
                lineno,
            )
        db.add_atom(pred, args)
    return db


def serialize_db(db: Database) -> str:
    """Canonical form: one atom per line, lexicographically sorted."""
    lines = sorted(f"{pred}({','.join(args)})" for pred, args in db.atoms)
    return "\n".join(lines) + ("\n" if lines else "")


def domain_spec_for(db: Database) -> DomainSpec:
    """Domain spec sized to the database's registered constants."""
    return DomainSpec({t: len(cs) for t, cs in db.constants.items()})


def db_to_world(db: Database, spec: DomainSpec) -> World:
    """Closed-world truth vector over the database's signature at ``spec``."""
    index = AtomIndex(db.signature, spec)
    ids = {t: db.constant_ids(t) for t, _ in db.signature.types}
    for t, _ in db.signature.types:
        if len(db.constants[t]) > spec.size(t):
            raise ValueError(
                f"database has {len(db.constants[t])} constants of type {t}, "
                f"domain spec allows {spec.size(t)}"
            )
    bits = 0
    for pred, args in db.atoms:
        arg_types = db.signature.predicate(pred).arg_types
        ground = tuple(ids[t][a] for a, t in zip(args, arg_types))
        bits |= 1 << index.index_of(pred, ground)
    return World(index, bits)
