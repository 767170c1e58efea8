"""First-order clause language for exact Markov logic models.

Defines signatures (typed predicates over finite domains), a quantifier-free
formula AST with variable-disequality constraints, the line-oriented MLN text
format, and the distinct-constants normal form in which every k-ary clause
grounds only to k pairwise-distinct constants of each type.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations, product
from typing import Iterator, Mapping, Sequence, Union


class MlnParseError(ValueError):
    """Malformed MLN or formula text, with 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Predicate:
    name: str
    arg_types: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.arg_types)


@dataclass(frozen=True)
class Signature:
    """Finite relational language: named types with declared sizes, typed predicates."""

    types: tuple[tuple[str, int], ...]
    predicates: tuple[Predicate, ...]

    def __post_init__(self):
        seen_types = set()
        for name, size in self.types:
            if name in seen_types:
                raise ValueError(f"duplicate type declaration: {name}")
            if size < 1:
                raise ValueError(f"type {name} has declared size {size}, must be >= 1")
            seen_types.add(name)
        seen_preds = set()
        for pred in self.predicates:
            if pred.name in seen_preds:
                raise ValueError(f"duplicate predicate: {pred.name}")
            if pred.arity < 1:
                raise ValueError(f"predicate {pred.name} must have arity >= 1")
            for t in pred.arg_types:
                if t not in seen_types:
                    raise ValueError(f"predicate {pred.name} uses undeclared type {t}")
            seen_preds.add(pred.name)

    @classmethod
    def make(cls, types: Mapping[str, int], predicates: Mapping[str, Sequence[str]]) -> "Signature":
        return cls(
            types=tuple(types.items()),
            predicates=tuple(Predicate(n, tuple(a)) for n, a in predicates.items()),
        )

    def size(self, type_name: str) -> int:
        for name, size in self.types:
            if name == type_name:
                return size
        raise KeyError(f"unknown type: {type_name}")

    def predicate(self, name: str) -> Predicate:
        for pred in self.predicates:
            if pred.name == name:
                return pred
        raise KeyError(f"unknown predicate: {name}")

    def has_predicate(self, name: str) -> bool:
        return any(p.name == name for p in self.predicates)


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Not:
    sub: "Node"


@dataclass(frozen=True)
class And:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Or:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Implies:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Iff:
    lhs: "Node"
    rhs: "Node"


Node = Union[Atom, Not, And, Or, Implies, Iff]

_BINARY = (And, Or, Implies, Iff)


def eval_node(node: Node, values: Mapping[Atom, bool]) -> bool:
    """Evaluate a formula AST given truth values for its atoms."""
    if isinstance(node, Atom):
        return values[node]
    if isinstance(node, Not):
        return not eval_node(node.sub, values)
    if isinstance(node, And):
        return eval_node(node.lhs, values) and eval_node(node.rhs, values)
    if isinstance(node, Or):
        return eval_node(node.lhs, values) or eval_node(node.rhs, values)
    if isinstance(node, Implies):
        return (not eval_node(node.lhs, values)) or eval_node(node.rhs, values)
    if isinstance(node, Iff):
        return eval_node(node.lhs, values) == eval_node(node.rhs, values)
    raise TypeError(f"not a formula node: {node!r}")


def atoms_in(node: Node) -> list[Atom]:
    """All atom occurrences in source (in-order) traversal order."""
    out: list[Atom] = []
    _collect_atoms(node, out)
    return out


def _collect_atoms(node: Node, out: list[Atom]) -> None:
    if isinstance(node, Atom):
        out.append(node)
    elif isinstance(node, Not):
        _collect_atoms(node.sub, out)
    elif isinstance(node, _BINARY):
        _collect_atoms(node.lhs, out)
        _collect_atoms(node.rhs, out)
    else:
        raise TypeError(f"not a formula node: {node!r}")


def distinct_atoms(node: Node) -> list[Atom]:
    seen: dict[Atom, None] = {}
    for a in atoms_in(node):
        seen.setdefault(a)
    return list(seen)


def substitute(node: Node, mapping: Mapping[str, str]) -> Node:
    """Rename variables throughout a formula AST."""
    if isinstance(node, Atom):
        return Atom(node.pred, tuple(mapping.get(v, v) for v in node.args))
    if isinstance(node, Not):
        return Not(substitute(node.sub, mapping))
    if isinstance(node, _BINARY):
        return type(node)(substitute(node.lhs, mapping), substitute(node.rhs, mapping))
    raise TypeError(f"not a formula node: {node!r}")


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Formula:
    """Boolean combination of atoms plus top-level variable-disequality constraints.

    ``vars`` lists the free variables with their inferred types, in first-use
    order; ``distinct`` holds unordered variable pairs constrained unequal.
    """

    ast: Node
    distinct: frozenset[tuple[str, str]]
    vars: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = {v for v, _ in self.vars}
        if len(names) != len(self.vars):
            raise ValueError("duplicate variable in formula var list")
        for atom in atoms_in(self.ast):
            for v in atom.args:
                if v not in names:
                    raise ValueError(f"atom variable {v} missing from var list")
        for a, b in self.distinct:
            if a not in names or b not in names:
                raise ValueError(f"disequality over unknown variable: {a} != {b}")
            if a == b:
                raise ValueError("disequality of a variable with itself")
            if (a, b) != _pair(a, b):
                raise ValueError("disequality pairs must be stored in sorted order")

    @cached_property
    def _hash(self) -> int:
        # Formulas key every per-structure cache, so the tree is hashed once.
        return hash((self.ast, self.distinct, self.vars))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between interpreters: rebuild, never copy, the cached one.
        return Formula, (self.ast, self.distinct, self.vars)

    @property
    def arity(self) -> int:
        return len(self.vars)

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.vars)

    def var_type(self, name: str) -> str:
        for v, t in self.vars:
            if v == name:
                return t
        raise KeyError(name)


@dataclass(frozen=True)
class Clause:
    formula: Formula
    weight: float
    origin: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.weight):
            raise ValueError(f"clause weight must be finite, got {self.weight}")


@dataclass(frozen=True)
class MlnModel:
    """Weighted clause set over a signature; ``normalized`` marks distinct-constants form."""

    signature: Signature
    clauses: tuple[Clause, ...]
    normalized: bool = False

    def weights(self) -> tuple[float, ...]:
        return tuple(c.weight for c in self.clauses)

    def formulas(self) -> tuple[Formula, ...]:
        return tuple(c.formula for c in self.clauses)

    def with_weights(self, weights: Sequence[float]) -> "MlnModel":
        if len(weights) != len(self.clauses):
            raise ValueError("weight vector length does not match clause count")
        clauses = tuple(replace(c, weight=float(w)) for c, w in zip(self.clauses, weights))
        return replace(self, clauses=clauses)

    @property
    def max_arity(self) -> int:
        return max((c.formula.arity for c in self.clauses), default=0)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[ \t]*(<=>|=>|!=|[()^!,]|[A-Za-z_]\w*)")

_DECL_TYPE_RE = re.compile(r"(?:type|domain)\s+([A-Za-z_]\w*)\s*=\s*(\d+)\s*$")
_DECL_PRED_RE = re.compile(
    r"predicate\s+([A-Za-z_]\w*)\s*\(\s*([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*\)\s*$"
)
_CLAUSE_RE = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s+(\S.*)$")


@dataclass(frozen=True)
class _NeqLeaf:
    lhs: str
    rhs: str


class _FormulaParser:
    def __init__(self, text: str, line: int | None):
        self.text = text
        self.line = line
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                col = len(text) - len(rest) + 1
                raise MlnParseError(f"unexpected character {rest[0]!r}", line, col)
            self.tokens.append((m.group(1), m.start(1) + 1))
            pos = m.end()
        self.i = 0

    def _peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, int]:
        if self.i >= len(self.tokens):
            raise MlnParseError("unexpected end of formula", self.line)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, what: str) -> None:
        tok, col = self._next()
        if tok != what:
            raise MlnParseError(f"expected {what!r}, found {tok!r}", self.line, col)

    def parse(self):
        node = self._iff()
        if self.i < len(self.tokens):
            tok, col = self.tokens[self.i]
            raise MlnParseError(f"unexpected token {tok!r} after formula", self.line, col)
        return node

    def _iff(self):
        node = self._implies()
        while self._peek() == "<=>":
            self._next()
            node = Iff(node, self._implies())
        return node

    def _implies(self):
        node = self._or()
        if self._peek() == "=>":
            self._next()
            return Implies(node, self._implies())
        return node

    def _or(self):
        node = self._and()
        while self._peek() == "v":
            self._next()
            node = Or(node, self._and())
        return node

    def _and(self):
        node = self._unary()
        while self._peek() == "^":
            self._next()
            node = And(node, self._unary())
        return node

    def _unary(self):
        tok, col = self._next()
        if tok == "!":
            return Not(self._unary())
        if tok == "(":
            node = self._iff()
            self._expect(")")
            return node
        if re.fullmatch(r"[A-Za-z_]\w*", tok) and tok != "v":
            if self._peek() == "(":
                return self._atom(tok, col)
            if self._peek() == "!=":
                self._next()
                rhs, rcol = self._next()
                if not re.fullmatch(r"[a-z]\w*", rhs):
                    raise MlnParseError(f"expected variable after '!=', found {rhs!r}", self.line, rcol)
                if not re.fullmatch(r"[a-z]\w*", tok):
                    raise MlnParseError(f"disequality over non-variable {tok!r}", self.line, col)
                return _NeqLeaf(tok, rhs)
            raise MlnParseError(f"expected '(' or '!=' after {tok!r}", self.line, col)
        raise MlnParseError(f"unexpected token {tok!r}", self.line, col)

    def _atom(self, pred: str, col: int) -> Atom:
        self._expect("(")
        args = []
        while True:
            tok, tcol = self._next()
            if not re.fullmatch(r"[a-z]\w*", tok) or tok == "v":
                raise MlnParseError(
                    f"atom arguments must be lowercase variables (and not the "
                    f"disjunction keyword 'v'), found {tok!r}",
                    self.line,
                    tcol,
                )
            args.append(tok)
            tok, tcol = self._next()
            if tok == ")":
                break
            if tok != ",":
                raise MlnParseError(f"expected ',' or ')' in atom, found {tok!r}", self.line, tcol)
        return Atom(pred, tuple(args))


def _strip_neq(node, pairs: list[tuple[str, str]]):
    """Split top-level conjuncts into the atom-level AST and disequality pairs."""
    if isinstance(node, _NeqLeaf):
        pairs.append(_pair(node.lhs, node.rhs))
        return None
    if isinstance(node, And):
        lhs = _strip_neq(node.lhs, pairs)
        rhs = _strip_neq(node.rhs, pairs)
        if lhs is None:
            return rhs
        if rhs is None:
            return lhs
        return And(lhs, rhs)
    return node


def _check_no_neq(node, line):
    if isinstance(node, _NeqLeaf):
        raise MlnParseError("disequality constraints must be top-level conjuncts", line)
    if isinstance(node, Not):
        _check_no_neq(node.sub, line)
    elif isinstance(node, _BINARY):
        _check_no_neq(node.lhs, line)
        _check_no_neq(node.rhs, line)


def parse_formula(text: str, signature: Signature, line: int | None = None) -> Formula:
    """Parse one clause formula against a signature, inferring variable types."""
    parser = _FormulaParser(text, line)
    raw = parser.parse()
    pairs: list[tuple[str, str]] = []
    core = _strip_neq(raw, pairs)
    if core is None:
        raise MlnParseError("formula must contain at least one atom", line)
    _check_no_neq(core, line)

    var_types: dict[str, str] = {}
    order: list[str] = []
    for atom in atoms_in(core):
        if not signature.has_predicate(atom.pred):
            raise MlnParseError(f"unknown predicate: {atom.pred}", line)
        pred = signature.predicate(atom.pred)
        if len(atom.args) != pred.arity:
            raise MlnParseError(
                f"predicate {atom.pred} expects {pred.arity} arguments, got {len(atom.args)}", line
            )
        for v, t in zip(atom.args, pred.arg_types):
            if v not in var_types:
                var_types[v] = t
                order.append(v)
            elif var_types[v] != t:
                raise MlnParseError(
                    f"variable {v} used with conflicting types {var_types[v]} and {t}", line
                )
    for a, b in pairs:
        for v in (a, b):
            if v not in var_types:
                raise MlnParseError(
                    f"variable {v} appears only in a disequality constraint", line
                )
    return Formula(core, frozenset(pairs), tuple((v, var_types[v]) for v in order))


def parse_mln(text: str) -> MlnModel:
    """Parse the MLN text format: type/domain declarations, predicates, weighted clauses."""
    types: list[tuple[str, int]] = []
    preds: list[Predicate] = []
    clause_lines: list[tuple[int, float, str]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.split("//", 1)[0].strip()
        if not stripped:
            continue
        m = _DECL_TYPE_RE.fullmatch(stripped)
        if m:
            types.append((m.group(1), int(m.group(2))))
            continue
        m = _DECL_PRED_RE.fullmatch(stripped)
        if m:
            arg_types = tuple(t.strip() for t in m.group(2).split(","))
            preds.append(Predicate(m.group(1), arg_types))
            continue
        if stripped.startswith(("type", "domain", "predicate")):
            raise MlnParseError(f"malformed declaration: {stripped!r}", lineno)
        m = _CLAUSE_RE.fullmatch(stripped)
        if m:
            clause_lines.append((lineno, float(m.group(1)), m.group(2)))
            continue
        raise MlnParseError(f"cannot parse line: {stripped!r}", lineno)

    try:
        signature = Signature(tuple(types), tuple(preds))
    except ValueError as exc:
        raise MlnParseError(str(exc)) from exc
    clauses = tuple(
        Clause(parse_formula(ftext, signature, lineno), weight)
        for lineno, weight, ftext in clause_lines
    )
    return MlnModel(signature, clauses, normalized=False)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _node_text(node: Node) -> str:
    if isinstance(node, Atom):
        return f"{node.pred}({','.join(node.args)})"
    if isinstance(node, Not):
        inner = _node_text(node.sub)
        return "!" + (inner if isinstance(node.sub, Atom) else f"({inner})")
    ops = {And: "^", Or: "v", Implies: "=>", Iff: "<=>"}
    for cls, op in ops.items():
        if isinstance(node, cls):
            return f"({_node_text(node.lhs)} {op} {_node_text(node.rhs)})"
    raise TypeError(f"not a formula node: {node!r}")


def formula_to_text(formula: Formula) -> str:
    parts = [_node_text(formula.ast)]
    parts.extend(f"{a} != {b}" for a, b in sorted(formula.distinct))
    return " ^ ".join(parts)


def serialize_mln(model: MlnModel) -> str:
    lines = [f"type {name} = {size}" for name, size in model.signature.types]
    lines.extend(
        f"predicate {p.name}({','.join(p.arg_types)})" for p in model.signature.predicates
    )
    lines.extend(f"{c.weight:.17g} {formula_to_text(c.formula)}" for c in model.clauses)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Distinct-constants normalization
# ---------------------------------------------------------------------------


def _set_partitions(items: Sequence) -> Iterator[list[list]]:
    """All set partitions, in lexicographic restricted-growth-string order."""
    n = len(items)
    if n == 0:
        yield []
        return
    rgs = [0] * n
    while True:
        blocks: list[list] = [[] for _ in range(max(rgs) + 1)]
        for item, b in zip(items, rgs):
            blocks[b].append(item)
        yield blocks
        i = n - 1
        while i > 0 and rgs[i] > max(rgs[:i]):
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        for j in range(i + 1, n):
            rgs[j] = 0


def normalize_distinct(model: MlnModel) -> MlnModel:
    """Rewrite each clause into one clause per identification pattern of its variables.

    Every output clause constrains all surviving same-type variable pairs to be
    distinct and keeps the input clause's weight, so the induced distribution
    is unchanged at every domain size. Idempotent: identification patterns that
    collapse an existing disequality are dropped.
    """
    if model.normalized:
        return model
    out: list[Clause] = []
    for i, clause in enumerate(model.clauses):
        f = clause.formula
        groups: dict[str, list[str]] = {}
        for v, t in f.vars:
            groups.setdefault(t, []).append(v)
        for combo in product(*(_set_partitions(g) for g in groups.values())):
            rep: dict[str, str] = {}
            for part in combo:
                for block in part:
                    for v in block:
                        rep[v] = block[0]
            if any(rep[a] == rep[b] for a, b in f.distinct):
                continue
            new_vars = tuple((v, t) for v, t in f.vars if rep[v] == v)
            pairs = {_pair(rep[a], rep[b]) for a, b in f.distinct}
            for (v1, t1), (v2, t2) in combinations(new_vars, 2):
                if t1 == t2:
                    pairs.add(_pair(v1, v2))
            formula = Formula(substitute(f.ast, rep), frozenset(pairs), new_vars)
            origin = clause.origin if clause.origin is not None else i
            out.append(Clause(formula, clause.weight, origin=origin))
    return replace(model, clauses=tuple(out), normalized=True)


def arity_partition(model: MlnModel) -> dict[int, list[Clause]]:
    """Group a normalized model's clauses by arity; keys ascending."""
    if not model.normalized:
        raise ValueError("arity_partition requires a normalized model")
    parts: dict[int, list[Clause]] = {}
    for clause in model.clauses:
        parts.setdefault(clause.formula.arity, []).append(clause)
    return dict(sorted(parts.items()))


def is_sigma_determinate(model: MlnModel) -> bool:
    """True iff in every clause all atoms mention exactly the same variable set."""
    for clause in model.clauses:
        sets = {frozenset(a.args) for a in atoms_in(clause.formula.ast)}
        if len(sets) > 1:
            return False
    return True
