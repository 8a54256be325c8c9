"""Versioned text formats for algebras and labeled structures.

Both formats share one line grammar.  The first line names the format
and its version; every later nonblank line is a key, read once or any
number of times, and its fields.  Every line, the first too, splits on
any run of whitespace.  A repeated once-key, a missing line or an
unexpected key is a ParseError that names its line.

Algebra files (extension convention: .ra)::

    ra v1
    atoms <k> <name...>
    identity <name>
    symmetric true
    comp <a> <b> = <name>+...|0       one line per unordered atom pair

Atom names match [A-Za-z0-9']+.  Only symmetric algebras are accepted:
the format carries no converse permutation, and every algebra this
package builds is symmetric.

Structure files (extension convention: .rel)::

    structure v1
    kind atom-labeling|power|xi
    algebra <path>
    # then, per kind (_KINDS):
    base <d>
    edge <u> <v> <atom>               u < v; converse closure implicit
    power m=<m> inner=<path>
    xi inner=<path> n=<n> seed=<u64>
    xi inner=<path> n=<n>             followed by d*d "tedge <x> <y> <i>" lines

Paths are resolved relative to the referencing file; an inner file more
than 16 files deep is refused at the line that names it.  A xi line
carries either a seed or explicit tedge lines, never both.  Writers emit
sorted, canonical lines so identical objects produce byte-identical files.
"""

from __future__ import annotations

import os
import re
from typing import TYPE_CHECKING

from .algebra import FiniteRelationAlgebra, iter_bits
from .errors import ParseError
from .lpn import _lpn_names, _lpn_table

# structures and xi are imported where a structure or an xi file needs
# them, so that algebra-only commands never run them
if TYPE_CHECKING:
    from .structures import LabeledStructure

_NAME_RE = re.compile(r"^[A-Za-z0-9']+$")
_DIGITS = re.compile(r"[0-9]+")
# the lines each structure kind takes after its kind line: its once-only
# keys, then its keys that may repeat
_KINDS = {
    "atom-labeling": (("algebra", "base"), ("edge",)),
    "power": (("algebra", "power"), ()),
    "xi": (("algebra", "xi"), ("tedge",)),
}


def _read(text: str, magic: str) -> tuple[dict[str, list[tuple[int, str]]], int]:
    """Check the first line, and group every later nonblank line, as
    (line number, text), by its key.  Also returns the number of lines."""
    lines = text.splitlines()
    if not lines or lines[0].split() != magic.split():
        raise ParseError(f"expected '{magic}' header", 1)
    groups: dict[str, list[tuple[int, str]]] = {}
    for no, line in enumerate(lines[1:], start=2):
        key = line.split(None, 1)
        if key:
            groups.setdefault(key[0], []).append((no, line))
    return groups, len(lines)


def _once(groups: dict, key: str) -> tuple[int, str] | None:
    """Pop the one line of `key`, or None; a second one is refused."""
    found = groups.pop(key, [None])
    if len(found) > 1:
        raise ParseError(f"duplicate {key} line", found[1][0])
    return found[0]


def _take(groups: dict, once: tuple, many: tuple, last: int) -> list:
    """Pop the line of each once-key, then the lines of each any-number
    key.  A key left over is refused at its first line, and a missing
    once-key at the file's last line."""
    taken = [_once(groups, key) for key in once] + [groups.pop(key, []) for key in many]
    if groups:
        key, found = next(iter(groups.items()))  # the earliest: dicts keep insertion order
        raise ParseError(f"unexpected directive {key!r}", found[0][0])
    for key, line in zip(once, taken):
        if line is None:
            raise ParseError(f"missing {key} line", last)
    return taken


def _value(line: str) -> str:
    """The text after a line's key (a path may hold spaces)."""
    return (line.split(None, 1) + [""])[1].strip()


def _named(no: int, line: str, names: tuple[str, ...], need: int) -> list[str]:
    """The values of a line's name=value fields, whose names must be the
    first `need` or more of `names`, in order."""
    key, *fields = line.split()
    pairs = [field.partition("=") for field in fields]
    if not need <= len(pairs) <= len(names) or any(
        (name, eq) != (want, "=") or not value for (name, eq, value), want in zip(pairs, names)
    ):
        raise ParseError(f"malformed {key} line", no)
    return [value for _, _, value in pairs]


def _number(text: str, no: int, what: str) -> int:
    """A number written in ASCII digits; int() alone would also take a
    sign, underscores and every Unicode decimal digit."""
    if not _DIGITS.fullmatch(text):
        raise ParseError(f"{what} is not a number: {text!r}", no)
    return int(text)


def _ints(fields: list[str], no: int) -> list[int]:
    return [_number(f, no, "field") for f in fields]


def _detect_lpn(names: list[str], comp) -> tuple[int, int] | None:
    """Recover (p,n) when names and table match the built family exactly."""
    n = sum(name[0] == "t" for name in names)
    p = len(names) - n - 2
    if p >= 3 and names == _lpn_names(p, n) and comp == _lpn_table(p, n):
        return (p, n)
    return None


def format_algebra(algebra: FiniteRelationAlgebra) -> str:
    if not algebra.is_symmetric:
        raise ValueError("the v1 algebra format only carries symmetric algebras")
    if len(algebra.identity_atoms) != 1:
        raise ValueError("the v1 algebra format needs a single identity atom")
    names = algebra.atom_names
    for name in names:
        if not _NAME_RE.match(name):
            raise ValueError(f"atom name {name!r} not writable in the v1 format")
    lines = [
        "ra v1",
        f"atoms {algebra.atom_count} {' '.join(names)}",
        f"identity {names[next(iter(algebra.identity_atoms))]}",
        "symmetric true",
    ]
    for a in range(algebra.atom_count):
        for b in range(a, algebra.atom_count):
            lines.append(f"comp {names[a]} {names[b]} = {algebra.format_mask(algebra.comp[a][b])}")
    return "\n".join(lines) + "\n"


def save_algebra(algebra: FiniteRelationAlgebra, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_algebra(algebra))


def parse_algebra(text: str, *, name: str | None = None) -> FiniteRelationAlgebra:
    groups, last = _read(text, "ra v1")
    atoms, identity, symmetric, comp_lines = _take(
        groups, ("atoms", "identity", "symmetric"), ("comp",), last
    )
    no, line = atoms
    parts = line.split()
    if len(parts) < 3:
        raise ParseError("atoms line needs a count and names", no)
    k = _number(parts[1], no, "atom count")
    names = parts[2:]
    if len(names) != k:
        raise ParseError(f"declared {k} atoms but listed {len(names)}", no)
    for nm in names:
        if not _NAME_RE.match(nm):
            raise ParseError(f"bad atom name {nm!r}", no)
    if len(set(names)) != k:
        raise ParseError("duplicate atom names", no)
    index = {nm: i for i, nm in enumerate(names)}

    no, line = identity
    parts = line.split()
    if len(parts) != 2 or parts[1] not in index:
        raise ParseError("identity line must name one declared atom", no)
    ident = index[parts[1]]

    no, line = symmetric
    parts = line.split()
    if len(parts) != 2 or parts[1] not in ("true", "false"):
        raise ParseError("symmetric line must be 'true' or 'false'", no)
    if parts[1] == "false":
        raise ParseError(
            "the v1 format cannot carry non-symmetric algebras (no converse data)", no
        )

    comp = [[None] * k for _ in range(k)]
    for no, line in comp_lines:
        pair, eq, value = line.partition("=")
        pair, value = pair.split(), value.split()
        if not eq or len(pair) != 3 or len(value) != 1:
            raise ParseError("malformed comp line", no)
        _, a_name, b_name = pair
        if a_name not in index or b_name not in index:
            raise ParseError("unknown atom in comp line", no)
        a, b = index[a_name], index[b_name]
        mask = 0
        if value[0] != "0":
            for part in value[0].split("+"):
                if part not in index:
                    raise ParseError(f"unknown atom {part!r} in comp value", no)
                mask |= 1 << index[part]
        # the table stays mirrored, so one entry speaks for both
        if comp[a][b] not in (None, mask):
            raise ParseError(f"conflicting comp entries for {a_name} {b_name}", no)
        comp[a][b] = comp[b][a] = mask
    for a in range(k):
        for b in range(k):
            if comp[a][b] is None:
                raise ParseError(f"missing comp line for pair {names[a]} {names[b]}", last)

    return FiniteRelationAlgebra(
        names,
        identity_atoms=[ident],
        converse=range(k),
        comp=comp,
        lpn_params=_detect_lpn(names, comp),
        name=name,
    )


def load_algebra(path: str) -> FiniteRelationAlgebra:
    with open(path) as fh:
        return parse_algebra(fh.read(), name=os.path.basename(path))


# -- structures ---------------------------------------------------------------


def format_structure(
    structure: LabeledStructure,
    *,
    algebra_path: str,
    inner_path: str | None = None,
    explicit: bool = False,
) -> str:
    from .structures import AtomLabeling, Power, Xi, bits_to_rows

    lines = ["structure v1", f"kind {structure.kind}", f"algebra {algebra_path}"]
    if isinstance(structure, AtomLabeling):
        lines.append(f"base {structure.base_size}")
        names = structure.algebra.atom_names
        for (u, v), a in sorted(structure.labels.items()):
            if u < v:
                lines.append(f"edge {u} {v} {names[a]}")
    elif isinstance(structure, Power):
        if inner_path is None:
            raise ValueError("power structures need an inner path")
        lines.append(f"power m={structure.m} inner={inner_path}")
    elif isinstance(structure, Xi):
        if inner_path is None:
            raise ValueError("xi structures need an inner path")
        from .xi import PartitionRecipe

        part = structure.partition
        if isinstance(part, PartitionRecipe) and not explicit:
            lines.append(f"xi inner={inner_path} n={structure.n} seed={part.seed}")
        else:
            lines.append(f"xi inner={inner_path} n={structure.n}")
            d = structure.inner.base_size
            class_rows = [bits_to_rows(part.class_bits(i), d) for i in range(1, structure.n + 1)]
            for x in range(d):
                row = [0] * d  # row[y]: the class of (x, y)
                for i, rows in enumerate(class_rows, 1):
                    for y in iter_bits(rows[x]):
                        row[y] = i
                lines += (f"tedge {x} {y} {i}" for y, i in enumerate(row))
    else:
        raise TypeError(f"not a labeled structure: {structure!r}")
    return "\n".join(lines) + "\n"


def save_structure(
    structure: LabeledStructure,
    path: str,
    *,
    algebra_path: str,
    inner_path: str | None = None,
    explicit: bool = False,
) -> None:
    text = format_structure(
        structure, algebra_path=algebra_path, inner_path=inner_path, explicit=explicit
    )
    with open(path, "w") as fh:
        fh.write(text)


def load_structure(path: str, *, _depth: int = 0) -> LabeledStructure:
    from .structures import AtomLabeling, Xi, build_power

    base_dir = os.path.dirname(os.path.abspath(path))
    with open(path) as fh:
        groups, last = _read(fh.read(), "structure v1")
    kind_line = _once(groups, "kind")
    kind = kind_line and _value(kind_line[1])
    if kind not in _KINDS:
        raise ParseError(f"missing or unknown kind {kind!r}", kind_line[0] if kind_line else last)
    (no, line), *taken = _take(groups, *_KINDS[kind], last)
    algebra_path = _value(line)
    if not algebra_path:
        raise ParseError("algebra line needs a path", no)
    algebra = load_algebra(os.path.join(base_dir, algebra_path))

    def load_inner(inner_path: str, no: int) -> LabeledStructure:
        if _depth >= 16:
            raise ParseError(f"structure files nest too deeply in {path}", no)
        return load_structure(os.path.join(base_dir, inner_path), _depth=_depth + 1)

    if kind == "atom-labeling":
        (no, line), edges = taken
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("base line needs 'base d'", no)
        (base,) = _ints(parts[1:], no)
        if base < 1:
            raise ParseError("base must be nonempty", no)
        labels: dict[tuple[int, int], int] = {}
        for no, line in edges:
            parts = line.split()
            if len(parts) != 4:
                raise ParseError("edge line needs 'edge u v atom'", no)
            u, v = _ints(parts[1:3], no)
            if u >= v:
                raise ParseError("edge lines require u < v", no)
            if v >= base:
                raise ParseError(f"edge ({u},{v}) outside base 0..{base - 1}", no)
            if (u, v) in labels:
                raise ParseError(f"duplicate edge {u} {v}", no)
            try:
                atom = algebra.atom_by_name(parts[3])
            except ValueError as exc:
                raise ParseError(str(exc), no) from None
            if atom.bits & algebra.identity_mask:
                raise ParseError("off-diagonal identity label", no)
            labels[(u, v)] = atom.bits.bit_length() - 1
        return AtomLabeling(algebra, base, labels)

    if kind == "power":
        ((no, line),) = taken
        exponent, inner_path = _named(no, line, ("m", "inner"), 2)
        exponent = _number(exponent, no, "power exponent")
        if exponent < 1:
            raise ParseError("power exponent must be at least 1", no)
        inner = load_inner(inner_path, no)
        if inner.algebra.comp != algebra.comp or inner.algebra.atom_names != algebra.atom_names:
            raise ParseError("power structure's algebra differs from its inner's", no)
        return build_power(inner, exponent)

    (no, line), tedge_lines = taken
    inner_path, n, *seed = _named(no, line, ("inner", "n", "seed"), 2)
    n = _number(n, no, "class count")
    seed = _number(seed[0], no, "seed") if seed else None
    inner = load_inner(inner_path, no)
    params = inner.algebra.lpn_params
    if params is None or params[1] != 0:
        raise ParseError("xi inner structure must be over an L(p,0) algebra", no)
    if algebra.lpn_params != (params[0], n):
        message = f"xi algebra must be the slope-and-bridge algebra with p={params[0]}, n={n}"
        raise ParseError(message, no)
    if (seed is None) == (not tedge_lines):
        raise ParseError("xi needs a seed or explicit tedges, not both", no)
    d = inner.base_size
    tedges: dict[tuple[int, int], int] = {}
    for tedge_no, tedge in tedge_lines:
        parts = tedge.split()
        if len(parts) != 4:
            raise ParseError("tedge line needs 'tedge x y class'", tedge_no)
        x, y, cls = _ints(parts[1:], tedge_no)
        if (x, y) in tedges:
            raise ParseError(f"duplicate tedge {x} {y}", tedge_no)
        if x >= d or y >= d:
            raise ParseError(f"tedge ({x},{y}) outside base 0..{d - 1}", tedge_no)
        if not 1 <= cls <= n:
            raise ParseError(f"class {cls} outside 1..{n}", tedge_no)
        tedges[(x, y)] = cls
    from .xi import ExplicitPartition, PartitionRecipe

    try:
        partition = ExplicitPartition(n, d, tedges) if seed is None else PartitionRecipe(seed, n, d)
    except ValueError as exc:
        raise ParseError(str(exc), no) from None
    # the lpn_params check above guarantees the loaded algebra's table
    # coincides with the built family, so it can carry the structure
    return Xi(inner, n, partition, algebra)
