"""Versioned text formats for algebras and labeled structures.

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
    # then, per kind:
    base <d>
    edge <u> <v> <atom>               u < v; converse closure implicit
    power m=<m> inner=<path>
    xi inner=<path> n=<n> seed=<u64>
    xi inner=<path> n=<n>             followed by d*d "tedge <x> <y> <i>" lines

Each header line appears once.  Paths are resolved relative to the
referencing file.  A xi line carries either a seed or explicit tedge
lines, never both.  Writers emit sorted,
canonical lines so identical objects produce byte-identical files.
"""

from __future__ import annotations

import os
import re
from typing import TYPE_CHECKING

from .algebra import FiniteRelationAlgebra, iter_bits
from .errors import ParseError
from .lpn import _lpn_table

# structures and xi are imported where a structure or an xi file needs
# them, so that algebra-only commands never run them
if TYPE_CHECKING:
    from .structures import LabeledStructure

_NAME_RE = re.compile(r"^[A-Za-z0-9']+$")
_DIGITS = re.compile(r"[0-9]+")


def _number(text: str, no: int, what: str) -> int:
    """A number written in ASCII digits; int() alone would also take a
    sign, underscores and every Unicode decimal digit."""
    if not _DIGITS.fullmatch(text):
        raise ParseError(f"{what} is not a number: {text!r}", no)
    return int(text)


def _detect_lpn(algebra_names: tuple[str, ...], comp) -> tuple[int, int] | None:
    """Recover (p,n) when names and table match the built family exactly."""
    names = list(algebra_names)
    if not names or names[0] != "1'":
        return None
    p = -1
    idx = 1
    while idx < len(names) and names[idx] == f"a{idx - 1}":
        idx += 1
        p += 1
    n = 0
    while idx < len(names) and names[idx] == f"t{n + 1}":
        idx += 1
        n += 1
    if idx != len(names) or p < 3:
        return None
    if _lpn_table(p, n) == comp:
        return (p, n)
    return None


def format_algebra(algebra: FiniteRelationAlgebra) -> str:
    if not algebra.is_symmetric:
        raise ValueError("the v1 algebra format only carries symmetric algebras")
    if len(algebra.identity_atoms) != 1:
        raise ValueError("the v1 algebra format needs a single identity atom")
    for name in algebra.atom_names:
        if not _NAME_RE.match(name):
            raise ValueError(f"atom name {name!r} not writable in the v1 format")
    lines = [
        "ra v1",
        f"atoms {algebra.atom_count} {' '.join(algebra.atom_names)}",
        f"identity {algebra.atom_names[next(iter(algebra.identity_atoms))]}",
        "symmetric true",
    ]
    for a in range(algebra.atom_count):
        for b in range(a, algebra.atom_count):
            lines.append(
                f"comp {algebra.atom_names[a]} {algebra.atom_names[b]} = "
                f"{algebra.format_mask(algebra.comp[a][b])}"
            )
    return "\n".join(lines) + "\n"


def save_algebra(algebra: FiniteRelationAlgebra, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_algebra(algebra))


def parse_algebra(text: str, *, name: str | None = None) -> FiniteRelationAlgebra:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    if not lines or lines[0].strip() != "ra v1":
        raise ParseError("expected 'ra v1' header", 1)
    fields: dict[str, tuple[int, str]] = {}
    comp_lines: list[tuple[int, str]] = []
    for no, ln in enumerate(lines[1:], start=2):
        ln = ln.strip()
        if not ln:
            continue
        key = ln.split(None, 1)[0]
        if key == "comp":
            comp_lines.append((no, ln))
        elif key in ("atoms", "identity", "symmetric"):
            if key in fields:
                raise ParseError(f"duplicate '{key}' line", no)
            fields[key] = (no, ln)
        else:
            raise ParseError(f"unknown directive {key!r}", no)
    for key in ("atoms", "identity", "symmetric"):
        if key not in fields:
            raise ParseError(f"missing '{key}' line", len(lines))

    no, ln = fields["atoms"]
    parts = ln.split()
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

    no, ln = fields["identity"]
    parts = ln.split()
    if len(parts) != 2 or parts[1] not in index:
        raise ParseError("identity line must name one declared atom", no)
    ident = index[parts[1]]

    no, ln = fields["symmetric"]
    parts = ln.split()
    if len(parts) != 2 or parts[1] not in ("true", "false"):
        raise ParseError("symmetric line must be 'true' or 'false'", no)
    if parts[1] == "false":
        raise ParseError(
            "the v1 format cannot carry non-symmetric algebras (no converse data)", no
        )

    comp = [[None] * k for _ in range(k)]
    for no, ln in comp_lines:
        m = re.match(r"^comp\s+(\S+)\s+(\S+)\s*=\s*(\S+)$", ln)
        if not m:
            raise ParseError("malformed comp line", no)
        a_name, b_name, expr = m.groups()
        if a_name not in index or b_name not in index:
            raise ParseError(f"unknown atom in comp line", no)
        a, b = index[a_name], index[b_name]
        mask = 0
        if expr != "0":
            for part in expr.split("+"):
                if part not in index:
                    raise ParseError(f"unknown atom {part!r} in comp value", no)
                mask |= 1 << index[part]
        if comp[a][b] is not None and comp[a][b] != mask:
            raise ParseError(f"conflicting comp entries for {a_name} {b_name}", no)
        comp[a][b] = mask
        if comp[b][a] is None:
            comp[b][a] = mask
        elif comp[b][a] != mask:
            raise ParseError(f"comp entry conflicts with its mirror", no)
    for a in range(k):
        for b in range(k):
            if comp[a][b] is None:
                raise ParseError(
                    f"missing comp line for pair {names[a]} {names[b]}",
                    len(lines),
                )

    lpn = _detect_lpn(tuple(names), comp)
    return FiniteRelationAlgebra(
        names,
        identity_atoms=[ident],
        converse=range(k),
        comp=comp,
        lpn_params=lpn,
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
            lines.append(
                f"xi inner={inner_path} n={structure.n} seed={part.seed}"
            )
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
    with open(path, "w") as fh:
        fh.write(
            format_structure(
                structure,
                algebra_path=algebra_path,
                inner_path=inner_path,
                explicit=explicit,
            )
        )


def _ints(fields: list[str], no: int) -> list[int]:
    return [_number(f, no, "field") for f in fields]


def load_structure(path: str, *, _depth: int = 0) -> LabeledStructure:
    from .structures import AtomLabeling, Power, Xi

    if _depth > 16:
        raise ParseError(f"structure files nest too deeply at {path}")
    base_dir = os.path.dirname(os.path.abspath(path))
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh.read().splitlines()]
    if not lines or lines[0].strip() != "structure v1":
        raise ParseError("expected 'structure v1' header", 1)

    header: dict[str, str] = {}
    directives: list[tuple[int, str]] = []
    for no, ln in enumerate(lines[1:], start=2):
        ln = ln.strip()
        if not ln:
            continue
        key, _, rest = ln.partition(" ")
        if key in ("kind", "algebra"):
            if key in header:
                raise ParseError(f"duplicate {key} line", no)
            header[key] = rest.strip()
        else:
            directives.append((no, ln))
    kind = header.get("kind")
    algebra_path = header.get("algebra")
    if kind not in ("atom-labeling", "power", "xi"):
        raise ParseError(f"missing or unknown kind {kind!r}", 2)
    if algebra_path is None:
        raise ParseError("missing algebra line", 2)
    algebra = load_algebra(os.path.join(base_dir, algebra_path))

    if kind == "atom-labeling":
        base = None
        labels: dict[tuple[int, int], int] = {}
        edge_lines: dict[tuple[int, int], int] = {}
        for no, ln in directives:
            parts = ln.split()
            if parts[0] == "base":
                if base is not None:
                    raise ParseError("duplicate base line", no)
                if len(parts) != 2:
                    raise ParseError("base line needs 'base d'", no)
                (base,) = _ints(parts[1:], no)
                if base < 1:
                    raise ParseError("base must be nonempty", no)
            elif parts[0] == "edge":
                if len(parts) != 4:
                    raise ParseError("edge line needs 'edge u v atom'", no)
                u, v = _ints(parts[1:3], no)
                if u >= v:
                    raise ParseError("edge lines require u < v", no)
                if (u, v) in labels:
                    raise ParseError(f"duplicate edge {u} {v}", no)
                try:
                    atom = algebra.atom_by_name(parts[3])
                except ValueError as exc:
                    raise ParseError(str(exc), no) from None
                if atom.bits & algebra.identity_mask:
                    raise ParseError("off-diagonal identity label", no)
                labels[(u, v)] = atom.bits.bit_length() - 1
                edge_lines[(u, v)] = no
            else:
                raise ParseError(f"unexpected directive {parts[0]!r}", no)
        if base is None:
            raise ParseError("missing base line", len(lines))
        for (u, v), no in edge_lines.items():
            if v >= base:  # u < v
                raise ParseError(f"edge ({u},{v}) outside base 0..{base - 1}", no)
        return AtomLabeling(algebra, base, labels)

    if kind == "power":
        spec = None
        for no, ln in directives:
            if ln.startswith("power "):
                if spec is not None:
                    raise ParseError("duplicate power line", no)
                spec = (no, ln)
            else:
                raise ParseError("unexpected directive in power structure", no)
        if spec is None:
            raise ParseError("missing power line", len(lines))
        no, ln = spec
        m = re.match(r"^power\s+m=(\S+)\s+inner=(\S+)$", ln)
        if not m:
            raise ParseError("malformed power line", no)
        exponent = _number(m.group(1), no, "power exponent")
        if exponent < 1:
            raise ParseError("power exponent must be at least 1", no)
        inner = load_structure(os.path.join(base_dir, m.group(2)), _depth=_depth + 1)
        if inner.algebra.comp != algebra.comp or inner.algebra.atom_names != algebra.atom_names:
            raise ParseError("power structure's algebra differs from its inner's", no)
        if exponent == 1:
            return inner
        return Power(inner, exponent)

    # xi
    spec = None
    tedges: dict[tuple[int, int], int] = {}
    for no, ln in directives:
        if ln.startswith("xi "):
            if spec is not None:
                raise ParseError("duplicate xi line", no)
            spec = (no, ln)
        elif ln.startswith("tedge "):
            parts = ln.split()
            if len(parts) != 4:
                raise ParseError("tedge line needs 'tedge x y class'", no)
            x, y, cls = _ints(parts[1:], no)
            if (x, y) in tedges:
                raise ParseError(f"duplicate tedge {x} {y}", no)
            tedges[(x, y)] = cls
        else:
            raise ParseError("unexpected directive in xi structure", no)
    if spec is None:
        raise ParseError("missing xi line", len(lines))
    no, ln = spec
    m = re.match(r"^xi\s+inner=(\S+)\s+n=(\S+)(?:\s+seed=(\S+))?$", ln)
    if not m:
        raise ParseError("malformed xi line", no)
    n = _number(m.group(2), no, "class count")
    seed = None if m.group(3) is None else _number(m.group(3), no, "seed")
    inner = load_structure(os.path.join(base_dir, m.group(1)), _depth=_depth + 1)
    params = inner.algebra.lpn_params
    if params is None or params[1] != 0:
        raise ParseError("xi inner structure must be over an L(p,0) algebra", no)
    if algebra.lpn_params != (params[0], n):
        raise ParseError(
            f"xi algebra must be the slope-and-bridge algebra with p={params[0]}, n={n}",
            no,
        )
    if seed is not None and tedges:
        raise ParseError("xi line carries a seed and explicit tedges", no)
    if seed is None and not tedges:
        raise ParseError("xi needs a seed or explicit tedges", no)
    from .xi import ExplicitPartition, PartitionRecipe

    try:
        if seed is not None:
            partition = PartitionRecipe(seed, n, inner.base_size)
        else:
            partition = ExplicitPartition(n, inner.base_size, tedges)
    except ValueError as exc:
        raise ParseError(str(exc), no) from None
    # the lpn_params check above guarantees the loaded algebra's table
    # coincides with the built family, so it can carry the structure
    return Xi(inner, n, partition, algebra)
