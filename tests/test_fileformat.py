import os
import random

import pytest

from relalg import build_lpn, build_power, build_xi, cli
from relalg.errors import ParseError
from relalg.fileformat import (
    format_algebra,
    format_structure,
    load_algebra,
    load_structure,
    parse_algebra,
    save_algebra,
    save_structure,
)
from relalg.lpn import build_fused
from relalg.structures import AtomLabeling, Power, Xi, build_affine, image
from relalg.xi import ExplicitPartition, PartitionRecipe


def test_algebra_round_trip(tmp_path, l32):
    path = tmp_path / "l32.ra"
    save_algebra(l32, str(path))
    back = load_algebra(str(path))
    assert back.atom_names == l32.atom_names
    assert back.identity_atoms == l32.identity_atoms
    assert back.comp == l32.comp
    assert back.lpn_params == (3, 2)  # recognized on load
    # byte-identical re-serialization
    assert format_algebra(back) == format_algebra(l32)


def test_fused_algebra_round_trip(tmp_path):
    fused = build_fused(4, 1, 0, 2).algebra
    path = tmp_path / "f.ra"
    save_algebra(fused, str(path))
    back = load_algebra(str(path))
    assert back.atom_names == fused.atom_names
    assert back.comp == fused.comp
    assert back.lpn_params is None


def test_algebra_parse_errors():
    with pytest.raises(ParseError):
        parse_algebra("nope\n")
    good = format_algebra(build_lpn(3, 0))
    with pytest.raises(ParseError):
        parse_algebra(good.replace("symmetric true", "symmetric false"))
    with pytest.raises(ParseError):
        parse_algebra(good.replace("identity 1'", "identity zz"))
    # drop one comp line: table no longer total
    lines = good.splitlines()
    dropped = "\n".join(ln for ln in lines if ln != "comp a0 a1 = a2+a3") + "\n"
    with pytest.raises(ParseError):
        parse_algebra(dropped)
    with pytest.raises(ParseError):
        parse_algebra(good + "comp a0 a1 = t9\n")
    with pytest.raises(ParseError):
        parse_algebra(good + "bogus line\n")


def test_structure_round_trip_atom_labeling(tmp_path, aff3):
    alg_path = tmp_path / "a.ra"
    save_algebra(aff3.algebra, str(alg_path))
    path = tmp_path / "s.rel"
    save_structure(aff3, str(path), algebra_path="a.ra")
    back = load_structure(str(path))
    assert isinstance(back, AtomLabeling)
    assert back.base_size == aff3.base_size
    assert back.labels == aff3.labels


def test_structure_round_trip_power(tmp_path, aff3):
    save_algebra(aff3.algebra, str(tmp_path / "a.ra"))
    save_structure(aff3, str(tmp_path / "inner.rel"), algebra_path="a.ra")
    p2 = build_power(aff3, 2)
    save_structure(
        p2, str(tmp_path / "p.rel"), algebra_path="a.ra", inner_path="inner.rel"
    )
    back = load_structure(str(tmp_path / "p.rel"))
    assert isinstance(back, Power)
    assert back.m == 2 and back.base_size == 81
    assert back.inner.labels == aff3.labels


def test_structure_round_trip_xi_seeded(tmp_path, aff3):
    x = build_xi(aff3, 2, 7)
    save_algebra(aff3.algebra, str(tmp_path / "a.ra"))
    save_structure(aff3, str(tmp_path / "inner.rel"), algebra_path="a.ra")
    save_algebra(x.algebra, str(tmp_path / "l32.ra"))
    save_structure(
        x,
        str(tmp_path / "x.rel"),
        algebra_path="l32.ra",
        inner_path="inner.rel",
    )
    back = load_structure(str(tmp_path / "x.rel"))
    assert isinstance(back, Xi)
    assert isinstance(back.partition, PartitionRecipe)
    assert back.partition.seed == 7 and back.n == 2
    for mask in (1, 2, 96):
        assert image(back, mask).bits == image(x, mask).bits


def test_structure_round_trip_xi_explicit(tmp_path, aff3):
    recipe = PartitionRecipe(9, 2, 9)
    x = build_xi(aff3, 2, recipe)
    save_algebra(aff3.algebra, str(tmp_path / "a.ra"))
    save_structure(aff3, str(tmp_path / "inner.rel"), algebra_path="a.ra")
    save_algebra(x.algebra, str(tmp_path / "l32.ra"))
    save_structure(
        x,
        str(tmp_path / "x.rel"),
        algebra_path="l32.ra",
        inner_path="inner.rel",
        explicit=True,
    )
    text = (tmp_path / "x.rel").read_text()
    assert "seed" not in text and "tedge" in text
    back = load_structure(str(tmp_path / "x.rel"))
    assert isinstance(back.partition, ExplicitPartition)
    for mask in (1, 2, 96):
        assert image(back, mask).bits == image(x, mask).bits


def test_structure_lines_split_on_any_whitespace(tmp_path, aff3):
    # kind, algebra, power, xi and tedge lines were split on one space
    # only, and the first line of either format was compared as written
    save_algebra(aff3.algebra, str(tmp_path / "a.ra"))
    save_structure(aff3, str(tmp_path / "inner.rel"), algebra_path="a.ra")
    x = build_xi(aff3, 2, 7)
    save_algebra(x.algebra, str(tmp_path / "l32.ra"))
    files = [
        (aff3, {"algebra_path": "a.ra"}),
        (build_power(aff3, 2), {"algebra_path": "a.ra", "inner_path": "inner.rel"}),
        (x, {"algebra_path": "l32.ra", "inner_path": "inner.rel"}),
        (x, {"algebra_path": "l32.ra", "inner_path": "inner.rel", "explicit": True}),
    ]
    for structure, where in files:
        text = format_structure(structure, **where)
        magic, rest = text.split("\n", 1)
        for variant in (
            magic + "\n" + rest.replace(" ", "\t"),
            text.replace(" ", "\t"),
            " " + text.replace(" ", " \t "),
        ):
            back = load_structure_text(tmp_path, variant)
            assert format_structure(back, **where) == text, variant.splitlines()[:2]
    good = format_algebra(x.algebra)
    for variant in (good.replace(" ", "\t"), "\t" + good.replace(" ", "  "), good.replace(" = ", "=")):
        assert format_algebra(parse_algebra(variant)) == good, variant.splitlines()[0]


def test_explicit_xi_at_d81_resaves_byte_identically(tmp_path):
    # the writer reads class_bits row by row; class_of is the oracle here
    theta = build_affine(9)
    recipe = PartitionRecipe(11, 2, theta.base_size)
    save_algebra(theta.algebra, str(tmp_path / "a.ra"))
    save_structure(theta, str(tmp_path / "inner.rel"), algebra_path="a.ra")
    save_algebra(build_lpn(9, 2), str(tmp_path / "l92.ra"))
    paths = {"algebra_path": "l92.ra", "inner_path": "inner.rel", "explicit": True}
    save_structure(build_xi(theta, 2, recipe), str(tmp_path / "x.rel"), **paths)
    text = (tmp_path / "x.rel").read_text()
    tedges = [line.split() for line in text.splitlines() if line.startswith("tedge ")]
    assert [tuple(map(int, t[1:3])) for t in tedges] == [
        (x, y) for x in range(81) for y in range(81)
    ]
    assert all(int(i) == recipe.class_of(int(x), int(y)) for _, x, y, i in tedges)
    back = load_structure(str(tmp_path / "x.rel"))
    assert isinstance(back.partition, ExplicitPartition)
    save_structure(back, str(tmp_path / "again.rel"), **paths)
    assert (tmp_path / "again.rel").read_text() == text


def test_structure_parse_errors(tmp_path, aff3):
    save_algebra(aff3.algebra, str(tmp_path / "a.ra"))
    save_structure(aff3, str(tmp_path / "s.rel"), algebra_path="a.ra")
    good = (tmp_path / "s.rel").read_text()

    def load_variant(text, name="v.rel"):
        (tmp_path / name).write_text(text)
        return load_structure(str(tmp_path / name))

    with pytest.raises(ParseError):
        load_variant(good.replace("structure v1", "structure v2"))
    with pytest.raises(ParseError):
        load_variant(good.replace("kind atom-labeling", "kind nonsense"))
    with pytest.raises(ParseError):
        load_variant(good + "edge 0 1 a0\n")  # duplicate edge
    with pytest.raises(ParseError):
        load_variant(good + "edge 5 2 a0\n")  # u >= v
    with pytest.raises(ParseError):
        load_variant(good + "edge 0 1 zz\n")  # duplicate+unknown atom
    with pytest.raises(FileNotFoundError):
        load_variant(good.replace("algebra a.ra", "algebra missing.ra"))


def test_malformed_fields_raise_parse_error_with_line(tmp_path, aff3):
    save_algebra(aff3.algebra, str(tmp_path / "a.ra"))
    save_structure(aff3, str(tmp_path / "inner.rel"), algebra_path="a.ra")
    x = build_xi(aff3, 2, 7)
    save_algebra(x.algebra, str(tmp_path / "l32.ra"))
    header = "structure v1\nkind atom-labeling\nalgebra a.ra\n"
    xi_header = "structure v1\nkind xi\nalgebra l32.ra\n"
    cases = [
        (header + "base\n", 4),
        (header + "base 9 9\n", 4),
        (header + "base x\n", 4),
        (header + "base 0\n", 4),
        (header + "base 2\nedge 0 1 1'\n", 5),
        (header + "base 2\nedge 0 5 a0\n", 5),
        (header + "edge 0 1 a0\nedge 0 5 a0\nbase 2\n", 5),
        (header + "base 9\nedge 0 x a1\n", 5),
        (xi_header + "xi inner=inner.rel n=2\ntedge 0 x 1\n", 5),
        (xi_header + "xi inner=inner.rel n=2 seed=99999999999999999999999\n", 4),
        (xi_header + "xi inner=inner.rel n=2\ntedge 0 0 7\n", 5),
        (xi_header + "xi inner=inner.rel n=2\ntedge 0 9 1\n", 5),
        (xi_header + "tedge 0 0 1\ntedge 0 1 3\nxi inner=inner.rel n=2\n", 5),
    ]
    for text, line in cases:
        (tmp_path / "v.rel").write_text(text)
        with pytest.raises(ParseError) as info:
            load_structure(str(tmp_path / "v.rel"))
        assert info.value.position == line, text


def test_repeated_header_line_is_a_parse_error(tmp_path, aff3):
    # the last kind or algebra line used to win, so a second algebra line
    # silently chose which file was loaded
    save_algebra(aff3.algebra, str(tmp_path / "a.ra"))
    save_structure(aff3, str(tmp_path / "s.rel"), algebra_path="a.ra")
    lines = (tmp_path / "s.rel").read_text().splitlines(keepends=True)
    assert lines[1:4] == ["kind atom-labeling\n", "algebra a.ra\n", "base 9\n"]
    assert len(lines) == 40
    cases = [
        (1, "algebra nonexistent.ra\n", "algebra", 4),
        (3, "algebra nonexistent.ra\n", "algebra", 4),
        (40, "algebra a.ra\n", "algebra", 41),
        (1, "kind atom-labeling\n", "kind", 3),
        (40, "kind power\n", "kind", 41),
    ]
    for at, extra, key, line in cases:
        text = "".join(lines[:at] + [extra] + lines[at:])
        with pytest.raises(ParseError, match=f"duplicate {key} line") as info:
            load_structure_text(tmp_path, text)
        assert info.value.position == line, (at, extra)


def test_numbers_are_ascii_digits_only(tmp_path, aff3):
    # int() alone takes an Arabic-Indic digit, a sign and underscores;
    # every number field of the file formats accepts ASCII digits only
    save_algebra(aff3.algebra, str(tmp_path / "a.ra"))
    save_structure(aff3, str(tmp_path / "inner.rel"), algebra_path="a.ra")
    save_algebra(build_xi(aff3, 2, 7).algebra, str(tmp_path / "l32.ra"))
    labeling = "structure v1\nkind atom-labeling\nalgebra a.ra\n"
    power = "structure v1\nkind power\nalgebra a.ra\npower m={} inner=inner.rel\n"
    xi = "structure v1\nkind xi\nalgebra l32.ra\nxi inner=inner.rel n={}{}\n"
    good = format_algebra(aff3.algebra)

    def variants(number):
        return [
            (labeling + f"base {number}\n", 4),
            (labeling + f"base 9\nedge 0 {number} a1\n", 5),
            (power.format(number), 4),
            (xi.format(number, " seed=0"), 4),
            (xi.format(2, f" seed={number}"), 4),
            (xi.format(2, "") + f"tedge 0 {number} 1\n", 5),
        ]

    # the ASCII spelling loads (the lone tedge is no complete partition)
    for text, _ in variants("2")[:-1]:
        load_structure_text(tmp_path, text)
    assert load_structure_text(tmp_path, power.format("2")).base_size == 81
    for number in ("\u0662", "+5", "1_0", "-1"):
        for text, line in variants(number):
            with pytest.raises(ParseError, match="not a number") as info:
                load_structure_text(tmp_path, text)
            assert info.value.position == line, text
        with pytest.raises(ParseError, match="not a number") as info:
            parse_algebra(good.replace("atoms 5", f"atoms {number}"))
        assert info.value.position == 2


def test_too_deep_nesting_names_its_line(tmp_path, aff3, capsys):
    # 16 inner files below the top one load; one more is refused at the
    # line that names it, as is a file that names itself
    save_algebra(aff3.algebra, str(tmp_path / "a.ra"))
    save_structure(aff3, str(tmp_path / "s0.rel"), algebra_path="a.ra")
    for i in range(1, 18):
        (tmp_path / f"s{i}.rel").write_text(POWER + f"power m=1 inner=s{i - 1}.rel\n")
    assert load_structure(str(tmp_path / "s16.rel")).labels == aff3.labels
    save_algebra(build_lpn(3, 2), str(tmp_path / "l32.ra"))
    (tmp_path / "p.rel").write_text(POWER + "power m=1 inner=p.rel\n")
    (tmp_path / "x.rel").write_text(XI + "xi inner=x.rel n=2 seed=7\n")
    for name in ("s17.rel", "p.rel", "x.rel"):
        with pytest.raises(ParseError, match="nest too deeply") as info:
            load_structure(str(tmp_path / name))
        assert info.value.position == 4, name
        assert cli.main(["verify", "--weak", str(tmp_path / name)]) == 3
        assert capsys.readouterr().err.endswith("(at 4)\n"), name


def load_structure_text(tmp_path, text):
    (tmp_path / "v.rel").write_text(text)
    return load_structure(str(tmp_path / "v.rel"))


def test_xi_seed_and_tedges_conflict(tmp_path, aff3):
    x = build_xi(aff3, 2, 7)
    save_algebra(aff3.algebra, str(tmp_path / "a.ra"))
    save_structure(aff3, str(tmp_path / "inner.rel"), algebra_path="a.ra")
    save_algebra(x.algebra, str(tmp_path / "l32.ra"))
    save_structure(
        x, str(tmp_path / "x.rel"), algebra_path="l32.ra", inner_path="inner.rel"
    )
    text = (tmp_path / "x.rel").read_text() + "tedge 0 0 1\n"
    (tmp_path / "bad.rel").write_text(text)
    with pytest.raises(ParseError):
        load_structure(str(tmp_path / "bad.rel"))


def test_relative_paths_resolve_from_file(tmp_path, aff3):
    sub = tmp_path / "nested"
    sub.mkdir()
    save_algebra(aff3.algebra, str(sub / "a.ra"))
    save_structure(aff3, str(sub / "inner.rel"), algebra_path="a.ra")
    p2 = build_power(aff3, 2)
    save_structure(
        p2, str(tmp_path / "p.rel"), algebra_path="nested/a.ra",
        inner_path="nested/inner.rel",
    )
    cwd = os.getcwd()
    back = load_structure(str(tmp_path / "p.rel"))
    assert os.getcwd() == cwd
    assert back.base_size == 81


def test_doubled_structure_file_round_trip(tmp_path, doubled3):
    save_algebra(doubled3.algebra, str(tmp_path / "l31.ra"))
    save_structure(doubled3, str(tmp_path / "d.rel"), algebra_path="l31.ra")
    back = load_structure(str(tmp_path / "d.rel"))
    assert back.labels == doubled3.labels
    # deterministic serialization
    a = (tmp_path / "d.rel").read_text()
    save_structure(back, str(tmp_path / "d2.rel"), algebra_path="l31.ra")
    assert (tmp_path / "d2.rel").read_text() == a


# One fault per file, at least one for each refusal of the two loaders,
# with the line the refusal names.  Structure files are written to v.rel
# next to a.ra (L(3,0)), l32.ra, inner.rel (the affine plane over
# GF(3)), l32inner.rel (a one-point labeling over L(3,2)), broken.rel and
# broken.ra.
LABELING = "structure v1\nkind atom-labeling\nalgebra a.ra\n"
POWER = "structure v1\nkind power\nalgebra a.ra\n"
XI = "structure v1\nkind xi\nalgebra l32.ra\n"
STRUCTURE_REFUSALS = [
    ("", 1),
    ("structure v2\nkind atom-labeling\nalgebra a.ra\nbase 1\n", 1),
    ("structure v1 v1\nkind atom-labeling\nalgebra a.ra\nbase 1\n", 1),
    ("\n" + LABELING + "base 1\n", 1),
    (LABELING + "kind atom-labeling\nbase 1\n", 4),
    (LABELING + "base 1\nalgebra a.ra\n", 5),
    ("structure v1\nalgebra a.ra\nbase 1\n", 3),
    ("structure v1\nalgebra a.ra\n\nbase 1\nkind cayley\n", 5),
    ("structure v1\nkind atom-labeling\nbase 1\n", 3),
    ("structure v1\nkind atom-labeling\nalgebra\nbase 1\n", 3),
    ("structure v1\nkind atom-labeling\nalgebra broken.ra\nbase 1\n", 4),
    (LABELING + "base 1\nbase 1\n", 5),
    (LABELING + "base\n", 4),
    (LABELING + "base 9 9\n", 4),
    (LABELING + "base x\n", 4),
    (LABELING + "base 0\n", 4),
    (LABELING + "base 2\nedge 0 1\n", 5),
    (LABELING + "base 2\nedge 0 1 a0 a1\n", 5),
    (LABELING + "base 2\nedge 0 x a0\n", 5),
    (LABELING + "base 2\nedge 1 0 a0\n", 5),
    (LABELING + "base 2\nedge 1 1 a0\n", 5),
    (LABELING + "base 3\nedge 0 1 a0\nedge 0 1 a0\n", 6),
    (LABELING + "base 2\nedge 0 1 zz\n", 5),
    (LABELING + "base 2\nedge 0 1 1'\n", 5),
    (LABELING + "base 2\nedge 0 5 a0\n", 5),
    (LABELING + "edge 0 5 a0\nbase 2\n", 4),
    (LABELING + "base 2\npower m=2 inner=inner.rel\n", 5),
    (LABELING + "base 2\nbogus\n", 5),
    (LABELING + "edge 0 1 a0\n\n", 5),
    (POWER + "power m=2 inner=inner.rel\npower m=2 inner=inner.rel\n", 5),
    (POWER + "base 2\npower m=2 inner=inner.rel\n", 4),
    (POWER + "\n", 4),
    (POWER + "power m=2\n", 4),
    (POWER + "power inner=inner.rel m=2\n", 4),
    (POWER + "power m= inner=inner.rel\n", 4),
    (POWER + "power m=2 inner=inner.rel n=2\n", 4),
    (POWER + "power m=x inner=inner.rel\n", 4),
    (POWER + "power m=0 inner=inner.rel\n", 4),
    (POWER + "power m=2 inner=broken.rel\n", 4),
    ("structure v1\nkind power\nalgebra l32.ra\npower m=2 inner=inner.rel\n", 4),
    (XI + "xi inner=inner.rel n=2 seed=7\nxi inner=inner.rel n=2 seed=7\n", 5),
    (XI + "xi inner=inner.rel n=2 seed=7\nbase 9\n", 5),
    (XI + "tedge 0 0 1\n", 4),
    (XI + "xi n=2 inner=inner.rel seed=7\n", 4),
    (XI + "xi inner=inner.rel n=2 seed=7 m=1\n", 4),
    (XI + "xi inner=inner.rel\n", 4),
    (XI + "xi inner=inner.rel n=x seed=7\n", 4),
    (XI + "xi inner=inner.rel n=2 seed=x\n", 4),
    (XI + "xi inner=l32inner.rel n=2 seed=7\n", 4),
    ("structure v1\nkind xi\nalgebra a.ra\nxi inner=inner.rel n=2 seed=7\n", 4),
    (XI + "xi inner=inner.rel n=3 seed=7\n", 4),
    (XI + "xi inner=inner.rel n=2 seed=7\ntedge 0 0 1\n", 4),
    (XI + "xi inner=inner.rel n=2\n", 4),
    (XI + "xi inner=inner.rel n=2 seed=99999999999999999999999\n", 4),
    (XI + "xi inner=inner.rel n=2\ntedge 0 0 1\n", 4),
    (XI + "xi inner=inner.rel n=2\ntedge 0 0\n", 5),
    (XI + "xi inner=inner.rel n=2\ntedge 0 x 1\n", 5),
    (XI + "xi inner=inner.rel n=2\ntedge 0 0 1\ntedge 0 0 2\n", 6),
    (XI + "xi inner=inner.rel n=2\ntedge 0 9 1\n", 5),
    (XI + "xi inner=inner.rel n=2\ntedge 0 0 3\n", 5),
    (XI + "xi inner=inner.rel n=2\ntedge 0 0 0\n", 5),
]
# (old, new) edits of the canonical L(3,0) file, 19 lines long
ALGEBRA_REFUSALS = [
    (("ra v1", "ra v2"), 1),
    (("ra v1", "\nra v1"), 1),
    (("identity 1'\n", "identity 1'\nidentity 1'\n"), 4),
    (("symmetric true\n", "symmetric true\nbogus\n"), 5),
    (("identity 1'\n", ""), 18),
    (("atoms 5 1' a0 a1 a2 a3", "atoms 5"), 2),
    (("atoms 5", "atoms x"), 2),
    (("atoms 5", "atoms 6"), 2),
    (("a3\n", "a-3\n"), 2),
    (("a3\n", "a2\n"), 2),
    (("identity 1'", "identity zz"), 3),
    (("identity 1'", "identity 1' a0"), 3),
    (("symmetric true", "symmetric yes"), 4),
    (("symmetric true", "symmetric false"), 4),
    (("comp a0 a1 = a2+a3", "comp a0 a1 a2+a3"), 11),
    (("comp a0 a1 = a2+a3", "comp a0 a1 = a2 a3"), 11),
    (("comp a0 a1 = a2+a3", "comp a0 zz = a2+a3"), 11),
    (("comp a0 a1 = a2+a3", "comp a0 a1 = a2+zz"), 11),
    (("comp a0 a1 = a2+a3\n", "comp a0 a1 = a2+a3\ncomp a1 a0 = a2\n"), 12),
    (("comp a0 a1 = a2+a3\n", ""), 18),
]


def write_refusal_files(tmp_path, aff3):
    save_algebra(aff3.algebra, str(tmp_path / "a.ra"))
    save_structure(aff3, str(tmp_path / "inner.rel"), algebra_path="a.ra")
    save_algebra(build_lpn(3, 2), str(tmp_path / "l32.ra"))
    (tmp_path / "l32inner.rel").write_text(
        "structure v1\nkind atom-labeling\nalgebra l32.ra\nbase 1\n"
    )
    (tmp_path / "broken.rel").write_text(LABELING + "base 0\n")
    good = format_algebra(aff3.algebra)
    (tmp_path / "broken.ra").write_text(good.replace("symmetric true", "symmetric false"))
    return good


def test_every_refusal_names_its_line(tmp_path, aff3, capsys):
    good = write_refusal_files(tmp_path, aff3)
    assert good.count("\n") == 19 and good.splitlines()[10] == "comp a0 a1 = a2+a3"
    cases = [(text, line, "v.rel") for text, line in STRUCTURE_REFUSALS]
    for (old, new), line in ALGEBRA_REFUSALS:
        assert old in good, old
        cases.append((good.replace(old, new), line, "v.ra"))
    for text, line, name in cases:
        (tmp_path / name).write_text(text)
        with pytest.raises(ParseError) as info:
            if name == "v.ra":
                parse_algebra(text)
            else:
                load_structure(str(tmp_path / name))
        assert info.value.position == line, (text, str(info.value))
        command = ["check-axioms"] if name == "v.ra" else ["verify", "--weak"]
        for json_mode in ([], ["--json"]):
            assert cli.main([*json_mode, *command, str(tmp_path / name)]) == 3, text
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("parse error: ") and err.endswith(
                f"(at {line})\n"
            ), (text, err)


def _mutants(text, rng, count):
    """Seeded single edits of a file: a token or a line deleted, doubled or
    replaced.  The tokens of algebra lines and inner= fields stay: a changed
    path names another file, which is the file system's business."""
    pool = ["0", "1", "2", "9", "x", "-1", "=", "1'", "a0", "t9", "zz", "m=1",
            "n=2", "seed=0", "99999999999999999999999", "\u0662", "structure",
            "ra", "v1", "kind", "power", "xi", "base", "edge", "tedge", "comp",
            "atoms", "identity", "symmetric", "atom-labeling", "true"]
    lines = text.splitlines()
    for _ in range(count):
        new = list(lines)
        at = rng.randrange(len(new))
        tokens = new[at].split()
        free = [i for i, t in enumerate(tokens) if not t.startswith("inner=")]
        if tokens[:1] == ["algebra"]:
            free = []
        op = rng.randrange(6)
        if op == 0:
            del new[at]
        elif op == 1:
            new.insert(at, new[at])
        elif op == 2:
            new[at] = lines[rng.randrange(len(lines))]
        elif free:
            i = rng.choice(free)
            if op == 3:
                del tokens[i]
            elif op == 4:
                tokens.insert(i, tokens[i])
            else:
                tokens[i] = rng.choice(pool)
            new[at] = " ".join(tokens)
        yield "\n".join(new) + "\n"


def test_mutated_files_load_or_raise_parse_error(tmp_path, aff3):
    good = write_refusal_files(tmp_path, aff3)
    x = build_xi(aff3, 2, 7)
    inner = {"algebra_path": "a.ra", "inner_path": "inner.rel"}
    xi = {"algebra_path": "l32.ra", "inner_path": "inner.rel"}
    files = [
        format_structure(aff3, algebra_path="a.ra"),
        format_structure(build_power(aff3, 2), **inner),
        format_structure(x, **xi),
        format_structure(x, **xi, explicit=True),
        good,
    ]
    rng = random.Random(15)
    loaded = refused = 0
    for text in files:
        for mutant in _mutants(text, rng, 400):
            try:
                if text is good:
                    parse_algebra(mutant)
                else:
                    (tmp_path / "m.rel").write_text(mutant)
                    load_structure(str(tmp_path / "m.rel"))
                loaded += 1
            except ParseError:
                refused += 1
    assert loaded > 100 and refused > 1000, (loaded, refused)
