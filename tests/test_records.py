"""The frozen records against ``dataclasses.dataclass(frozen=True)`` as oracle.

Every value type in ``galcov`` is made by ``galcov.errors._record``.  Each
gets a dataclass twin built from the same annotations and defaults; the
twin's ``__init__`` signature, and its ``==``, ``hash`` and ``repr`` on the
same field values, must be the record's.  The twin skips ``__post_init__``:
it is built from the fields of a record that has run it.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import random
from fractions import Fraction

import pytest

import galcov
from galcov import Character, Coord, CoverSpec, GroupElement, InvariantDivisor, iter_degree_gm1
from galcov.differentials import omega_divisor
from galcov.divisors import EigenDivisor, h_chi_divisor, trivial_divisor
from galcov.errors import _record

from covergen import fixture_covers, klein_cover, pt, random_divisor

SOURCES = sorted(pathlib.Path(galcov.__file__).parent.glob("*.py"))


def decorated_records():
    """(module, class name) of every class the source decorates with ``_record``."""
    return sorted(
        (path.stem, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(d, ast.Name) and d.id == "_record" for d in node.decorator_list)
    )


RECORDS = [getattr(importlib.import_module(f"galcov.{module}"), name) for module, name in decorated_records()]


def twin(cls):
    """A ``dataclass(frozen=True)`` with cls's name, base, annotations and
    defaults, and no ``__post_init__``."""
    base = cls.__bases__[0]
    own = vars(cls).get("__annotations__", {})
    namespace = {name: vars(cls)[name] for name in own if name in vars(cls)}
    namespace.update(__annotations__=dict(own), __qualname__=cls.__qualname__, __module__=cls.__module__)
    parent = (TWINS[base],) if base in TWINS else ()
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, parent, namespace))


TWINS = {}
for _cls in sorted(RECORDS, key=lambda c: len(c.__mro__)):
    # a base record's twin is built before its subclass's
    TWINS[_cls] = twin(_cls)


def twin_of(record):
    cls = TWINS[type(record)]
    return cls(**{f.name: getattr(record, f.name) for f in dataclasses.fields(cls)})


def test_every_record_is_found():
    assert len(RECORDS) == 31
    assert {EigenDivisor, galcov.OmegaDivisor, Character, GroupElement, CoverSpec} <= set(TWINS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_signature_and_fields(cls):
    assert inspect.signature(cls) == inspect.signature(TWINS[cls])
    assert list(cls._fields) == [f.name for f in dataclasses.fields(TWINS[cls])]


def samples():
    """Instances of the sampled record types, with equal and unequal pairs."""
    rng = random.Random(7)
    covers = [cover for cover in fixture_covers() if cover.is_abelian][:4] + [klein_cover()]
    out = [GroupElement((1,)), GroupElement((1, 0)), Character((1,)), Character((1, 0))]
    out += [Coord(1), Coord(1, 0), pt(2, -1), pt(0)]
    for cover in covers:
        out.append(cover)
        out.append(CoverSpec(cover.base_genus, cover.group, list(cover.branch_points)))
        out.extend(cover.branch_points[:2])
        out.extend(list(cover.group.elements())[:3])
        chis = list(cover.characters())[:3]
        out.extend(chis)
        if cover.base_genus == 0:
            out.append(trivial_divisor(cover))
            out.extend(InvariantDivisor._from_checked_rows(cover, [trivial_divisor(cover).buckets], 0))
            streamed = next(iter_degree_gm1(cover))
            out += [streamed, InvariantDivisor(cover, streamed.buckets, streamed.p)]
            out.append(random_divisor(rng, cover))
            out.extend(h_chi_divisor(cover, chi) for chi in chis)
            if cover.genus() >= 1:
                out.extend(omega_divisor(cover, chi, 1) for chi in chis)
    return out


SAMPLES = samples()


def test_samples_cover_the_named_types():
    names = {type(x).__name__ for x in SAMPLES}
    assert names >= {
        "GroupElement", "Character", "Coord", "BranchPoint", "CoverSpec",
        "InvariantDivisor", "EigenDivisor", "OmegaDivisor",
    }


def test_repr_and_hash_match_the_twin():
    for x in SAMPLES:
        assert repr(x) == repr(twin_of(x))
        assert hash(x) == hash(twin_of(x))


def test_equality_matches_the_twin():
    twins = [twin_of(x) for x in SAMPLES]
    for x, tx in zip(SAMPLES, twins):
        for y, ty in zip(SAMPLES, twins):
            assert (x == y) is (tx == ty), (x, y)
            assert (x != y) is (tx != ty), (x, y)


def test_equality_depends_on_the_class():
    assert Character((1,)) != GroupElement((1,))
    assert Character((1,)).__eq__(GroupElement((1,))) is NotImplemented
    cover = fixture_covers()[0]
    chi = cover.trivial_character
    omega = omega_divisor(cover, chi, 1)
    eigen = EigenDivisor(omega.cover, omega.character, omega.branch_exponents, omega.infinity_exponent)
    assert eigen != omega and omega != eigen
    assert len({Character((1,)), GroupElement((1,))}) == 2


@pytest.mark.parametrize("kind", sorted({type(x).__name__ for x in SAMPLES}))
def test_frozen(kind):
    x = next(x for x in SAMPLES if type(x).__name__ == kind)
    name = next(iter(type(x)._fields))
    before = getattr(x, name)
    for change in (lambda: setattr(x, name, None), lambda: delattr(x, name), lambda: setattr(x, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(x, name) is before and not hasattr(x, "extra")


def test_post_init_runs_last_and_may_set_fields():
    # Coord's __post_init__ turns both parts into Fractions through object.__setattr__
    assert type(Coord(1).re) is Fraction and Coord(1) == Coord(1, 0)
    with pytest.raises(ValueError, match="base genus"):
        CoverSpec(-1, galcov.GroupSpec((2,)))


def test_methods_the_class_defines_are_kept():
    @_record
    class Own:
        a: int
        b: int = 2

        def __repr__(self):
            return "own"

        def __eq__(self, other):
            return True

        __hash__ = None

    assert repr(Own(1)) == "own" and Own(1) == 5 and Own.__hash__ is None
    assert (Own(1).a, Own(1).b) == (1, 2)
    assert str(Character((1, 2))) == "chi(1,2)"
