import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from galcov import (
    INF,
    FactoredRational,
    build_cover,
    equation_system,
    psi_at,
)
from galcov.cli import EXIT_CODES, main
from galcov.config import ParsedInput
from galcov.errors import BranchedAtInfinity

from covergen import pt
from document_oracle import to_document
from equations_oracle import check_nondegeneracy, is_nondegenerate


def hyper6():
    return equation_system([(2, [(pt(i), 1) for i in range(1, 7)])])


def z4_mixed():
    # w^4 = (z-1)(z-2)(z-3)^2
    return equation_system([(4, [(pt(1), 1), (pt(2), 1), (pt(3), 2)])])


class TestFactoredRational:
    def test_infinity_order_derived(self):
        f = FactoredRational(((pt(0), 1), (pt(1), 2)))
        assert f.infinity_order == -3
        assert f.order_at(INF) == -3
        assert f.order_at(pt(7)) == 0

    def test_explicit_infinity_must_match(self):
        FactoredRational(((pt(0), 2), (INF, -2)))
        with pytest.raises(ValueError):
            FactoredRational(((pt(0), 2), (INF, -1)))

    def test_rejects_repeats_and_zero_exponents(self):
        with pytest.raises(ValueError):
            FactoredRational(((pt(0), 1), (pt(0), 2)))
        with pytest.raises(ValueError):
            FactoredRational(((pt(0), 0),))


class TestPsiAt:
    def test_unlisted_point_is_identity(self):
        eqs = hyper6()
        assert psi_at(eqs, pt(100)) == eqs.group.identity

    def test_hyperelliptic_generator(self):
        eqs = hyper6()
        assert psi_at(eqs, pt(1)) == eqs.group.element([1])

    def test_z4_order_two_point(self):
        eqs = z4_mixed()
        assert psi_at(eqs, pt(3)) == eqs.group.element([2])
        assert eqs.group.element_order(psi_at(eqs, pt(3))) == 2

    def test_order_equals_branching_number_plus_one(self):
        for eqs in (hyper6(), z4_mixed()):
            group = eqs.group
            for point in eqs.finite_points():
                psi = psi_at(eqs, point)
                expected = group.element_order(
                    group.element([eq.rhs.order_at(point) for eq in eqs.equations])
                )
                assert group.element_order(psi) == expected


class TestBuildCover:
    def test_hyperelliptic6(self):
        cover = build_cover(hyper6())
        assert len(cover.branch_points) == 6
        assert cover.genus() == 2

    def test_z3_genus1(self):
        cover = build_cover(equation_system([(3, [(pt(i), 1) for i in range(1, 4)])]))
        assert cover.genus() == 1

    def test_z6_branching_orders(self):
        cover = build_cover(
            equation_system([(6, [(pt(1), 1), (pt(2), 2), (pt(3), 3)])])
        )
        assert sorted(cls.order for cls in cover.branch_classes) == [2, 3, 6]
        assert cover.genus() == 1

    def test_genus1_family_no_infinity_branching(self):
        systems = [
            equation_system([(2, [(pt(i), 1) for i in range(1, 5)])]),
            equation_system([(3, [(pt(i), 1) for i in range(1, 4)])]),
            z4_mixed(),
            equation_system([(6, [(pt(1), 1), (pt(2), 2), (pt(3), 3)])]),
        ]
        for eqs in systems:
            for eq in eqs.equations:
                assert eq.rhs.infinity_order % eq.m == 0
            assert build_cover(eqs).genus() == 1

    def test_branched_at_infinity_rejected(self):
        with pytest.raises(BranchedAtInfinity):
            equation_system([(2, [(pt(1), 1)])])

    def test_classes_match_psi(self):
        for eqs in (hyper6(), z4_mixed()):
            cover = build_cover(eqs)
            for bp in cover.branch_points:
                assert bp.psi == psi_at(eqs, bp.label)


class TestNondegeneracy:
    def test_single_factor_passes(self):
        assert check_nondegeneracy(equation_system([(2, [(pt(1), 1), (pt(2), 1)])])) is None

    def test_repeated_factor_fails_at_1_1(self):
        eqs = equation_system(
            [
                (2, [(pt(1), 1), (pt(2), 1)]),
                (2, [(pt(1), 1), (pt(2), 1)]),
            ]
        )
        assert check_nondegeneracy(eqs) == (1, 1)

    def test_klein_fixture_passes(self):
        eqs = equation_system(
            [
                (2, [(pt(1), 1), (pt(2), 1)]),
                (2, [(pt(3), 1), (pt(4), 1)]),
            ]
        )
        assert is_nondegenerate(eqs)

    def test_square_right_hand_side_fails(self):
        eqs = equation_system([(2, [(pt(1), 2), (pt(2), 2), (pt(3), 2)])])
        assert check_nondegeneracy(eqs) == (1,)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([2, 3, 4]), st.integers(0, 50)),
            min_size=1,
            max_size=2,
        )
    )
    def test_nondegenerate_systems_validate(self, raw):
        import random

        systems = []
        for m, seed in raw:
            rng = random.Random(seed)
            count = rng.randint(1, 4)
            points = rng.sample(range(1, 12), count)
            exps = [rng.randint(1, m - 1) for _ in points]
            total = sum(exps) % m
            if total:
                extra = 13 + seed % 7
                while extra in points:
                    extra += 1
                points.append(extra)
                exps.append(m - total)
            systems.append((m, [(pt(x), e) for x, e in zip(points, exps)]))
        eqs = equation_system(systems)
        cover = build_cover(eqs)
        report = cover.validate()
        if is_nondegenerate(eqs):
            assert report.ok
        else:
            assert not report.ok
            assert all(issue.kind == "degenerate" for issue in report.issues)


def random_system(seed):
    """One to three root extractions over a few shared points, with no
    branching at infinity; repeated and proportional factors make many of
    them degenerate."""
    rng = random.Random(seed)
    specs = []
    for _ in range(rng.randint(1, 3)):
        m = rng.choice([2, 3, 4, 6])
        points = rng.sample(range(1, 6), rng.randint(1, 4))
        exps = [rng.randint(1, m - 1) for _ in points]
        total = sum(exps) % m
        if total:
            extra = next(x for x in range(1, 8) if x not in points)
            points.append(extra)
            exps.append(m - total)
        specs.append((m, [(pt(x), e) for x, e in zip(points, exps)]))
    return equation_system(specs)


class TestValidateReportsDegenerateMonomial:
    """``galcov validate`` reads the degenerate monomial off the cover's
    characters; the scan over the equations must find the same one."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_equation_scan(self, seed):
        eqs = random_system(seed)
        document = to_document(ParsedInput(build_cover(eqs), eqs))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "system.json"
            path.write_text(json.dumps(document))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["validate", str(path), "--format", "json"])
        report = json.loads(out.getvalue())
        expected = check_nondegeneracy(eqs)
        assert report.get("degenerate_monomial") == (None if expected is None else list(expected))
        assert (code == EXIT_CODES["degenerate-cover"]) == (expected is not None)
        assert code in (0, EXIT_CODES["degenerate-cover"])
