import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from galcov import (
    count_by_cardinality,
    enumerate_degree_gm1,
    enumerate_nonspecial_integral,
    enumeration,
    iter_degree_gm1,
    iter_nonspecial_integral,
)
from galcov.cli import COMMANDS, EXIT_CODES, FAMILIES, main
from galcov.config import parse_config
from galcov.cover import Coord, CoverSpec
from galcov.errors import BranchedAtInfinity, ConfigError
from galcov.groups import GroupSpec

from covergen import Z2Z2_OVER_ELLIPTIC, hyperelliptic
from document_oracle import to_document

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# S3 over the line with four transpositions; the u_table lists only sgn
S3_DOC = str(Path(__file__).resolve().parent / "golden" / "s3.json")
HYPER6 = str(CONFIG_DIR / "hyperelliptic6.json")


def hyper6_doc():
    return {
        "mode": "equations",
        "equations": [
            {"m": 2, "factors": [{"point": [i, 0], "exp": 1} for i in range(1, 7)]}
        ],
    }


def branch_doc():
    return {
        "mode": "branch-data",
        "base_genus": 1,
        "group": {"cyclic_orders": [2]},
        "branch_points": [],
    }


class TestParse:
    def test_equations_mode_matches_fixture(self):
        parsed = parse_config(hyper6_doc())
        assert parsed.cover == hyperelliptic(6)
        assert parsed.equations is not None

    def test_branch_data_unramified_double_cover(self):
        parsed = parse_config(branch_doc())
        assert parsed.cover.base_genus == 1
        assert parsed.cover.degree == 2
        assert parsed.cover.branch_points == ()
        assert parsed.cover.genus() == 1

    def test_rational_strings(self):
        doc = hyper6_doc()
        doc["equations"][0]["factors"][0]["point"] = ["3/2", "-1/4"]
        parsed = parse_config(doc)
        labels = [bp.label for bp in parsed.cover.branch_points]
        assert Coord(Fraction(3, 2), Fraction(-1, 4)) in labels

    def test_scalar_point_is_real_coordinate(self):
        doc = hyper6_doc()
        doc["equations"][0]["factors"][0]["point"] = "7/2"
        parsed = parse_config(doc)
        assert Coord(Fraction(7, 2)) in [bp.label for bp in parsed.cover.branch_points]

    def test_branch_point_at_infinity_rejected(self):
        doc = branch_doc()
        doc["base_genus"] = 0
        doc["branch_points"] = [{"label": "inf", "psi": [1]}]
        with pytest.raises(BranchedAtInfinity):
            parse_config(doc)

    def test_equations_branched_at_infinity_rejected(self):
        doc = {
            "mode": "equations",
            "equations": [{"m": 2, "factors": [{"point": [0, 0], "exp": 1}]}],
        }
        with pytest.raises(BranchedAtInfinity):
            parse_config(doc)

    def test_schema_errors_carry_paths(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"mode": "equations"})
        assert "equations" in str(err.value)
        with pytest.raises(ConfigError) as err:
            parse_config(
                {
                    "mode": "equations",
                    "equations": [{"m": 2, "factors": [{"point": "x", "exp": 1}]}],
                }
            )
        assert "factors[0].point" in str(err.value)
        with pytest.raises(ConfigError) as err:
            parse_config({"mode": "orbits"})
        assert "mode" in str(err.value)

    @pytest.mark.parametrize("points", [True, 7, {"label": [1, 0]}, "ab"])
    def test_branch_points_must_be_a_list(self, points):
        doc = branch_doc()
        doc["branch_points"] = points
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "branch_points" in str(err.value)

    def test_generic_group_document(self):
        doc = {
            "mode": "branch-data",
            "base_genus": 1,
            "group": {
                "classes": [{"id": "r", "order": 3}, {"id": "s", "order": 2}],
                "order": 6,
                "u_table": {"sgn": {"r": 0, "s": 1}},
            },
            "branch_points": [
                {"label": "p1", "psi": "r"},
                {"label": "p2", "psi": "r"},
                {"label": "p3", "psi": "s"},
                {"label": "p4", "psi": "s"},
            ],
        }
        parsed = parse_config(doc)
        assert not parsed.cover.is_abelian
        assert parsed.cover.degree == 6
        (sgn,) = parsed.cover.characters()
        assert parsed.cover.t_chi(sgn) == 1

    def test_round_trip(self):
        for doc in (hyper6_doc(), branch_doc()):
            parsed = parse_config(doc)
            again = parse_config(to_document(parsed))
            assert again.cover == parsed.cover
            assert to_document(again) == to_document(parsed)


class TestCli:
    def run(self, tmp_path, doc, *argv):
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        return main([argv[0], str(path), *argv[1:]])

    def test_genus_json(self, tmp_path, capsys):
        code = self.run(tmp_path, hyper6_doc(), "genus", "--format", "json")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out == {"command": "genus", "genus": 2}

    def test_validate_pass(self, tmp_path, capsys):
        code = self.run(tmp_path, hyper6_doc(), "validate", "--format", "json")
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["valid"] is True

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        doc = {
            "mode": "branch-data",
            "base_genus": 0,
            "group": {"cyclic_orders": [2]},
            "branch_points": [{"label": [i, 0], "psi": [1]} for i in range(5)],
        }
        code = self.run(tmp_path, doc, "validate", "--format", "json")
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_CODES["non-integral-invariant"]
        assert report["valid"] is False
        assert report["issues"][0]["kind"] == "non-integral"

    def test_all_exits_with_validate_code(self, tmp_path, capsys):
        doc = {
            "mode": "branch-data",
            "base_genus": 0,
            "group": {"cyclic_orders": [2]},
            "branch_points": [{"label": [i, 0], "psi": [1]} for i in range(5)],
        }
        assert self.run(tmp_path, doc, "validate", "--format", "json") == 3
        validate = json.loads(capsys.readouterr().out)
        assert self.run(tmp_path, doc, "all", "--format", "json") == 3
        assert json.loads(capsys.readouterr().out) == {"command": "all", "validate": validate}

    def test_degenerate_equations_reported(self, tmp_path, capsys):
        doc = {
            "mode": "equations",
            "equations": [
                {"m": 2, "factors": [{"point": [1, 0], "exp": 1}, {"point": [2, 0], "exp": 1}]},
                {"m": 2, "factors": [{"point": [1, 0], "exp": 1}, {"point": [2, 0], "exp": 1}]},
            ],
        }
        code = self.run(tmp_path, doc, "validate", "--format", "json")
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_CODES["degenerate-cover"]
        assert report["degenerate_monomial"] == [1, 1]

    def test_nonspecial_count_only(self, tmp_path, capsys):
        code = self.run(tmp_path, hyper6_doc(), "nonspecial", "--count-only", "--format", "json")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["count"] == 15
        assert "divisors" not in out

    def test_nonspecial_divisor_listing(self, tmp_path, capsys):
        code = self.run(tmp_path, hyper6_doc(), "nonspecial", "--format", "json")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["divisors"]) == 15
        assert all(d["degree"] == 2 for d in out["divisors"])

    def test_cap_error(self, tmp_path, capsys):
        code = self.run(tmp_path, hyper6_doc(), "nonspecial", "--cap", "3", "--format", "json")
        assert code == EXIT_CODES["search-space-too-large"]
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "search-space-too-large"

    def test_stream_ndjson(self, tmp_path, capsys):
        code = self.run(tmp_path, hyper6_doc(), "degree-gm1", "--stream")
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert code == 0
        assert len(lines) == 20
        assert all(json.loads(line)["p"] == -1 for line in lines)

    def test_jacobian_orbits_sum(self, tmp_path, capsys):
        klein = {
            "mode": "equations",
            "equations": [
                {"m": 2, "factors": [{"point": [1, 0], "exp": 1}, {"point": [2, 0], "exp": 1}]},
                {"m": 2, "factors": [{"point": [3, 0], "exp": 1}, {"point": [4, 0], "exp": 1}]},
            ],
        }
        code = self.run(tmp_path, klein, "jacobian", "--format", "json")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert sum(orbit["dim_A"] for orbit in out["orbits"]) == out["genus"] == 1
        assert [q["dim"] for q in out["quotients"]] == [0, 0, 0, 1]

    def test_byte_identical_reports(self, tmp_path, capsys):
        self.run(tmp_path, hyper6_doc(), "all", "--format", "json")
        first = capsys.readouterr().out
        self.run(tmp_path, hyper6_doc(), "all", "--format", "json")
        second = capsys.readouterr().out
        assert first == second

    def test_traces_single_tau(self, tmp_path, capsys):
        code = self.run(tmp_path, hyper6_doc(), "traces", "--tau", "1", "--format", "json")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["traces"][0]["value"][0] == pytest.approx(-2.0, abs=1e-9)

    def test_dims_flags(self, tmp_path, capsys):
        code = self.run(
            tmp_path, hyper6_doc(), "dims", "--q", "2", "--gamma-degree", "1", "--format", "json"
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["total"] == 3 * 1 + 2 * 1 + 0
        assert sum(row["dim"] for row in out["characters"]) == out["total"]

    def test_admissibility_exit_code(self, tmp_path, capsys):
        code = self.run(tmp_path, hyper6_doc(), "dims", "--q", "0", "--format", "json")
        capsys.readouterr()
        assert code == EXIT_CODES["admissibility"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["genus", str(path), "--format", "json"])
        capsys.readouterr()
        assert code == EXIT_CODES["config"]

    def test_chevalley_weil_irrep_file(self, tmp_path, capsys):
        doc = {
            "mode": "branch-data",
            "base_genus": 1,
            "group": {
                "classes": [{"id": "s", "order": 2}],
                "order": 8,
                "u_table": {"one": {"s": 0}},
            },
            "branch_points": [{"label": f"p{i}", "psi": "s"} for i in range(4)],
        }
        irreps = {"irreps": [{"name": "std", "dim": 2, "classes": {"s": [1, 1]}}]}
        irrep_path = tmp_path / "irreps.json"
        irrep_path.write_text(json.dumps(irreps))
        code = self.run(
            tmp_path,
            doc,
            "chevalley-weil",
            "--irrep-file",
            str(irrep_path),
            "--format",
            "json",
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["multiplicities"] == [{"irrep": "std", "dim": 2, "multiplicity": 2}]

    def test_chevalley_weil_negative_multiplicity_rejected(self, tmp_path, capsys):
        # a two-dimensional table with both eigenvalues 1 at the involution sums to -2
        irreps = {"irreps": [{"name": "y", "dim": 2, "classes": {"[1]": [2, 0]}}]}
        irrep_path = tmp_path / "irreps.json"
        irrep_path.write_text(json.dumps(irreps))
        config = str(CONFIG_DIR / "hyperelliptic6.json")
        code = main(["chevalley-weil", config, "--irrep-file", str(irrep_path), "--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_CODES["n-table-mismatch"] == 10
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error == {
            "code": "n-table-mismatch",
            "message": "multiplicity -2 is negative; eigenvalue table inconsistent",
        }

    @pytest.mark.parametrize("q", ["11111111111111111111", str(10**400)], ids=["1x20", "10^400"])
    @pytest.mark.parametrize("name", ["klein4.json", "hyperelliptic6.json"])
    def test_traces_at_a_huge_q(self, capsys, name, q):
        # every class order is 2, so the traces read q mod 2: a huge q answers as 2 or 3 does
        small = str(2 + (int(q) - 2) % 2)
        reports = []
        for value in (q, small):
            assert main(["traces", str(CONFIG_DIR / name), "--q", value, "--format", "json"]) == 0
            reports.append(json.loads(capsys.readouterr().out)["traces"])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "record",
        [
            {"name": "neg", "dim": -1, "classes": {"s": [1, 1]}},
            {"name": "zero", "dim": 0, "classes": {"s": [0, 0]}},
            {"name": "bool", "dim": True, "classes": {"s": [1, 0]}},
            {"name": "row", "dim": 1, "classes": {"s": [2, -1]}},
            {"name": "flag", "dim": 1, "classes": {"s": [True, 0]}},
        ],
    )
    def test_chevalley_weil_bad_irrep_rejected(self, tmp_path, capsys, record):
        doc = {
            "mode": "branch-data",
            "base_genus": 1,
            "group": {"classes": [{"id": "s", "order": 2}], "order": 8},
            "branch_points": [{"label": f"p{i}", "psi": "s"} for i in range(4)],
        }
        irreps = {"irreps": [{"name": "ok", "dim": 2, "classes": {"s": [1, 1]}}, record]}
        irrep_path = tmp_path / "irreps.json"
        irrep_path.write_text(json.dumps(irreps))
        code = self.run(
            tmp_path, doc, "chevalley-weil", "--irrep-file", str(irrep_path), "--format", "json"
        )
        captured = capsys.readouterr()
        assert code == EXIT_CODES["config"]
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["code"] == "config"
        assert "irreps[1]" in error["message"]

    @pytest.mark.parametrize(
        "u_table",
        [{"sgn": 5}, {"sgn": {"t": None}}, {"sgn": {"t": 1.7}}, {"sgn": {"t": True}}, {"sgn": {}}],
    )
    def test_bad_u_table_row_rejected(self, tmp_path, capsys, u_table):
        doc = {
            "mode": "branch-data",
            "base_genus": 0,
            "group": {
                "classes": [{"id": "t", "order": 2}, {"id": "r", "order": 3}],
                "order": 6,
                "u_table": u_table,
            },
            "branch_points": [{"label": [k, 0], "psi": "t"} for k in range(1, 5)],
        }
        code = self.run(tmp_path, doc, "validate", "--format", "json")
        captured = capsys.readouterr()
        assert code == EXIT_CODES["config"]
        assert "Traceback" not in captured.err
        assert "group.u_table.sgn" in json.loads(captured.err)["error"]["message"]

    @pytest.mark.parametrize(
        "psi, path, message",
        [
            ("b", "branch_points", "branch value 1: class 'b' is not in the class table"),
            (1, "branch_points[0].psi", "psi must be a class id for generic groups"),
        ],
        ids=["str", "int"],
    )
    def test_a_class_id_missing_from_the_table_is_refused(self, tmp_path, capsys, psi, path, message):
        doc = {
            "mode": "branch-data",
            "base_genus": 0,
            "group": {"classes": [{"id": "a", "order": 2}], "order": 2},
            "branch_points": [{"label": [1, 0], "psi": psi}],
        }
        code = self.run(tmp_path, doc, "validate", "--format", "json")
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == EXIT_CODES["config"] == 2
        assert error["message"] == f"{path}: {message}"

    def test_bad_u_table_row_child_process(self, tmp_path):
        doc = {
            "mode": "branch-data",
            "base_genus": 0,
            "group": {"classes": [{"id": "t", "order": 2}], "order": 2, "u_table": {"sgn": 5}},
            "branch_points": [{"label": [k, 0], "psi": "t"} for k in range(1, 3)],
        }
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        result = subprocess.run(
            [sys.executable, "-m", "galcov.cli", "genus", str(path)], capture_output=True, text=True
        )
        assert result.returncode == EXIT_CODES["config"]
        assert "Traceback" not in result.stderr

    def test_table_format_smoke(self, tmp_path, capsys):
        code = self.run(tmp_path, hyper6_doc(), "tchi")
        out = capsys.readouterr().out
        assert code == 0
        assert "characters" in out and "t: 3" in out

    def test_char_flag_selects_one_character(self, tmp_path, capsys):
        code = self.run(tmp_path, hyper6_doc(), "dims", "--char", "1", "--format", "json")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["characters"] == [{"character": [1], "dim": 2}]
        assert "total" not in out

    def test_unsupported_base_genus_exit_code(self, tmp_path, capsys):
        code = self.run(tmp_path, branch_doc(), "hchi", "--format", "json")
        capsys.readouterr()
        assert code == EXIT_CODES["unsupported-base-genus"]

    def test_negative_gamma_degree_exit_code(self, capsys):
        code = main(["dims", str(CONFIG_DIR / "klein4.json"), "--gamma-degree", "-1", "--format", "json"])
        err = capsys.readouterr().err
        assert code == EXIT_CODES["config"]
        assert "Traceback" not in err
        assert json.loads(err)["error"]["code"] == "config"

    def test_negative_gamma_degree_child_process(self):
        result = subprocess.run(
            [sys.executable, "-m", "galcov.cli", "dims", str(CONFIG_DIR / "klein4.json"),
             "--gamma-degree", "-1", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_CODES["config"]
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["dims", "chevalley-weil", "all"])
    def test_generic_table_without_trivial_row(self, tmp_path, capsys, command):
        # S3 over the line with four transpositions: genus 1, corrected at the
        # trivial character, which the table does not list
        doc = {
            "mode": "branch-data",
            "base_genus": 0,
            "group": {
                "classes": [{"id": "t", "order": 2}, {"id": "r", "order": 3}],
                "order": 6,
                "u_table": {"sgn": {"t": 1, "r": 0}},
            },
            "branch_points": [{"label": [k, 0], "psi": "t"} for k in range(1, 5)],
        }
        code = self.run(tmp_path, doc, command, "--q", "1", "--format", "json")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        if command == "chevalley-weil":
            assert out["multiplicities"] == [{"irrep": "sgn", "dim": 1, "multiplicity": 1}]
        else:
            dims = out["dims"] if command == "all" else out
            assert dims["characters"] == [{"character": "sgn", "dim": 1}]

    def test_omega_command(self, tmp_path, capsys):
        code = self.run(tmp_path, hyper6_doc(), "omega", "--q", "2", "--format", "json")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert all(row["degree"] == 4 for row in out["characters"])  # q(2g-2) = 2*2


class TestHugeCyclicGroup:
    """Two branch values on the line with deck group Z_{10^12}: the valid
    document is answered without walking the group, and an invalid one is
    reported by one witness character instead of the scan that the cap
    refuses."""

    ORDER = 10**12
    COMMANDS = [["genus"], ["validate"], ["tchi", "--char", "5"], ["traces", "--tau", "7"]]

    def run_child(self, tmp_path, psi, argv):
        doc = {
            "mode": "branch-data",
            "base_genus": 0,
            "group": {"cyclic_orders": [self.ORDER]},
            "branch_points": [{"label": k + 1, "psi": [a]} for k, a in enumerate(psi)],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        return subprocess.run(
            [sys.executable, "-m", "galcov.cli", argv[0], str(path), *argv[1:], "--format", "json"],
            capture_output=True,
            text=True,
            timeout=60,
        )

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_valid_document_answers(self, tmp_path, argv):
        result = self.run_child(tmp_path, [1, self.ORDER - 1], argv)
        assert "Traceback" not in result.stderr
        assert result.returncode == 0
        out = json.loads(result.stdout)
        if argv[0] == "genus":
            assert out["genus"] == 0
        elif argv[0] == "validate":
            assert out["valid"] and out["issues"] == []
        elif argv[0] == "tchi":
            assert out["characters"] == [{"character": [5], "t": 1, "u": [5, self.ORDER - 5]}]
        else:
            (trace,) = out["traces"]
            assert [(t["exponent"], t["multiplicity"]) for t in trace["terms"]] == [
                (7, 1),
                (self.ORDER - 7, 1),
            ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_invalid_document_exits_3(self, tmp_path, argv):
        # 1 + 3 != 0: the unit character's t is 4 / 10^12
        result = self.run_child(tmp_path, [1, 3], argv)
        assert "Traceback" not in result.stderr
        assert result.returncode == EXIT_CODES["non-integral-invariant"] == 3
        if argv[0] == "validate":
            out = json.loads(result.stdout)
            assert out["issues"] == [
                {"kind": "non-integral", "character": [1], "detail": "t = 1/250000000000"}
            ]
        else:
            error = json.loads(result.stderr)["error"]
            assert error["code"] == "non-integral-invariant"
            assert error["message"].endswith("at character chi(1)): t = 1/250000000000")

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_degenerate_document_exits_4(self, tmp_path, argv):
        # psi = 2 and -2 generate the index-2 subgroup: the character of
        # order 2 is trivial on both, so its t vanishes
        result = self.run_child(tmp_path, [2, self.ORDER - 2], argv)
        assert "Traceback" not in result.stderr
        assert result.returncode == EXIT_CODES["degenerate-cover"] == 4
        witness = [self.ORDER // 2]
        if argv[0] == "validate":
            assert json.loads(result.stdout)["issues"] == [
                {"kind": "degenerate", "character": witness, "detail": ""}
            ]
        else:
            error = json.loads(result.stderr)["error"]
            assert error == {
                "code": "degenerate-cover",
                "message": f"degenerate cover: t vanishes at nontrivial character chi({witness[0]})",
            }


def test_rank_two_group_above_the_cap_reports_one_witness(tmp_path, capsys):
    """Z_{10^4} x Z_{10^4} with psi = (2,0), (0,2), (-2,-2): the psi sum to 0
    but generate only the even elements, so the witness read off the
    triangular basis, chi(5000, 0), is the one degenerate issue, and the
    dual group is never walked."""
    order = 10**4
    doc = {
        "mode": "branch-data",
        "base_genus": 0,
        "group": {"cyclic_orders": [order, order]},
        "branch_points": [
            {"label": k + 1, "psi": psi} for k, psi in enumerate([[2, 0], [0, 2], [order - 2, order - 2]])
        ],
    }
    path = tmp_path / "rank2.json"
    path.write_text(json.dumps(doc))
    with mock.patch.object(GroupSpec, "characters", side_effect=AssertionError("walked")):
        code, out, err = run_json(capsys, "validate", str(path))
    assert (code, err) == (EXIT_CODES["degenerate-cover"], None)
    assert out["issues"] == [{"kind": "degenerate", "character": [order // 2, 0], "detail": ""}]


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name,genus",
        [("hyperelliptic6.json", 2), ("klein4.json", 1), ("z3_cubic.json", 1), ("unramified_g1.json", 1)],
    )
    def test_configs_parse_and_validate(self, name, genus):
        parsed = parse_config((CONFIG_DIR / name).read_text())
        assert parsed.cover.validate().ok
        assert parsed.cover.genus() == genus

    def test_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "galcov.cli", "genus", str(CONFIG_DIR / "klein4.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "genus: 1" in result.stdout


def branch_points_doc(**first):
    """A genus-0 double cover with two branch points, the first one edited."""
    points = [{"label": [1, 0], "psi": [1]}, {"label": [2, 0], "psi": [1]}]
    points[0].update(first)
    return {"mode": "branch-data", "base_genus": 0, "group": {"cyclic_orders": [2]}, "branch_points": points}


def group_doc(group):
    return {"mode": "branch-data", "base_genus": 1, "group": group, "branch_points": []}


def equations_doc(*equations):
    return {"mode": "equations", "equations": list(equations)}


class TestDocumentErrorsNameTheField:
    """Every refusal of a document exits 2, and its message starts with the
    path of the field at fault."""

    @pytest.mark.parametrize(
        "document, message",
        [
            (branch_points_doc(label=[True, 0]), "branch_points[0].label[0]: expected a rational number"),
            (
                branch_points_doc(label=[1.5, 0]),
                "branch_points[0].label[0]: rationals are integers or 'a/b' strings, got 1.5",
            ),
            (branch_points_doc(label=[1, 2, 3]), "branch_points[0].label: coordinates are [re, im] pairs"),
            (branch_points_doc(label={}), "branch_points[0].label: not a coordinate: {}"),
            (
                group_doc({"cyclic_orders": [0]}),
                "group.cyclic_orders: cyclic_orders must be a list of positive integers",
            ),
            (group_doc({"classes": 5, "order": 2}), "group.classes: classes must be a list"),
            (group_doc({"classes": [5], "order": 2}), "group.classes[0]: class records are objects"),
            (
                group_doc({"classes": [{"id": "a", "order": 2}], "order": 2, "u_table": [1]}),
                "group.u_table: u_table must map character names to class rows",
            ),
            (
                group_doc({"classes": [{"id": "a", "order": 3}], "order": 2}),
                "group: class a has order 3, not a divisor of the group order 2",
            ),
            (group_doc({}), "group: group needs either 'cyclic_orders' or 'classes'"),
            (group_doc([2]), "group: field 'group' has the wrong type"),
            (equations_doc({"m": 2, "factors": [5]}), "equations[0].factors[0]: factors are objects"),
            (
                equations_doc({"m": 1, "factors": [{"point": [0, 0], "exp": 1}]}),
                "equations[0]: root order must be at least 2, got 1",
            ),
            (
                {**branch_points_doc(), "branch_points": [5]},
                "branch_points[0]: branch points are objects",
            ),
            (branch_points_doc(psi="x"), "branch_points[0].psi: psi must be an exponent list for abelian groups"),
            (
                branch_points_doc(psi=[1, 0]),
                "branch_points[0].psi: element exponent vector has length 2, expected 1",
            ),
        ],
        ids=[
            "bool-rational", "float-rational", "long-coordinate", "object-coordinate", "cyclic-orders",
            "classes-object", "class-record", "u-table-list", "class-order", "group-kind", "group-list",
            "factor-record", "root-order", "branch-point-record", "psi-str", "psi-length",
        ],
    )
    def test_exit_2_naming_the_field(self, tmp_path, capsys, document, message):
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(document))
        code, out, err = run_json(capsys, "genus", str(path))
        assert (code, out) == (EXIT_CODES["config"], None)
        assert err == {"code": "config", "message": message}

    def test_a_malformed_tau_names_the_flag(self, capsys):
        code, out, err = run_json(capsys, "traces", HYPER6, "--tau", "1,x")
        assert (code, out) == (EXIT_CODES["config"], None)
        assert err["code"] == "config" and err["message"].startswith("--tau: ")

    def test_a_coordinate_label_over_a_positive_genus_base_is_its_text(self):
        doc = branch_doc()
        doc["group"] = {"cyclic_orders": [2]}
        doc["branch_points"] = [{"label": ["1/2", 3], "psi": [1]}, {"label": "q", "psi": [1]}]
        cover = parse_config(doc).cover
        assert [bp.label for bp in cover.branch_points] == [str(Coord(Fraction(1, 2), Fraction(3))), "q"]


def run_json(capsys, *argv):
    """main(argv) in JSON format: the exit code, the report and the error."""
    code = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err)["error"] if captured.err else None
    return code, out, err


class TestGenericCharFlag:
    """--char on a generic cover takes every character name a report prints,
    the trivial character "1" included where the u_table omits its row."""

    def test_dims_at_the_trivial_character(self, capsys):
        code, out, _ = run_json(capsys, "dims", S3_DOC, "--char", "1")
        assert code == 0
        assert out["delta_character"] == "1"
        assert out["characters"] == [{"character": "1", "dim": 0}]

    def test_chevalley_weil_at_the_trivial_character(self, capsys):
        code, out, _ = run_json(capsys, "chevalley-weil", S3_DOC, "--char", "1", "--q", "2")
        assert code == 0
        assert out["multiplicities"] == [{"irrep": "1", "dim": 1, "multiplicity": 1}]

    def test_table_name_still_selected(self, capsys):
        code, out, _ = run_json(capsys, "dims", S3_DOC, "--char", "sgn")
        assert code == 0
        assert out["characters"] == [{"character": "sgn", "dim": 1}]

    def test_unknown_name_rejected(self, capsys):
        code, out, err = run_json(capsys, "dims", S3_DOC, "--char", "nope")
        assert code == EXIT_CODES["config"] == 2
        assert out is None
        assert err == {"code": "config", "message": "--char: unknown character 'nope'"}

    def test_trivial_character_conjugate_keeps_its_name(self, capsys):
        # the omega presentation names the conjugate; "~1" would match no --char value
        code, out, _ = run_json(capsys, "omega", S3_DOC, "--char", "1")
        assert code == 0
        assert out["characters"][0]["presentation"] == "(dz)^1 / (h[1])"
        cover = parse_config(Path(S3_DOC).read_text()).cover
        trivial = cover.trivial_character
        assert cover.conjugate_character(trivial) is trivial
        (sgn,) = cover.characters()
        assert cover.conjugate_character(sgn).name == "~sgn"


@pytest.mark.parametrize(
    "command,key,name,value",
    [("dims", "characters", "character", "dim"), ("chevalley-weil", "multiplicities", "irrep", "multiplicity")],
)
def test_plus_one_skips_a_character_trivial_on_the_branch_classes(capsys, tmp_path, command, key, name, value):
    path = tmp_path / "z2z2.json"
    path.write_text(json.dumps(Z2Z2_OVER_ELLIPTIC))
    code, out, _ = run_json(capsys, command, str(path))
    assert code == 0
    assert {row[name]: row[value] for row in out[key]} == {"chi_a": 1, "chi_ab": 1, "chi_b": 0}


class TestNamedIrrepRecords:
    """A one-dimensional irrep-file record named after a class-table
    character, or "1", is that character, so the +1 test knows it."""

    @staticmethod
    def run(capsys, tmp_path, record):
        doc, irreps = tmp_path / "z2z2.json", tmp_path / "irreps.json"
        doc.write_text(json.dumps(Z2Z2_OVER_ELLIPTIC))
        irreps.write_text(json.dumps({"irreps": [record]}))
        return run_json(capsys, "chevalley-weil", str(doc), "--irrep-file", str(irreps))

    @pytest.mark.parametrize("name,multiplicity", [("chi_b", 0), ("1", 1)])
    def test_named_record_is_its_character(self, capsys, tmp_path, name, multiplicity):
        # chi_b and the trivial character have the same row on the branch class a
        code, out, _ = self.run(capsys, tmp_path, {"name": name, "dim": 1, "classes": {"a": [1, 0]}})
        assert code == 0
        assert out["multiplicities"] == [{"irrep": name, "dim": 1, "multiplicity": multiplicity}]
        code, by_char, _ = run_json(capsys, "chevalley-weil", str(tmp_path / "z2z2.json"), "--char", name)
        assert by_char["multiplicities"][0]["multiplicity"] == multiplicity

    def test_row_that_is_not_the_named_character_is_refused(self, capsys, tmp_path):
        code, out, err = self.run(capsys, tmp_path, {"name": "chi_b", "dim": 1, "classes": {"b": [1, 0]}})
        assert code == EXIT_CODES["config"] == 2
        assert out is None
        assert err["message"].startswith(f"{tmp_path / 'irreps.json'}:irreps[0]: ")


# two points of class (1, 0): character (0, 1) has the trivial character's rows
ABELIAN_Z2Z2_OVER_ELLIPTIC = {
    "mode": "branch-data",
    "base_genus": 1,
    "group": {"cyclic_orders": [2, 2]},
    "branch_points": [{"label": "p", "psi": [1, 0]}, {"label": "q", "psi": [1, 0]}],
}


class TestPlusOneRefusals:
    """Over a positive-genus base the CLI exits 10 where the +1 would rest on
    rows that do not decide it: an anonymous one-dimensional irrep record, and
    a u_table row that is zero where it is given but omits a class."""

    ANONYMOUS = (
        "an anonymous table is not matched to the corrected character over a base "
        "of genus 1; set its 'character'"
    )

    @pytest.mark.parametrize(
        "document,classes",
        [
            (Z2Z2_OVER_ELLIPTIC, {"a": [1, 0]}),
            (ABELIAN_Z2Z2_OVER_ELLIPTIC, {"[1, 0]": [1, 0]}),
            (str(CONFIG_DIR / "unramified_g1.json"), {}),
        ],
        ids=["z2z2-over-elliptic", "abelian-z2z2-over-elliptic", "unramified-g1"],
    )
    def test_anonymous_record(self, capsys, tmp_path, document, classes):
        if isinstance(document, dict):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(document))
            document = str(path)
        irreps = tmp_path / "irreps.json"
        irreps.write_text(json.dumps({"irreps": [{"dim": 1, "classes": classes}]}))
        code, out, err = run_json(capsys, "chevalley-weil", document, "--irrep-file", str(irreps))
        assert code == EXIT_CODES["n-table-mismatch"] == 10
        assert out is None
        assert err == {"code": "n-table-mismatch", "message": self.ANONYMOUS}

    @pytest.mark.parametrize("command", ["dims", "chevalley-weil", "all"])
    def test_partial_u_table_row(self, capsys, tmp_path, command):
        doc = json.loads(json.dumps(Z2Z2_OVER_ELLIPTIC))
        doc["group"]["u_table"]["chi_b"] = {"a": 0}
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_json(capsys, command, str(path))
        assert code == EXIT_CODES["n-table-mismatch"] == 10
        assert out is None
        assert err["message"] == (
            "character chi_b gives no value on class 'b'; triviality is not inferred "
            "from a partial row over a base of genus 1"
        )


Z2_OVER_ELLIPTIC = {
    "mode": "branch-data",
    "base_genus": 1,
    "group": {"cyclic_orders": [2]},
    "branch_points": [{"label": "p", "psi": [1]}, {"label": "q", "psi": [1]}],
}


class TestNamedAbelianRecords:
    """An irrep record on an abelian cover names its character by exponents,
    as --char does: a named record decides the +1 where its rows cannot, and
    each row it gives must be that character's."""

    @staticmethod
    def chevalley_weil(capsys, tmp_path, document, record, *flags):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(document))
        irreps = tmp_path / "irreps.json"
        irreps.write_text(json.dumps({"irreps": [record]}))
        return run_json(capsys, "chevalley-weil", str(doc), "--irrep-file", str(irreps), *flags), str(irreps)

    def char_flag_multiplicity(self, capsys, tmp_path, document, char, q):
        path = tmp_path / "char.json"
        path.write_text(json.dumps(document))
        code, out, _ = run_json(capsys, "chevalley-weil", str(path), "--char", char, "--q", str(q))
        assert code == 0
        return out["multiplicities"][0]["multiplicity"]

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize(
        "document,classes,exponents",
        [
            (Z2_OVER_ELLIPTIC, {"[1]": [1, 0]}, [0]),
            (Z2_OVER_ELLIPTIC, {"[1]": [0, 1]}, [1]),
            (Z2_OVER_ELLIPTIC, {"[1]": [0, 1]}, [3]),
            (ABELIAN_Z2Z2_OVER_ELLIPTIC, {"[1, 0]": [1, 0]}, [0, 0]),
            (ABELIAN_Z2Z2_OVER_ELLIPTIC, {"[1, 0]": [1, 0]}, [0, 1]),
        ],
        ids=["z2-trivial", "z2-sign", "z2-reduced", "z2z2-trivial", "z2z2-trivial-on-the-branch-class"],
    )
    def test_named_record_answers_as_the_char_flag(self, capsys, tmp_path, document, classes, exponents, q):
        record = {"name": "w", "dim": 1, "character": exponents, "classes": classes}
        (code, out, _), _ = self.chevalley_weil(capsys, tmp_path, document, record, "--q", str(q))
        assert code == 0
        [row] = out["multiplicities"]
        char = ",".join(map(str, exponents))
        assert row == {"irrep": "w", "dim": 1, "multiplicity": self.char_flag_multiplicity(
            capsys, tmp_path, document, char, q)}

    def test_named_trivial_record_gets_the_plus_one(self, capsys, tmp_path):
        record = {"dim": 1, "character": [0], "classes": {"[1]": [1, 0]}}
        (code, out, _), _ = self.chevalley_weil(capsys, tmp_path, Z2_OVER_ELLIPTIC, record)
        assert code == 0 and out["multiplicities"][0]["multiplicity"] == 1

    def test_anonymous_record_still_refused(self, capsys, tmp_path):
        record = {"dim": 1, "classes": {"[1]": [1, 0]}}
        (code, _, err), _ = self.chevalley_weil(capsys, tmp_path, Z2_OVER_ELLIPTIC, record)
        assert code == EXIT_CODES["n-table-mismatch"] == 10
        assert err["message"] == TestPlusOneRefusals.ANONYMOUS

    @pytest.mark.parametrize(
        "record,message",
        [
            ({"dim": 1, "character": [1], "classes": {"[1]": [1, 0]}},
             "row for class [1] is not that of character chi(1)"),
            ({"dim": 1, "character": [0], "classes": {"[1]": [0, 1]}},
             "row for class [1] is not that of character chi(0)"),
            ({"dim": 1, "character": [0, 1], "classes": {}},
             "character exponent vector has length 2, expected 1"),
            ({"dim": 1, "character": "0", "classes": {}},
             "'character' is the exponent list of a record of dimension 1"),
            ({"dim": 1, "character": [True], "classes": {}},
             "'character' is the exponent list of a record of dimension 1"),
            ({"dim": 1, "character": [0.5], "classes": {}},
             "'character' is the exponent list of a record of dimension 1"),
            ({"dim": 2, "character": [0], "classes": {"[1]": [2, 0]}},
             "'character' is the exponent list of a record of dimension 1"),
        ],
        ids=["other-character", "other-row", "wrong-length", "string", "bool", "float", "dimension-2"],
    )
    def test_bad_named_record_exits_2_at_the_record(self, capsys, tmp_path, record, message):
        (code, out, err), irreps = self.chevalley_weil(capsys, tmp_path, Z2_OVER_ELLIPTIC, record)
        assert code == EXIT_CODES["config"] == 2
        assert out is None
        assert err == {"code": "config", "message": f"{irreps}:irreps[0]: {message}"}


class TestErrorPaths:
    """Exit codes of inputs the CLI refuses before any computation."""

    @pytest.mark.parametrize(
        "text",
        [
            None,  # no such file
            "{not json",
            "[]",
            json.dumps({"irreps": {}}),
            json.dumps({"irreps": [5]}),
            json.dumps({"irreps": [{"dim": 1, "classes": {"[7]": [1, 0]}}]}),
            json.dumps({"irreps": [{"dim": 1, "classes": {"[oops": [1, 0]}}]}),
        ],
        ids=["missing", "not-json", "list", "irreps-not-list", "record-not-object", "unknown-key", "bad-key"],
    )
    def test_bad_irrep_file(self, tmp_path, capsys, text):
        path = tmp_path / "irreps.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run_json(capsys, "chevalley-weil", HYPER6, "--irrep-file", str(path))
        assert code == EXIT_CODES["config"] == 2
        assert out is None
        assert err["code"] == "config"
        assert str(path) in err["message"]

    @pytest.mark.parametrize(
        "config, classes, problem",
        [
            (S3_DOC, {"t": [1, 0], "zz": [1]}, "unknown class 'zz'"),
            (HYPER6, {"[1]": [1, 0], "x": [1]}, "unknown class 'x'"),
            (HYPER6, {"[1]": [1, 0], "[1] ": [0, 1]}, "class '[1] ' is named twice"),
        ],
        ids=["generic-unknown", "abelian-non-bracket", "abelian-twice"],
    )
    def test_irrep_keys_name_each_class_once(self, tmp_path, capsys, config, classes, problem):
        path = tmp_path / "irreps.json"
        path.write_text(json.dumps({"irreps": [{"dim": 1, "classes": classes}]}))
        code, out, err = run_json(capsys, "chevalley-weil", config, "--q", "2", "--irrep-file", str(path))
        assert code == EXIT_CODES["config"] == 2
        assert out is None
        assert err == {"code": "config", "message": f"{path}:irreps[0]: {problem}"}

    def test_unreadable_config(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        code, out, err = run_json(capsys, "genus", path)
        assert code == EXIT_CODES["config"] == 2
        assert out is None
        assert err["code"] == "config"
        assert path in err["message"]

    def test_traces_on_a_generic_group(self, capsys):
        code, out, err = run_json(capsys, "traces", S3_DOC)
        assert code == EXIT_CODES["not-abelian"] == 7
        assert out is None
        assert err["code"] == "not-abelian"


class TestValidatesOnce:
    """main validates the cover once; the family counts and streams decide
    validity in their u-table walk and validate only above the cap."""

    def validations(self, monkeypatch, capsys, *argv):
        calls = []
        validate = CoverSpec.validate

        def counted(cover):
            calls.append(cover)
            return validate(cover)

        monkeypatch.setattr(CoverSpec, "validate", counted)
        code, _, _ = run_json(capsys, *argv)
        assert code == 0
        return len(calls)

    def test_all_on_an_abelian_cover(self, monkeypatch, capsys):
        # once in main; count_by_cardinality's two calls check validity in their walk
        assert self.validations(monkeypatch, capsys, "all", HYPER6) == 1

    def test_all_on_a_generic_cover(self, monkeypatch, capsys):
        assert self.validations(monkeypatch, capsys, "all", S3_DOC, "--q", "2") == 1

    @pytest.mark.parametrize(
        "command",
        [c for c in COMMANDS if c not in ("validate", "all", "nonspecial", "degree-gm1")],
    )
    def test_other_commands(self, monkeypatch, capsys, command):
        assert self.validations(monkeypatch, capsys, command, HYPER6) == 1


def test_family_table_holds_the_public_functions():
    # the table holds names, looked up on galcov.enumeration when a command runs
    resolved = {
        command: (family, getattr(enumeration, listing), getattr(enumeration, stream))
        for command, (family, listing, stream) in FAMILIES.items()
    }
    assert resolved == {
        "nonspecial": ("integral", enumerate_nonspecial_integral, iter_nonspecial_integral),
        "degree-gm1": ("gm1", enumerate_degree_gm1, iter_degree_gm1),
    }
    cover = hyperelliptic(6)
    for family, listing, stream in resolved.values():
        assert count_by_cardinality(cover, family) == len(listing(cover)) == sum(1 for _ in stream(cover))
