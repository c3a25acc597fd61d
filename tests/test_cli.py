import json

import numpy as np
import pytest

from polycrit.cli import main, parse_complex, parse_grid, parse_range
from polycrit.jsonio import poly_from_obj, poly_to_obj, read_poly, write_poly
from polycrit.poly import Polynomial


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    # suite prints PASS/FAIL lines before the report; the report is last
    payload = out.strip().splitlines()[-1]
    return code, json.loads(payload)


@pytest.fixture
def quartic_file(tmp_path):
    path = tmp_path / "z4.json"
    write_poly(path, Polynomial((0.0, 1.0, 0.0, 0.0, 1.0)))
    return str(path)


class TestParsers:
    def test_complex_forms(self):
        assert parse_complex("1.5") == 1.5
        assert parse_complex("0.3,0.2") == complex(0.3, 0.2)
        assert parse_complex("1+2j") == complex(1, 2)
        assert parse_complex("1+2i") == complex(1, 2)

    def test_grid(self):
        assert parse_grid("1e-3:3") == [1e-3, 2e-3, 3e-3]
        assert parse_grid("0.1,0.2") == [0.1, 0.2]

    def test_range(self):
        assert parse_range("5..8") == [5, 6, 7, 8]
        assert parse_range("4") == [4]


class TestJsonSchema:
    def test_round_trip_both_reprs(self):
        p = Polynomial.from_roots([0.5, -0.5, 0.3j])
        for kind in ("coeffs", "roots"):
            obj = poly_to_obj(p, kind)
            assert obj["repr"] == kind
            assert obj["data"] == obj[kind]
            q = poly_from_obj(obj)
            assert np.abs(np.array(q.monic().coeffs) - np.array(p.coeffs)).max() <= 1e-9

    def test_writers_emit_both(self, tmp_path):
        path = tmp_path / "p.json"
        write_poly(path, Polynomial((-1.0, 0.0, 1.0)), repr_kind="roots")
        obj = json.loads(path.read_text())
        assert "roots" in obj and "coeffs" in obj
        q = read_poly(path)
        assert q.degree == 2

    def test_bad_repr_rejected(self):
        with pytest.raises(ValueError, match="repr"):
            poly_from_obj({"repr": "monomial", "data": []})


class TestCommands:
    def test_metrics_d(self, capsys, quartic_file):
        code, rep = run(capsys, ["metrics", "d", quartic_file])
        assert code == 0
        assert abs(rep["outputs"]["value"] - (1 / 4) ** (1 / 3)) <= 1e-10
        assert rep["outputs"]["worst_zero"] == [0.0, 0.0]

    def test_metrics_delta(self, capsys, tmp_path, quartic_file):
        other = tmp_path / "q.json"
        write_poly(other, Polynomial((0.0, -1.0, 0.0, 0.0, 1.0)))
        code, rep = run(capsys, ["metrics", "delta", quartic_file, str(other)])
        assert code == 0
        assert rep["outputs"]["value"] > 0

    def test_metrics_smale(self, capsys, quartic_file):
        code, rep = run(capsys, ["metrics", "smale", quartic_file])
        assert code == 0
        assert rep["checks"][0]["pass"]

    def test_varfirst_extensible(self, capsys, quartic_file):
        code, rep = run(capsys, ["varfirst", "extensible", quartic_file, "--zero", "0"])
        assert code == 0
        assert rep["outputs"]["verdict"] == "PositivelySingular"
        assert np.allclose(rep["outputs"]["witness_mu"], [1 / 3] * 3, atol=1e-8)

    def test_varfirst_matrices(self, capsys, quartic_file):
        code, rep = run(
            capsys, ["varfirst", "matrices", quartic_file, "--zero", "0", "--emit", "A,B,C,D"]
        )
        assert code == 0
        out = rep["outputs"]
        assert out["r"] == 3
        assert out["matrices"]["B"]["shape"] == [3, 4]
        assert out["matrices"]["C"]["shape"] == [3, 3]

    def test_varsecond_fit(self, capsys):
        code, rep = run(capsys, ["varsecond", "fit", "--family", "deg5", "--grid", "1e-3:8"])
        assert code == 0
        assert abs(rep["outputs"]["c2"] - 5.6657) <= 0.01

    def test_varsecond_prop112(self, capsys):
        code, rep = run(capsys, ["varsecond", "prop112", "--n", "4..6", "--eps1", "1e-3"])
        assert code == 0
        assert all(row["holds"] for row in rep["outputs"]["rows"])

    def test_varsecond_prop113(self, capsys):
        code, rep = run(capsys, ["varsecond", "prop113", "--n", "5..20"])
        assert code == 0
        assert rep["checks"][0]["pass"]

    def test_zeromax_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "zm.json"
        code, rep = run(
            capsys,
            ["zeromax", "construct", "--n", "5", "--theta", "0.3", "--lambda", "1.0", "--out", str(out)],
        )
        assert code == 0
        code, rep = run(capsys, ["zeromax", "verify", str(out)])
        assert code == 0
        assert rep["outputs"]["is_0maximal"]
        assert all(c["pass"] for c in rep["checks"])

    def test_zeromax_verify_failure_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        write_poly(bad, Polynomial((0.0, 0.5, 0.0, 0.0, 1.0)))
        code, rep = run(capsys, ["zeromax", "verify", str(bad)])
        assert code == 1
        assert not rep["outputs"]["is_0maximal"]

    def test_normal_compress(self, capsys, quartic_file):
        code, rep = run(capsys, ["normal", "compress", quartic_file, "--index", "1"])
        assert code == 0
        sub = [complex(re, im) for re, im in rep["outputs"]["eig_sub"]]
        assert np.abs(np.abs(np.array(sub)) - (1 / 4) ** (1 / 3)).max() <= 1e-8

    def test_normal_svar_random_mode(self, capsys):
        code, rep = run(capsys, ["normal", "svar", "--n", "4", "--trials", "25", "--seed", "9"])
        assert code == 0
        assert rep["outputs"]["trials"] == 25
        assert rep["checks"][0]["pass"]

    def test_normal_svar_single_polynomial(self, capsys, quartic_file):
        code, rep = run(capsys, ["normal", "svar", quartic_file])
        assert code == 0
        assert rep["outputs"]["trials"] == 1
        assert rep["outputs"]["max_excess"] <= 1e-9

    def test_reports_stable_modulo_duration(self, capsys, quartic_file):
        _, rep1 = run(capsys, ["metrics", "d", quartic_file])
        _, rep2 = run(capsys, ["metrics", "d", quartic_file])
        rep1.pop("duration_ms")
        rep2.pop("duration_ms")
        assert rep1 == rep2

    def test_normal_glweights(self, capsys, quartic_file):
        code, rep = run(
            capsys, ["normal", "glweights", quartic_file, "--index", "0", "--probes", "2,0;1.5,1.5"]
        )
        assert code == 0
        assert np.allclose(rep["outputs"]["weights"], [0.25] * 4, atol=1e-10)

    def test_normal_interlace(self, capsys, quartic_file):
        code, rep = run(capsys, ["normal", "interlace", quartic_file])
        assert code == 0
        assert min(rep["outputs"]["ratios"]) >= -1e-8

    def test_major_check_and_dbs(self, capsys, quartic_file):
        code, rep = run(capsys, ["major", "check", quartic_file, "--alpha", "0", "--k", "2"])
        assert code == 0
        assert rep["outputs"]["feasible"]
        code, rep = run(capsys, ["major", "dbs", quartic_file, "--f", "abs"])
        assert code == 0
        assert rep["checks"][0]["pass"]

    def test_gen_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _ = run(
                capsys,
                ["gen", "--kind", "random_Sn", "--n", "5", "--count", "3", "--out", str(out), "--seed", "7"],
            )
            assert code == 0
        for name in ("random_S5_000.json", "random_S5_001.json", "random_S5_002.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_gen_other_kinds(self, capsys, tmp_path):
        code, rep = run(
            capsys,
            ["gen", "--kind", "zero_maximal", "--n", "7", "--count", "4", "--lambda", "0.5", "--out", str(tmp_path / "zm")],
        )
        assert code == 0 and len(rep["outputs"]["files"]) == 4
        code, rep = run(
            capsys, ["gen", "--kind", "deg4_family", "--grid", "1e-3:4", "--out", str(tmp_path / "d4")]
        )
        assert code == 0 and len(rep["outputs"]["files"]) == 4
        code, rep = run(
            capsys, ["gen", "--kind", "roots_grid", "--n", "6", "--count", "3", "--out", str(tmp_path / "rg")]
        )
        assert code == 0 and len(rep["outputs"]["files"]) == 3

    def test_report_shape(self, capsys, quartic_file):
        code, rep = run(capsys, ["metrics", "d", quartic_file])
        for key in ("command", "inputs", "outputs", "checks", "seed", "duration_ms"):
            assert key in rep


class TestSignedValues:
    """A complex option value with a leading minus parses the same spaced
    as attached with '='."""

    @pytest.mark.parametrize(
        "cmd, option, value",
        [
            (["major", "check"], "--alpha", "-0.5,0.1"),
            (["varfirst", "extensible"], "--zero", "-1,0"),
            (["varfirst", "matrices"], "--zero", "-1,0"),
            (["normal", "glweights"], "--probes", "-2,0;1.5,1.5"),
        ],
    )
    def test_spaced_equals_attached(self, capsys, quartic_file, cmd, option, value):
        code1, rep1 = run(capsys, cmd + [quartic_file, option, value])
        code2, rep2 = run(capsys, cmd + [quartic_file, f"{option}={value}"])
        assert code1 == code2 == 0
        assert rep1["inputs"][option[2:]] == value
        rep1.pop("duration_ms")
        rep2.pop("duration_ms")
        assert rep1 == rep2

    def test_option_is_not_swallowed_as_value(self, capsys, quartic_file):
        assert main(["varfirst", "matrices", quartic_file, "--zero", "--emit", "A"]) == 2


class TestErrorPaths:
    def test_missing_file_is_exit_two(self, capsys):
        code = main(["metrics", "d", "nope.json"])
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().out)

    def test_unknown_subcommand_is_exit_two(self, capsys):
        assert main(["bogus"]) == 2

    def test_malformed_json_is_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["metrics", "d", str(bad)]) == 2

    def test_unknown_matrix_name(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        write_poly(path, Polynomial((0.0, -1.0, 0.0, 0.0, 1.0)))
        assert main(["varfirst", "matrices", str(path), "--zero", "0", "--emit", "Q"]) == 2

    def test_solver_failure_is_exit_two(self, capsys, monkeypatch, quartic_file):
        def boom(p):
            raise RuntimeError("iteration budget exhausted")

        monkeypatch.setattr("polycrit.cli.metrics.directed_hausdorff", boom)
        assert main(["metrics", "d", quartic_file]) == 2
        assert "iteration budget" in json.loads(capsys.readouterr().out)["error"]
