import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polycrit
from polycrit import lp, majorization, maximal_zero, normal_ops, variation_first
from polycrit.cli import main, parse_complex, parse_grid, parse_range
from polycrit.jsonio import poly_from_obj, poly_to_obj, read_poly, unpairs, write_poly
from polycrit.metrics import bottleneck_assignment
from polycrit.poly import Polynomial, disk_points


def run(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


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
        assert parse_complex("2i") == 2j

    def test_complex_rewrites_only_a_trailing_unit(self):
        assert parse_complex("inf") == complex(np.inf, 0.0)
        assert parse_complex("-infi") == complex(0.0, -np.inf)
        z = parse_complex("-inf,nan")
        assert z.real == -np.inf and np.isnan(z.imag)
        assert np.isnan(parse_complex("nan").real)

    @pytest.mark.parametrize("text", ["abc", "1,2,3", "1+2k", ""])
    def test_malformed_complex_quotes_its_text(self, text):
        with pytest.raises(ValueError, match=re.escape(f"malformed complex number {text!r}")):
            parse_complex(text)

    def test_grid(self):
        assert parse_grid("1e-3:3") == [1e-3, 2e-3, 3e-3]
        assert parse_grid("0.1,0.2") == [0.1, 0.2]

    def test_range(self):
        assert parse_range("5..8") == [5, 6, 7, 8]
        assert parse_range("5..5") == [5]
        assert parse_range("4") == [4]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty range"):
            parse_range("50..5")


class TestJsonSchema:
    def test_round_trip_both_reprs(self):
        p = Polynomial.from_roots([0.5, -0.5, 0.3j])
        for kind in ("coeffs", "roots"):
            obj = poly_to_obj(p, kind)
            assert obj["repr"] == kind
            assert obj["data"] == obj[kind]
            q = poly_from_obj(obj)
            assert np.abs(np.array(q.scaled(1.0 / q.coeffs[-1]).coeffs) - np.array(p.coeffs)).max() <= 1e-9

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
    @pytest.mark.parametrize("quiet", [False, True])
    def test_suite_stdout_is_one_report(self, capsys, monkeypatch, quiet):
        from polycrit import suite

        monkeypatch.setattr(suite, "ALL_CRITERIA", [suite.criterion_03_a_nonsingular, suite.criterion_04_second_order_fit])
        code = main(["suite", "sendov-desk"] + (["--quiet"] if quiet else []))
        captured = capsys.readouterr()
        rep = json.loads(captured.out)  # the whole of stdout, PASS/FAIL lines excluded
        assert code == 1 and rep["outputs"] == {"passed": 3, "total": 4}
        lines = captured.err.splitlines()
        assert lines == [] if quiet else [ln.split()[0] for ln in lines] == ["PASS", "PASS", "FAIL", "PASS"]

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

    @pytest.mark.parametrize(
        "roots,gate", [([0, 0.5, -0.5j, 0.3 + 0.4j, -0.6 + 0.1j], lp.MARGIN_TOL), (None, lp.FEAS_TOL)],
        ids=["strict", "singular"],
    )
    def test_varfirst_extensible_check_reads_the_relative_gate(self, capsys, tmp_path, quartic_file, roots, gate):
        # the check's tolerance is the gate the certificate met, relative to max|B_ij|
        path = quartic_file
        if roots is not None:
            path = str(tmp_path / "p.json")
            write_poly(path, Polynomial.from_roots(roots))
        code, rep = run(capsys, ["varfirst", "extensible", path, "--zero", "0"])
        B = variation_first.bmatrix(variation_first.setup(read_poly(path), 0.0))
        check = rep["checks"][0]
        assert code == 0 and check["name"] == "certificate-margin" and check["pass"]
        assert check["tolerance"] == gate * np.abs(B).max() != gate
        assert check["value"] == rep["outputs"]["margin"]

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

    @pytest.mark.parametrize("n, trials, seed", [(6, 200, 0), (4, 25, 9), (5, 100, 0), (12, 300, 3)])
    def test_normal_svar_is_one_stack(self, capsys, monkeypatch, n, trials, seed):
        # the per-trial loop the stacked command replaced
        rng = np.random.default_rng(seed)
        worst = -np.inf
        for _ in range(trials):
            roots = Polynomial.from_roots(disk_points(rng, n)).find_roots().as_array()
            pair = normal_ops.compression_spectrum(normal_ops.normal_from_roots(roots), 0)
            s = normal_ops.spectral_variation(pair.eig_full, pair.eig_sub)
            worst = max(worst, s - float(np.abs(roots).max()))
        calls = []
        spectra = normal_ops.compression_spectra
        monkeypatch.setattr(normal_ops, "compression_spectra", lambda *a: calls.append(a) or spectra(*a))
        code, rep = run(capsys, ["normal", "svar", "--n", str(n), "--trials", str(trials), "--seed", str(seed)])
        assert code == 0 and repr(rep["outputs"]["max_excess"]) == repr(worst)
        assert len(calls) == 1 and calls[0][0].entries.shape == (trials, n, n)

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

    def test_major_check_is_scale_free(self, capsys, tmp_path):
        # products of three zeros of size 1e3 are 1e9 beside the unit
        # entries of the sum rows; the certificate's rule is CERT_TOL
        path = tmp_path / "p6.json"
        write_poly(path, Polynomial.from_roots(1e3 * disk_points(np.random.default_rng(0), 6)))
        code, rep = run(capsys, ["major", "check", str(path), "--k", "3"])
        assert code == 0 and rep["outputs"]["feasible"]
        check = rep["checks"][0]
        assert check["name"] == "certificate-residuals" and check["pass"]
        assert check["tolerance"] == majorization.CERT_TOL

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

    def test_gen_random_sn_roots_are_disk_points_draws(self, capsys, tmp_path):
        code, rep = run(
            capsys,
            ["gen", "--kind", "random_Sn", "--n", "6", "--count", "4", "--out", str(tmp_path), "--seed", "11"],
        )
        assert code == 0 and len(rep["outputs"]["files"]) == 4
        rng = np.random.default_rng(11)
        for path in rep["outputs"]["files"]:
            draw = disk_points(rng, 6)
            obj = json.loads(Path(path).read_text())
            assert obj == poly_to_obj(Polynomial.from_roots(draw), "roots")
            assert bottleneck_assignment(unpairs(obj["roots"]), draw)[0] <= 1e-12

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

    @pytest.mark.parametrize("tol", ["-1e-300", "-1E-3", "-inf", "-nan"])
    @pytest.mark.parametrize("before", [True, False])
    def test_signed_tolerance_reaches_the_check(self, capsys, quartic_file, tol, before):
        # argparse alone reads -1e-300 or -inf as an unknown option and
        # prints usage to stderr, leaving stdout without a JSON object
        cmd = ["zeromax", "verify", quartic_file]
        assert main(["--tol", tol] + cmd if before else cmd + ["--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "--tol must be finite and nonnegative" in json.loads(captured.out)["error"]
        assert captured.err == ""

    @pytest.mark.parametrize(
        "argv, option, value",
        [
            (["varsecond", "prop112", "--n", "5"], "--eps1", "-1e-3"),
            (["zeromax", "construct", "--n", "4"], "--theta", "-1e-1"),
        ],
    )
    def test_signed_exponent_value_runs(self, capsys, argv, option, value):
        code1, rep1 = run(capsys, argv + [option, value])
        code2, rep2 = run(capsys, argv + [f"{option}={value}"])
        assert code1 == code2 == 0
        assert rep1["inputs"][option[2:]] == str(float(value))
        rep1.pop("duration_ms")
        rep2.pop("duration_ms")
        assert rep1 == rep2


class TestStrictJson:
    """Reports are RFC 8259 JSON: a non-finite value is an input-error
    exit that names its key path, never a bare NaN or Infinity."""

    @pytest.mark.parametrize("where, path", [("outputs", "outputs.radius"), ("checks", "checks[0].value")])
    def test_non_finite_value_exits_2_naming_its_path(self, capsys, monkeypatch, quartic_file, where, path):
        def handler(args, rep, tol):
            if where == "outputs":
                rep.outputs = {"radius": float("nan"), "zeros": [[0.0, 1.0]]}
            else:
                rep.check("radius-deviation", True, float("inf"), tol)

        monkeypatch.setitem(polycrit.cli._DISPATCH, "zeromax", handler)
        code = main(["zeromax", "verify", quartic_file])

        def bare(token):
            raise AssertionError(f"stdout holds a bare {token}")

        out = capsys.readouterr().out
        assert code == 2
        error = f"report value {path} is not finite"
        assert json.loads(out, parse_constant=bare) == {"command": "zeromax", "error": error}


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

        monkeypatch.setattr("polycrit.metrics.directed_hausdorff", boom)
        assert main(["metrics", "d", quartic_file]) == 2
        assert "iteration budget" in json.loads(capsys.readouterr().out)["error"]

    def test_non_finite_coefficient_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"repr": "coeffs", "data": [[1, 0], [NaN, 0], [1, 0]]}')
        assert main(["metrics", "d", str(path)]) == 2
        captured = capsys.readouterr()
        assert "coefficient 1 is not finite" in json.loads(captured.out)["error"]
        assert captured.err == ""  # rejected before any root finding

    @pytest.mark.parametrize("probes", ["nan", "2,0;nan"])
    def test_non_finite_probe_is_exit_two(self, capsys, quartic_file, probes):
        assert main(["normal", "glweights", quartic_file, "--probes", probes]) == 2
        assert "is not finite" in json.loads(capsys.readouterr().out)["error"]

    def test_infinite_probe_is_named(self, capsys, quartic_file):
        assert main(["normal", "glweights", quartic_file, "--probes", "2,0;inf"]) == 2
        assert "probe 1 is not finite: (inf+0j)" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("op, alpha", [("dbs", "nan"), ("check", "inf"), ("check", "-inf,0")])
    def test_non_finite_alpha_is_named(self, capsys, quartic_file, op, alpha):
        assert main(["major", op, quartic_file, "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == f"alpha is not finite: {parse_complex(alpha)}"
        assert captured.err == ""

    def test_malformed_complex_option_quotes_its_text(self, capsys, quartic_file):
        assert main(["major", "check", quartic_file, "--alpha", "abc"]) == 2
        assert "'abc'" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize(
        "argv, option, text",
        [
            (["varsecond", "fit", "--family", "deg4", "--grid", "abc"], "--grid", "abc"),
            (["varsecond", "fit", "--family", "deg4", "--grid", "1e-3:x"], "--grid", "1e-3:x"),
            (["gen", "--kind", "deg4_family", "--grid", "1e-3:2:3", "--out", "{tmp}"], "--grid", "1e-3:2:3"),
            (["varsecond", "prop113", "--n", "5..x"], "--n", "5..x"),
            (["varsecond", "prop112", "--n", "six"], "--n", "six"),
            (["varfirst", "extensible", "{p}", "--zero", "1+2k"], "--zero", "1+2k"),
            (["normal", "glweights", "{p}", "--probes", "2,0;x"], "--probes", "x"),
            (["major", "dbs", "{p}", "--alpha", "abc"], "--alpha", "abc"),
        ],
        ids=["fit-grid", "fit-grid-count", "gen-grid", "range", "degree", "zero", "probes", "alpha"],
    )
    def test_parse_error_names_its_option(self, capsys, tmp_path, quartic_file, argv, option, text):
        assert main([a.format(p=quartic_file, tmp=tmp_path) for a in argv]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error.startswith(f"{option}: ") and repr(text) in error

    @pytest.mark.parametrize(
        "argv, option, value, text",
        [
            (["varsecond", "prop113", "--n", "4..6"], "--n", "got 4", "'4..6'"),
            (["varsecond", "prop113", "--n", "3"], "--n", "got 3", "'3'"),
            (["varsecond", "prop112", "--n", "3..5"], "--n", "got 3", "'3..5'"),
            (["varsecond", "prop112", "--n", "4", "--eps1", "0.1"], "--eps1", "0.01", "0.1"),
            (["varsecond", "prop112", "--n", "4", "--eps1", "-0.5"], "--eps1", "0.01", "-0.5"),
            (["varsecond", "prop112", "--n", "4", "--eps1", "nan"], "--eps1", "0.01", "nan"),
        ],
        ids=["prop113-range", "prop113-degree", "prop112-range", "eps1", "eps1-negative", "eps1-nan"],
    )
    def test_range_error_names_its_option(self, capsys, argv, option, value, text):
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error.startswith(f"{option}: ") and value in error and error.endswith(text)

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "-0.5"])
    @pytest.mark.parametrize("before", [True, False])
    def test_bad_tolerance_is_exit_two(self, capsys, quartic_file, tol, before):
        # a non-finite or negative tolerance would pass or fail every check
        # whatever the input
        cmd = ["zeromax", "verify", quartic_file]
        assert main(["--tol", tol] + cmd if before else cmd + ["--tol", tol]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert "--tol" in error and error.endswith(str(float(tol)))

    def test_zero_tolerance_is_accepted(self, capsys, quartic_file):
        code, rep = run(capsys, ["--tol", "0", "zeromax", "verify", quartic_file])
        assert code in (0, 1) and all(c["tolerance"] == 0.0 for c in rep["checks"])

    @pytest.mark.parametrize("grid", ["0,0,0,0", "1e-3,1e-3,1e-3,1e-3"])
    def test_degenerate_fit_grid_is_exit_two(self, capsys, grid):
        assert main(["varsecond", "fit", "--family", "deg4", "--grid", grid]) == 2
        assert "degenerate grid" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["varsecond", "prop113", "--n", "50..5"], "empty range"),
            (["varsecond", "prop112", "--n", "6..4"], "empty range"),
            (["normal", "svar", "--n", "4", "--trials", "0"], "--trials"),
        ],
    )
    def test_empty_sweep_is_exit_two(self, capsys, argv, message):
        # a sweep over nothing would report a max of -inf (not JSON) and pass
        assert main(argv) == 2
        assert message in json.loads(capsys.readouterr().out)["error"]


class TestStartup:
    @staticmethod
    def _loaded(code: str, prefixes=("scipy.sparse", "scipy.optimize")) -> list[str]:
        src = str(Path(polycrit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code += f"; print([m for m in sys.modules if m.startswith({tuple(prefixes)!r})])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return ast.literal_eval(out.stdout.strip().splitlines()[-1])

    def test_cli_import_leaves_sparse_and_optimize_unloaded(self):
        # every CLI command is a cold process; scipy.linalg (the Schur
        # form, dgelsy) is imported inside the functions that need it, and
        # nothing imports scipy.sparse or scipy.optimize
        assert self._loaded("import sys, polycrit.cli", ("scipy.sparse", "scipy.optimize", "scipy.linalg")) == []

    def test_cli_import_leaves_layer_modules_unloaded(self):
        # each subcommand handler imports the layer modules it runs
        layers = ("suite", "normal_ops", "majorization", "maximal_zero", "variation_first", "variation_second")
        prefixes = tuple(f"polycrit.{m}" for m in layers) + ("numpy.polynomial",)
        assert self._loaded("import sys, polycrit.cli", prefixes) == []

    @pytest.mark.parametrize(
        "argv,layers",
        [
            (["metrics", "d", "{p}"], ()),
            (["metrics", "delta", "{p}", "{q}"], ()),
            (["varfirst", "extensible", "{p}", "--zero", "0.5"], ("variation_first",)),
            (["zeromax", "verify", "{z}"], ("maximal_zero",)),
            (["major", "check", "{p}", "--k", "2"], ("majorization",)),
            (["normal", "compress", "{p}", "--index", "1"], ("normal_ops",)),
            (["varsecond", "fit", "--family", "deg4", "--grid", "1e-3:8"], ("variation_second",)),
        ],
    )
    def test_subcommand_loads_only_its_layers(self, tmp_path, argv, layers):
        # cli, jsonio and poly, plus metrics and lp from the package __init__
        roots = [0.5, -0.3 + 0.4j, 0.1j, -0.6, 0.2 - 0.5j]
        files = {"p": Polynomial.from_roots(roots), "q": Polynomial.from_roots([0.51] + roots[1:])}
        files["z"] = maximal_zero.construct(maximal_zero.ZeroMaximalSpec(n=5))
        paths = {}
        for key, poly in files.items():
            paths[key] = str(tmp_path / f"{key}.json")
            write_poly(paths[key], poly)
        argv = [a.format(**paths) for a in argv]
        loaded = self._loaded(f"import sys; from polycrit.cli import main; assert main({argv!r}) == 0", ("polycrit.",))
        base = {"cli", "jsonio", "poly", "metrics", "lp"}
        assert set(loaded) == {f"polycrit.{m}" for m in base.union(layers)}

    def test_matching_and_fit_commands_load_no_scipy(self, tmp_path):
        # Delta's bottleneck matching runs on numpy alone; these commands
        # need no Schur form and no LP, so they never pay for scipy
        p, q = str(tmp_path / "p.json"), str(tmp_path / "q.json")
        roots = [0.5, -0.3 + 0.4j, 0.1j, -0.6, 0.2 - 0.5j, 0.7j, -0.1 - 0.2j]
        write_poly(p, Polynomial.from_roots(roots))
        write_poly(q, Polynomial.from_roots([0.51] + roots[1:]))
        z = str(tmp_path / "z.json")
        write_poly(z, maximal_zero.construct(maximal_zero.ZeroMaximalSpec(n=5)))
        commands = [
            ["metrics", "d", p],
            ["metrics", "delta", p, q],
            ["zeromax", "verify", z],
            ["varsecond", "fit", "--family", "deg4", "--grid", "1e-3:8"],
        ]
        code = f"import sys; from polycrit.cli import main; assert all(main(a) == 0 for a in {commands!r})"
        assert self._loaded(code, ("scipy",)) == []

    def test_package_import_leaves_scipy_unloaded(self):
        # a cold scipy.linalg import costs 240-330 ms on a 2-vCPU VM; the
        # library functions that need scipy import it themselves
        assert self._loaded("import sys, polycrit, polycrit.jsonio, polycrit.maximal_zero", ("scipy",)) == []

    def test_layer_imports_leave_scipy_unloaded(self):
        # lp binds dgelsy and normal_ops takes zgees on first use; a
        # module-level scipy.linalg import would add about 0.2 s to every
        # cold command and to the desk's set-up
        code = "import sys, polycrit.suite, polycrit.lp, polycrit.majorization, polycrit.normal_ops"
        assert self._loaded(code, ("scipy",)) == []

    def test_lp_calls_leave_optimize_unloaded(self):
        # scipy.optimize adds about 19 MB of peak RSS to any process that
        # imports it, an LP function's lazy import included
        loaded = self._loaded(
            "import sys; from polycrit import lp, majorization as mj, Polynomial;"
            "p = Polynomial.from_roots([1, -1, 0.5j, -0.3 + 0.2j]);"
            "mj.check_majorization(mj.tuple_W(p, 0, 2), mj.tuple_Z(p, 0, 2));"
            "lp.strict_feasibility([[1.0], [-1.0]]); lp.strict_feasibility([[1.0, 2j]]);"
            "lp.strict_optimum([[1.0, -1j]]); lp.in_convex_hull(0.1, [1, -1, 1j])"
        )
        assert not [m for m in loaded if m.startswith("scipy.optimize")]

    def test_normal_interlace_leaves_sparse_unloaded(self, tmp_path):
        # interlacing ratios come from the forced/free split of the
        # compression spectrum, not from a bottleneck matching; the double
        # root gives a forced copy, which a matching would have peeled off
        roots = disk_points(np.random.default_rng(6), 5)
        path = tmp_path / "p6.json"
        write_poly(path, Polynomial.from_roots(np.r_[roots[:1], roots]))
        loaded = self._loaded(
            f"import sys; from polycrit.cli import main; main(['normal', 'interlace', {str(path)!r}, '--index', '2'])"
        )
        assert not [m for m in loaded if m.startswith("scipy.sparse")]
