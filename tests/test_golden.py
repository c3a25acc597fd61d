"""The "unchanged" record: the 21 desk values, digests of the c08 and c10
spectra, and four `normal` CLI reports on fixed inputs, as recorded in
tests/golden/record.json.

On the numpy and scipy versions the record was made with, every value is
compared by repr and every array by the sha256 of its bytes.  On other
versions each value is compared within the tolerance of the check that
judges it: a suite value within |tolerance| of its check (a check whose
tolerance is 0 compares its verdict), the sums of each array within its
check's tolerance per entry, and each report number within the tolerance
of its command.

Regenerate the record, after a change that moves a value on purpose, with

    PYTHONPATH=src python tests/test_golden.py --write
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy  # noqa: E402

from polycrit import cli, jsonio, normal_ops, suite  # noqa: E402
from polycrit.poly import Polynomial, disk_points  # noqa: E402

RECORD = Path(__file__).parent / "golden" / "record.json"

# the tolerance each normal command applies to its numbers
CLI_TOL = {"compress": 1e-8, "interlace": 1e-8, "glweights": 1e-10, "svar": 1e-9}


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _array_entry(x: np.ndarray, tol: float) -> dict:
    x = np.ascontiguousarray(x)
    return {
        "sha256": hashlib.sha256(x.tobytes()).hexdigest(),
        "shape": list(x.shape),
        "sums": [repr(float(x.real.sum())), repr(float(np.imag(x).sum())), repr(float(np.abs(x).sum()))],
        "tol": tol,
    }


@contextlib.contextmanager
def _recording(name: str, sink: list):
    """normal_ops.<name> appends each call's result to sink."""
    fn = getattr(normal_ops, name)

    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append(out)
        return out

    setattr(normal_ops, name, recorded)
    try:
        yield
    finally:
        setattr(normal_ops, name, fn)


def _corpora() -> dict:
    """c08's sub-spectra per degree, and c10's ratios and sorted
    sub-spectra per order, as criterion 10 receives them."""
    out = {}
    for roots, sub in suite._svar_corpus():
        out[f"c08.sub.n{roots.shape[1]}"] = _array_entry(sub, 1e-9)
    ratios, spectra = [], []
    with _recording("interlace_ratios", ratios), _recording("compression_spectra", spectra):
        suite.criterion_10_interlacing()
    for rows, (_, sub) in zip(ratios, spectra):
        n = sub.shape[1] + 1
        out[f"c10.ratios.n{n}"] = _array_entry(np.concatenate(rows), 1e-8)
        out[f"c10.sub.n{n}"] = _array_entry(np.sort(sub.real, axis=1), 1e-8)
    return out


def _cli_reports() -> list:
    """Reports of normal compress, interlace, glweights and svar on a
    seeded sextic with a double root and on z^4 + z, without duration_ms
    and with the input path as its file name."""
    rng = np.random.default_rng(36)
    roots = disk_points(rng, 5)
    polys = {
        "p6.json": Polynomial.from_roots(np.r_[roots[:1], roots]),
        "z4.json": Polynomial((0.0, 1.0, 0.0, 0.0, 1.0)),
    }
    argvs = [
        ["normal", "compress", "p6.json", "--index", "2"],
        ["normal", "compress", "z4.json", "--index", "1"],
        ["normal", "interlace", "p6.json", "--index", "2"],
        ["normal", "interlace", "z4.json"],
        ["normal", "glweights", "p6.json", "--index", "1", "--probes", "2,0;1.5,1.5"],
        ["normal", "glweights", "z4.json", "--probes", "2,0;1.5,1.5"],
        ["normal", "svar", "p6.json"],
        ["normal", "svar", "--n", "5", "--trials", "40", "--seed", "3"],
    ]
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, p in polys.items():
            jsonio.write_poly(Path(tmp) / name, p)
        for argv in argvs:
            argv = [str(Path(tmp) / a) if a in polys else a for a in argv]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            report = json.loads(stdout.getvalue())
            report.pop("duration_ms", None)
            report["inputs"] = {k: Path(v).name if v.startswith(tmp) else v for k, v in report["inputs"].items()}
            argv = [Path(a).name if a.startswith(tmp) else a for a in argv]
            out.append({"argv": argv, "code": code, "report": report})
    return out


def build_record() -> dict:
    checks = suite.run_all(verbose=False)
    return {
        "versions": _versions(),
        "suite": [
            {"name": c.name, "passed": c.passed, "value": repr(c.value), "tolerance": c.tolerance} for c in checks
        ],
        "corpora": _corpora(),
        "cli": _cli_reports(),
    }


def _close(got, want, tol: float) -> bool:
    """JSON values equal in structure, strings and booleans, and numbers
    within tol."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(_close(got[k], want[k], tol) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(_close(g, w, tol) for g, w in zip(got, want))
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return got == want
    return isinstance(got, (int, float)) and not isinstance(got, bool) and abs(got - want) <= tol


def mismatches(got: dict, want: dict) -> list[str]:
    """The names of the values of got that differ from the record want:
    by repr and bytes on the recorded versions, else within tolerance."""
    exact = want["versions"] == got["versions"]
    bad = []
    if [c["name"] for c in got["suite"]] != [c["name"] for c in want["suite"]]:
        return ["suite: check names"]
    for g, w in zip(got["suite"], want["suite"]):
        if exact:
            same = g == w
        else:
            tol = abs(w["tolerance"])
            same = g["passed"] == w["passed"] and (
                tol == 0.0 or abs(float(g["value"]) - float(w["value"])) <= tol
            )
        if not same:
            bad.append(f"suite {w['name']}: {g['value']} vs recorded {w['value']}")
    if got["corpora"].keys() != want["corpora"].keys():
        return bad + ["corpora: names"]
    for key, w in want["corpora"].items():
        g = got["corpora"][key]
        if exact:
            same = g == w
        else:
            size = int(np.prod(w["shape"]))
            same = g["shape"] == w["shape"] and all(
                abs(float(a) - float(b)) <= w["tol"] * size for a, b in zip(g["sums"], w["sums"])
            )
        if not same:
            bad.append(f"corpus {key}")
    if [r["argv"] for r in got["cli"]] != [r["argv"] for r in want["cli"]]:
        return bad + ["cli: commands"]
    for g, w in zip(got["cli"], want["cli"]):
        if exact:
            same = json.dumps(g) == json.dumps(w)
        else:
            same = g["code"] == w["code"] and _close(g["report"], w["report"], CLI_TOL[w["argv"][1]])
        if not same:
            bad.append("cli " + " ".join(w["argv"]))
    return bad


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORD.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    suite._svar_corpus.cache_clear()
    return build_record()


def test_record_unchanged(current, recorded):
    assert mismatches(current, recorded) == []


def test_record_covers_the_desk_and_four_commands(recorded):
    assert len(recorded["suite"]) == 21
    assert sorted({k.split(".")[0] for k in recorded["corpora"]}) == ["c08", "c10"]
    assert {r["argv"][1] for r in recorded["cli"]} == set(CLI_TOL)


def _copy(record: dict, versions: bool = True) -> dict:
    """A deep copy of record, with versions that match no install unless
    versions is kept."""
    out = json.loads(json.dumps(record))
    if not versions:
        out["versions"] = {"numpy": "0", "scipy": "0"}
    return out


def test_one_ulp_is_caught(current):
    # one suite value nudged by one ulp fails the exact comparison, and
    # stays within its check's tolerance on other versions
    nudged = _copy(current)
    entry = next(c for c in nudged["suite"] if c["name"] == "differentiator-identity")
    entry["value"] = repr(float(np.nextafter(float(entry["value"]), np.inf)))
    (bad,) = mismatches(nudged, current)
    assert bad.startswith("suite differentiator-identity: ")
    assert mismatches(nudged, _copy(current, versions=False)) == []


def test_renamed_report_field_is_caught(current):
    moved = _copy(current)
    report = moved["cli"][0]["report"]
    report["outputs"]["eig_subspectrum"] = report["outputs"].pop("eig_sub")
    name = "cli " + " ".join(current["cli"][0]["argv"])
    assert mismatches(moved, current) == [name]
    assert mismatches(moved, _copy(current, versions=False)) == [name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(build_record(), indent=1) + "\n")
    print(f"wrote {RECORD}")
