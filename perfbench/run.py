"""polycrit benchmark: four seeded workloads behind one command.

    python3 perfbench/run.py --workload {desk,roots,certify,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a polycrit checkout; it imports the library from
``src/`` and refuses to run without it.  ``--trace 0`` measures the
end-to-end metrics of BENCHMARK.json with tracing off; ``--trace 1`` runs
the same ops untraced and then traced, and reports the per-layer metrics.
The last line of standard output is the JSON result; the lines before it
are a readable report and the run metadata.

Load comes from this one process, one op at a time, with every BLAS and
OpenMP pool pinned to one thread; the cli workload's processes run one
after another.
"""
from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from common import median, p50, tail, timed_pass  # noqa: E402

WORKLOADS = {"desk": "desk", "roots": "roots", "certify": "certify", "cli": "cli_cmds"}
SETUP_PROBES = 9  # set-up runs per measurement; setup_s is their median
IMPORT_PROBES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="measured seconds the op mix is sized for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def units_for(wl, seconds: int) -> int:
    """Units of the workload's fixed op mix that fill about ``seconds``."""
    return max(1, round(seconds / wl.UNIT_S))


def setup_probe(args) -> int:
    """Child mode: cold import of the library (numpy included) plus
    building the inputs.  Workload modules import no oracle code at
    module level, so none of it is timed here."""
    t0 = time.perf_counter()
    wl = importlib.import_module(WORKLOADS[args.workload])
    for name in wl.IMPORTS:
        importlib.import_module(name)
    wl.build(args.seed, units_for(wl, args.seconds))
    print(time.perf_counter() - t0)
    return 0


def measure_setup(args, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh processes, one after another."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-probe",
    ]
    out = []
    for _ in range(count):
        res = subprocess.run(cmd, capture_output=True, text=True, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(Path("src/polycrit").glob("*.py")))


def metadata(units: int) -> dict:
    import numpy
    import scipy

    sha = hashlib.sha256()
    for p in sorted(Path("src/polycrit").glob("*.py")):
        sha.update(p.read_bytes())
    revision = "unavailable (not a git checkout)"
    if Path(".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if res.returncode == 0:
            revision = res.stdout.strip()
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "git_revision": revision,
        "src_sha256": sha.hexdigest(),
        "src_lines": src_line_count(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "process_threads": threads,
        "units": units,
    }


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_seconds(ops, outcomes) -> list[float]:
    return [o.seconds for o in outcomes]


def hook(wl, name: str):
    """A workload's optional step, or its default: latencies are the op
    times, and prepare, warm-up and extra metrics do nothing."""
    defaults = {"latencies": op_seconds, "extra_metrics": lambda ops, outcomes: {}}
    return getattr(wl, name, defaults.get(name, lambda ops: None))


def renew(wl, ops) -> None:
    """Untimed: give every op new input objects with equal values before a
    pass, so that nothing stored on an input by an earlier pass or by the
    warm-up is reused."""
    if hasattr(wl, "renew"):
        for op in ops:
            op.args = wl.renew(op)


def judge_all(wl, ops, outcomes):
    verdicts = [v for op, o in zip(ops, outcomes) for v in wl.judge(op, o)]
    unexplained = [v for v in verdicts if not v.ok and v.defect is None]
    return verdicts, unexplained


def end_to_end(wl, args, ops) -> tuple[dict, list, list, list[str]]:
    ops[:] = [op for op in ops if not op.expect.get("traced_only")]
    hook(wl, "prepare")(ops)
    hook(wl, "warmup")(ops)
    # the set-up probes are spread over the gaps before, between and after
    # the passes, so that their median does not rest on one phase of the
    # host's speed drift
    n_passes = getattr(wl, "PASSES", 1)
    setups = measure_setup(args, SETUP_PROBES - n_passes * (SETUP_PROBES // (n_passes + 1)))
    passes = []
    for _ in range(n_passes):
        renew(wl, ops)
        passes.append(timed_pass(ops, wl.execute)[1])
        setups += measure_setup(args, SETUP_PROBES // (n_passes + 1))
    # each op's time is its best pass: passes seconds apart see different
    # phases of the host's speed drift, and the best one is the least disturbed
    outcomes = [min(runs, key=lambda o: o.seconds) for runs in zip(*passes)]
    wall = sum(o.seconds for o in outcomes)
    verdicts, unexplained = judge_all(wl, ops, passes[0])
    drift = sum(wl.signature(a) != wl.signature(b) for outs in passes[1:] for a, b in zip(passes[0], outs))
    if drift:
        unexplained = unexplained + [f"{drift} outputs differ between passes over the same inputs"]
    lat = hook(wl, "latencies")(ops, outcomes)
    ok = sum(v.ok for v in verdicts)
    tail_s, tail_pct, count = tail(lat)
    rss = wl.peak_child_rss_mb(outcomes) if hasattr(wl, "peak_child_rss_mb") else self_rss_mb()
    values = {
        "setup_s": median(setups),
        "wall_s": wall,
        "ops_per_s": ok / wall,
        "op_p50_ms": median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss,
    }
    notes = [
        f"setup runs (s): {', '.join(f'{s:.4f}' for s in setups)}",
        f"op_tail_ms is p{tail_pct:.1f} of {count} latency samples",
    ]
    return values, verdicts, unexplained, notes


def per_layer(wl, args, ops) -> tuple[dict, list, list, list[str]]:
    from tracing import Tracer

    hook(wl, "prepare")(ops)
    hook(wl, "warmup")(ops)
    values: dict[str, float] = {}
    notes = []
    # ops too long to run twice are run traced only
    twice = [op for op in ops if not op.expect.get("traced_only")]
    renew(wl, twice)
    wall_u, out_u = timed_pass(twice, wl.execute)
    values.update(hook(wl, "extra_metrics")(twice, out_u))
    tracer = Tracer()

    def label(op):
        tracer.cell = op.cell

    if args.workload == "cli":
        imports = [wl.import_probe_ms() for _ in range(IMPORT_PROBES)]
        values["cli.import_ms"] = median(imports)
        values.update(wl.subcommand_p50(twice, out_u, p50))
        verdicts, unexplained = judge_all(wl, twice, out_u)
        base_wall, base = wl.time_in_process(ops)
        tracer.install()
        try:
            traced_wall, traced = wl.time_in_process(ops, before_op=label)
        finally:
            tracer.uninstall()
        mismatched = sum(a != b for a, b in zip(base, traced))
        mismatched += sum((o.value[0], wl.report_body(o.value[1])) != b for o, b in zip(out_u, base))
        overhead = (traced_wall - base_wall) / base_wall
        notes.append(f"cli.import_ms runs: {', '.join(f'{x:.1f}' for x in imports)}")
    else:
        renew(wl, ops)
        tracer.install()
        try:
            _, out_t = timed_pass(ops, wl.execute, before_op=label)
        finally:
            tracer.uninstall()
        verdicts, unexplained = judge_all(wl, ops, out_t)
        traced_by_id = {id(op): o for op, o in zip(ops, out_t)}
        pairs = [(o, traced_by_id[id(op)]) for op, o in zip(twice, out_u)]
        mismatched = sum(wl.signature(a) != wl.signature(b) for a, b in pairs)
        untraced_s = sum(a.seconds for a, _ in pairs)
        overhead = (sum(b.seconds for _, b in pairs) - untraced_s) / untraced_s
    if mismatched:
        unexplained = unexplained + [f"{mismatched} traced outputs differ from untraced ones"]
    values.update(tracer.layer_metrics())
    values["trace.overhead_ratio"] = overhead
    values["fail_ratio"] = sum(not v.ok for v in verdicts) / len(verdicts)
    notes.append(f"untraced wall {wall_u:.4f} s over {len(twice)} ops, traced over {len(ops)} ops")
    return values, verdicts, unexplained, notes


def producer(name: str) -> str | None:
    """The one workload that produces a per-layer metric, or None for the
    traced layer metrics every workload produces."""
    if name.startswith("desk."):
        return "desk"
    if name.startswith("poly.find_roots.p50_ms."):
        return "roots"  # one cell per geometry and degree
    if name == "cli.import_ms" or (name.startswith("cli.") and name.endswith(".p50_ms")):
        return "cli"
    return None


def select(values: dict, specs: list[dict], workload: str) -> dict:
    """The metrics BENCHMARK.json names, with their units.  A metric only
    another workload produces reads 0; any other missing one (a renamed or
    untraced function, say) stops the run."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif producer(name) not in (None, workload):
            value = 0.0
        else:
            raise SystemExit(f"workload {workload} did not produce the metric {name}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = Path("BENCHMARK.json")
    if not (Path("src/polycrit/__init__.py").is_file() and spec_path.is_file()):
        print("run from the root of a polycrit checkout (src/polycrit and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    if args.setup_probe:
        return setup_probe(args)
    wl = importlib.import_module(WORKLOADS[args.workload])
    units = units_for(wl, args.seconds)

    spec = json.loads(spec_path.read_text())
    try:
        ops = wl.build(args.seed, units)
        # a seeded order spreads every kind of op over the whole run, so that
        # drifts in the host's speed hit all of them alike
        order = random.Random(args.seed).sample(range(len(ops)), len(ops))
        ops = [ops[i] for i in order]
        measure = per_layer if args.trace else end_to_end
        values, verdicts, unexplained, notes = measure(wl, args, ops)
    finally:
        shutil.rmtree(Path(".perfbench_work"), ignore_errors=True)
    metrics = select(values, spec["per_layer" if args.trace else "end_to_end"], args.workload)
    failed = sum(not v.ok for v in verdicts)
    defects: dict[str, int] = {}
    for v in verdicts:
        if not v.ok:
            defects[v.defect or "UNEXPLAINED"] = defects.get(v.defect or "UNEXPLAINED", 0) + 1

    print(f"# polycrit benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"#   {line}")
    print(f"#   {len(verdicts)} answered, {failed} failed: {json.dumps(defects, sort_keys=True)}")
    for v in unexplained:
        print(f"#   UNEXPLAINED: {v if isinstance(v, str) else f'{v.name}: {v.detail}'}")
    print("meta " + json.dumps(metadata(units), sort_keys=True))
    result = {
        "correct": not unexplained,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
