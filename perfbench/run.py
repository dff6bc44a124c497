"""End-to-end benchmark of the drfwl command line, with a traced run.

    python3 perfbench/run.py --workload count-d2 --seed 0 --seconds 30 --trace 0

Run from the repository root.  Each workload hands ``python3 -m drfwl``
edge-list files made by this benchmark's own seeded generator
(``gen.py``) and checks every invocation's stdout byte for byte.
Invocations run as shipped (no ``--threads`` flag, ``DRFWL_THREADS``
removed from the child's environment), one at a time in a closed loop
with a single client, for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics: the median wall time, CPU
time and peak RSS of one invocation, and the set-up time of a fresh
interpreter that imports the CLI and parses the inputs.  ``--trace 1``
instead alternates traced, untraced and single-thread invocations (see
``probe.py``) and reports per-layer times and counts.  ``--workload all``
runs every workload in turn.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only if every output matched.  Expected digests of stdout
are recorded per seed in ``expected.json`` (see ``record.py``); for a
seed not recorded there, the expected output is derived in the run from
an independent reference, described at ``reference_digest``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"

CATALOG_D2 = (
    "cycle3", "cycle4", "cycle5", "cycle6", "path2", "path3", "path4",
    "tailed_triangle", "chordal_cycle_cc1", "chordal_cycle_cc2",
    "tr1", "tr2", "tr3",
)
CATALOG_D3 = CATALOG_D2 + ("cycle7",)

SETUP_CODE = (
    "import sys\n"
    "import drfwl.cli\n"
    "from drfwl.graph import parse_edge_list\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, 'rb') as fh:\n"
    "        parse_edge_list(fh.read())\n"
)


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape on random 4-regular graphs of n nodes."""

    name: str
    command: str  # "count" or "distinguish"
    d: int
    n: int
    r: int = 4

    def catalog(self) -> tuple[str, ...]:
        return CATALOG_D3 if self.d >= 3 else CATALOG_D2


# Sizes keep one default-thread invocation at 1-2.5 s on 2 CPUs, so that a
# 30 s run takes a dozen or more samples: the same invocation's CPU time
# varies by up to 2x from one run to the next on a shared 2-CPU machine,
# and only many samples give a steady median.  At n=150 every seed tried
# refines the distinguish pair in the same number of rounds.
# BENCHMARK.json gives the reason for each workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("count-d2", "count", d=2, n=200),
        Workload("count-d3", "count", d=3, n=120),
        Workload("distinguish-d2", "distinguish", d=2, n=150),
    )
}

UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Printed on every run but left out of the JSON result that regression
# checks read.  On a shared 2-CPU virtual machine the median wall time of
# the default two-thread invocation moved between runs by 14-25% (quartile
# spread over ten seeds) as the hypervisor withheld up to a third of the
# CPUs; CPU time moved by 6-12%.  The traced run reports the wall time as
# the per-layer metric cli.invocation_wall_s.
PRINT_ONLY = {"wall_s"}


# ---------------------------------------------------------------------------
# inputs and child processes


def write_inputs(w: Workload, seed: int, workdir: Path) -> list[Path]:
    """Edge-list files for the workload, made from the seed alone."""
    if w.command == "count":
        graphs = [gen.random_regular(w.n, w.r, gen.Stream(w.name, seed))]
    else:
        first, second, _, _ = gen.distinct_pair(w.n, w.r, seed, w.name)
        graphs = [first, second]
    paths = []
    for i, edges in enumerate(graphs):
        path = workdir / f"{w.name}-{seed}-{i}.el"
        path.write_text(gen.edge_list_text(w.n, edges), encoding="utf-8")
        paths.append(path)
    return paths


def cli_args(w: Workload, inputs: list[Path]) -> list[str]:
    files = [str(p) for p in inputs]
    if w.command == "count":
        return ["count", "--d", str(w.d), *files]
    return ["distinguish", "--method", "drfwl", "--d", str(w.d), *files]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "DRFWL_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    """One finished child process: exit code, stdout and its own usage."""

    exit: int
    stdout: bytes
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def run_child(argv: list[str], workdir: Path) -> Child:
    """Run a Python child to completion; wait4 gives its rusage alone."""
    with tempfile.TemporaryFile(dir=workdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
        )
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Child(
        exit=proc.returncode,
        stdout=out,
        stderr=stderr,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


class Gate:
    """Checks each invocation's exit code and stdout digest."""

    def __init__(self, expected: str):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first_error = ""

    def check(self, exit_code: int, digest: str, stderr: str = "") -> bool:
        self.attempted += 1
        if exit_code == 0 and digest == self.expected:
            return True
        self.failed += 1
        if not self.first_error:
            self.first_error = (
                f"exit {exit_code}, stdout sha256 {digest} (expected {self.expected})"
                + (f"\n{stderr.strip()}" if stderr.strip() else "")
            )
        return False


# ---------------------------------------------------------------------------
# expected outputs


def recorded_digest(w: Workload, seed: int) -> str | None:
    with EXPECTED.open(encoding="utf-8") as fh:
        return json.load(fh)["sha256"].get(w.name, {}).get(str(seed))


def reference_digest(w: Workload, inputs: list[Path], workdir: Path) -> str:
    """The expected stdout digest, from code other than the path under test.

    count: ``drfwl oracle`` enumerates the same catalog by brute force and
    shares nothing with ``drfwl.counting`` but the Graph type; its report
    has the same schema and must be byte-identical.
    distinguish: the pair was drawn with different cycle counts, so it is
    non-isomorphic and the verdict must be "distinguished"; the reference
    is a single-thread invocation whose JSON says so.
    """
    files = [str(p) for p in inputs]
    if w.command == "count":
        ref = run_child(["-m", "drfwl", "oracle", "--motifs", ",".join(w.catalog()), *files], workdir)
    else:
        ref = run_child(["-m", "drfwl", *cli_args(w, inputs), "--threads", "1"], workdir)
    if ref.exit != 0:
        raise RuntimeError(f"reference run exited {ref.exit}:\n{ref.stderr}")
    if w.command == "distinguish":
        verdict = json.loads(ref.stdout)
        want = {"method": "drfwl", "d": w.d, "distinguished": True}
        if {k: verdict.get(k) for k in want} != want or not isinstance(verdict.get("iterations"), int):
            raise RuntimeError(f"reference verdict is wrong for a non-isomorphic pair: {verdict}")
    return ref.sha256


def expected_digest(w: Workload, seed: int, inputs: list[Path], workdir: Path) -> str:
    reference = reference_digest(w, inputs, workdir)
    recorded = recorded_digest(w, seed)
    if recorded is not None and recorded != reference:
        raise RuntimeError(
            f"reference output {reference} differs from the recorded digest {recorded}"
        )
    return reference


# ---------------------------------------------------------------------------
# measurement


def setup_sample(inputs: list[Path], workdir: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and parses the inputs."""
    child = run_child(["-c", SETUP_CODE, *map(str, inputs)], workdir)
    if child.exit != 0:
        raise RuntimeError(f"set-up interpreter exited {child.exit}:\n{child.stderr}")
    return child.wall_s


def end_to_end(argv: list[str], inputs: list[Path], gate: Gate, seconds: float, workdir: Path):
    """Closed loop, one client: the next invocation starts when the last ends.

    A set-up sample is taken before each invocation, so that both see the
    same machine conditions.
    """
    runs: list[Child] = []
    setup: list[float] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        setup.append(setup_sample(inputs, workdir))
        child = run_child(["-m", "drfwl", *argv], workdir)
        if gate.check(child.exit, child.sha256, child.stderr):
            runs.append(child)
        elif gate.failed >= 3 and not runs:
            break
    return {
        "wall_s": [c.wall_s for c in runs],
        "cpu_s": [c.cpu_s for c in runs],
        "peak_rss_mb": [c.rss_mb for c in runs],
        "setup_s": setup,
    }


# -- traced run ---------------------------------------------------------------

SPAN_TOTALS = {
    "graph.parse_s": ("graph.parse",),
    "tuples.build_index_s": ("tuples.build_index", "refine.build_index"),
    "counting.pair_stats_s": ("counting.pair_stats",),
    "counting.p2_s": ("counting.p2",),
    "counting.w3_s": ("counting.w3",),
    "counting.p3_s": ("counting.p3",),
    "counting.p22_s": ("counting.p22",),
    "counting.p4_s": ("counting.p4",),
    "counting.w4_s": ("counting.w4",),
    "counting.motifs_s": ("counting.motifs",),
    "counting.split_cycles_s": ("counting.split_cycles",),
    "counting.tr_s": ("counting.tr",),
    "counting.cycle7_s": ("counting.cycle7",),
    "counting.report_s": ("counting.report",),
    "refine.pair_s": ("refine.pair",),
    "refine.index_s": ("refine.build_index",),
    "refine.blocks_s": ("refine.blocks",),
    "refine.keys_s": ("refine.keys",),
    "refine.compress_s": ("refine.compress",),
    "cli.main_s": ("cli.main",),
}
SPAN_SELF = {
    "counting.node_counts_self_s": "counting.node_counts",
    "cli.self_s": "cli.main",
}
# metric -> (span names, note field, how to combine)
SPAN_NOTES = {
    "graph.nodes": (("graph.parse",), "nodes", sum),
    "graph.edges": (("graph.parse",), "edges", sum),
    "tuples.tuple_count": (("tuples.build_index", "refine.build_index"), "tuples", sum),
    "refine.rounds": (("refine.pair",), "rounds", sum),
    "refine.units": (("refine.build_index",), "tuples", sum),
    "refine.units_recomputed": (("refine.keys",), "units", sum),
    "refine.classes_final": (("refine.pair",), "classes", sum),
    "parallel.threads": (("parallel.resolve_threads",), "threads", max),
}
SPAN_ATTR = {name: f"{module}.{attr}" for module, attr, name, _ in probe.TIMED}


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, from its spans.

    A metric is absent when an attribute it is built from no longer
    exists; it reads 0 when the attribute exists but was never called,
    because the workload bypasses that layer.
    """
    spans = report["spans"]
    missing = set(report["missing"])
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    notes: dict[str, list[dict]] = {}
    for i, (name, start, end, _, note) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - covered[i])
        if note:
            notes.setdefault(name, []).append(note)

    def present(*names: str) -> bool:
        return not any(SPAN_ATTR[n] in missing for n in names)

    out: dict[str, float] = {}
    for metric, names in SPAN_TOTALS.items():
        if present(*names):
            out[metric] = sum(total.get(n, 0.0) for n in names)
    for metric, name in SPAN_SELF.items():
        if present(name):
            out[metric] = own.get(name, 0.0)
    for metric, (names, field, combine) in SPAN_NOTES.items():
        if present(*names):
            values = [note[field] for n in names for note in notes.get(n, [])]
            out[metric] = combine(values) if values else 0
    index_names = ("tuples.build_index", "refine.build_index")
    if present(*index_names):
        built = [note for n in index_names for note in notes.get(n, [])]
        bound = sum(note["bound"] for note in built)
        if bound:
            out["tuples.space_ratio"] = sum(note["tuples"] for note in built) / bound
    return out


def _probe(mode: str, argv: list[str], workdir: Path) -> tuple[Child, dict]:
    child = run_child([str(BENCH_DIR / "probe.py"), mode, "--", *argv], workdir)
    if child.exit != 0:
        raise RuntimeError(f"probe {mode} exited {child.exit}:\n{child.stderr}")
    return child, json.loads(child.stdout.decode("utf-8").splitlines()[-1])


def traced(argv: list[str], gate: Gate, seconds: float, workdir: Path):
    """Alternate traced, untraced and --threads 1 invocations, then count."""
    layers: list[dict[str, float]] = []
    traced_wall, plain_wall, single_wall = [], [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        child, report = _probe("spans", argv, workdir)
        if gate.check(report["exit"], report["sha256"], child.stderr):
            layers.append(layer_metrics(report))
            traced_wall.append(child.wall_s)
        plain = run_child(["-m", "drfwl", *argv], workdir)
        if gate.check(plain.exit, plain.sha256, plain.stderr):
            plain_wall.append(plain.wall_s)
        single = run_child(["-m", "drfwl", *argv, "--threads", "1"], workdir)
        if gate.check(single.exit, single.sha256, single.stderr):
            single_wall.append(single.wall_s)
        if gate.failed and not layers:
            break
    samples: dict[str, list[float]] = {}
    for metrics in layers:
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    if traced_wall and plain_wall:
        samples["trace.overhead_ratio"] = [
            statistics.median(traced_wall) / statistics.median(plain_wall)
        ]
    if plain_wall:
        samples["cli.invocation_wall_s"] = plain_wall
    if plain_wall and single_wall:
        samples["parallel.overhead_ratio"] = [
            statistics.median(plain_wall) / statistics.median(single_wall)
        ]
    child, report = _probe("counts", [*argv, "--threads", "1"], workdir)
    if gate.check(report["exit"], report["sha256"], child.stderr) and not report["missing"]:
        samples["tuples.intersect_calls"] = [report["calls"]]
        samples["tuples.intersect_witnesses"] = [report["witnesses"]]
    return samples


def yardsticks() -> dict[str, list[float]]:
    """The paper's scaling yardsticks; they depend on neither workload nor seed."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        _, report = _probe("yardsticks", [], Path(tmp))
    return {name: [value] for name, value in report.items()}


# ---------------------------------------------------------------------------
# reporting


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_slope"):
        return "log/log"
    return "count"


def host_line() -> str:
    return (
        f"cpu_count={os.cpu_count()} nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()}"
    )


def report(w: Workload, seed: int, samples: dict[str, list[float]], gate: Gate) -> dict:
    """Print one line per metric; return the metrics as medians."""
    print(f"== {w.name} seed={seed} n={w.n} r={w.r} d={w.d} | {host_line()}")
    metrics = {}
    for name, values in samples.items():
        if not values:
            continue
        value = statistics.median(values)
        if name not in PRINT_ONLY:
            metrics[name] = {"value": value, "unit": unit_of(name)}
        spread = f" (min {min(values):.6g}, max {max(values):.6g})" if len(values) > 1 else ""
        print(f"   {name:<30} {value:>14.6g} {unit_of(name):<8} median of {len(values)}{spread}")
    frac = gate.failed / gate.attempted if gate.attempted else 0.0
    print(f"   {'failed_frac':<30} {frac:>14.6g} {'ratio':<8} {gate.failed} of {gate.attempted} invocations")
    if gate.first_error:
        print(f"   first failure: {gate.first_error}", file=sys.stderr)
    return metrics


def run_workload(
    w: Workload, seed: int, seconds: float, trace: dict[str, list[float]] | None
) -> tuple[dict, Gate]:
    """Measure one workload; ``trace`` holds the yardsticks of a traced run."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        inputs = write_inputs(w, seed, workdir)
        argv = cli_args(w, inputs)
        gate = Gate(expected_digest(w, seed, inputs, workdir))
        if trace is not None:
            samples = {**traced(argv, gate, seconds, workdir), **trace}
        else:
            samples = end_to_end(argv, inputs, gate, seconds, workdir)
    return report(w, seed, samples, gate), gate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (SRC / "drfwl" / "__main__.py").is_file():
        print(f"error: no drfwl package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    results, attempted, failed = {}, 0, 0
    try:
        trace = yardsticks() if ns.trace else None
    except RuntimeError as exc:
        print(f"error: yardsticks: {exc}", file=sys.stderr)
        return 1
    for name in names:
        try:
            metrics, gate = run_workload(WORKLOADS[name], ns.seed, ns.seconds, trace)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results[name] = metrics
        attempted += gate.attempted
        failed += gate.failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": results[names[0]] if len(names) == 1 else results,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
