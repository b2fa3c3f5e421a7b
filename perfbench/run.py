"""lapcent benchmark: one closed-loop client running CLI sessions.

Usage, from the repository root:

    python3 perfbench/run.py --workload preset-session --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

With ``--trace 0`` every command runs as a fresh ``python -m lapcent.cli``
process with ``PYTHONPATH=src``, one after another, until ``--seconds`` is
used up; each output is checked and the end-to-end metrics are medians.
With ``--trace 1`` the benchmark imports lapcent, runs one session in
process untraced and one traced (spans around each module's public
functions), and reports per-layer self times and counts, the tracing
overhead, and whether both sessions printed the same bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it are
a readable report: per-metric sample counts and percentiles, the
per-operation table, and a provenance record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Metric names and units come from BENCHMARK.json. Its per-layer list is the
# subset an optimisation is most likely to move, limited to spans every
# session enters so that no time reads zero; the report lines and the span
# dump carry every span and count.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
WARMUP_S = 1.5  # two-thread BLAS work before timing: an idle vCPU starts slow
RUN_LIMIT_S = 170.0  # a command still running this long after a run began is killed


class Run:
    """Everything one workload run measures."""

    def __init__(self):
        self.samples = {}  # metric -> [seconds]
        self.ops = {}  # op key -> [seconds]
        self.rss_kb = {}  # op key -> max ru_maxrss
        self.attempted = 0
        self.failures = []  # (op key, problem)

    def record(self, key, metric, elapsed, rss_kb):
        self.ops.setdefault(key, []).append(elapsed)
        self.rss_kb[key] = max(self.rss_kb.get(key, 0), rss_kb)
        if metric:
            self.samples.setdefault(metric, []).append(elapsed)

    def outcome(self, key, problems):
        self.attempted += 1
        if problems:
            self.failures.append((key, problems[0]))


# -- child processes -------------------------------------------------------


class Spawner:
    """Runs commands through spawner.py (see there for why) in ``work``."""

    def __init__(self, work: Path, env):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=work, env=env, text=True, start_new_session=True)

    def run(self, argv, timeout):
        """(seconds, exit code, stdout text, ru_maxrss KB) of one command."""
        out_path = self.work / ".stdout"
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": str(out_path),
                                          "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        got = json.loads(reply)
        text = out_path.read_text(encoding="utf-8", errors="replace")
        return got["elapsed"], got["code"], text, got["maxrss_kb"]

    def close(self):
        """Stop the spawner and anything it started, and wait for all of it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def child_env(root: Path):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def checked(op, code, text, cache):
    """Problems with one output; identical outputs are checked once."""
    if code != 0:
        return [f"exit code {code}"]
    digest = hashlib.sha256(text.encode()).digest()
    if (op.key, digest) not in cache:
        try:
            cache[(op.key, digest)] = op.check(text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            cache[(op.key, digest)] = [f"unreadable output: {exc!r}"]
    return cache[(op.key, digest)]


def measure(session, seconds, work, root) -> Run:
    """Closed loop: one client issues the session's commands in order, again
    and again, until ``seconds`` have passed. After the first full session a
    command is started only if its last time still fits before the deadline,
    so a run ends close to ``seconds``. A ``once`` command runs a single
    time, in the first pass after a quarter of the run.

    ``session_s`` is the time of one full session: the sum, over the
    session's commands, of each command's median time."""
    spawner = Spawner(work, child_env(root))
    try:
        run = _measure(session, seconds, spawner)
    finally:
        spawner.close()
    if all(op.key in run.ops for op in session):
        run.samples["session_s"] = [session_time(session, run.ops)]
    return run


def session_time(session, ops):
    """One full session: each command's median time, summed over the session."""
    return sum(statistics.median(ops[op.key]) for op in session)


def _measure(session, seconds, spawner) -> Run:
    python = sys.executable
    run = Run()
    cache = {}
    limit = time.monotonic() + RUN_LIMIT_S
    spawner.run([python, "-c", "import numpy, time\n"
                               "a = numpy.ones((400, 400)); t = time.perf_counter()\n"
                               f"while time.perf_counter() - t < {WARMUP_S}: a @ a"],
                timeout=RUN_LIMIT_S)

    last = {}
    start = time.perf_counter()
    deadline = start + seconds
    # A once command waits for the first pass after a quarter of the run, so
    # that the other commands' samples come from both ends of the run.
    due = start + seconds / 4
    pending = {op.key for op in session if op.once}
    first = True
    while True:
        ran = 0
        for op in session:
            if time.monotonic() >= limit:
                return run
            now = time.perf_counter()
            if op.once:
                if op.key not in pending or now < due:
                    continue
                pending.discard(op.key)
            elif not first:
                if now >= deadline and not pending:
                    return run
                if now + last[op.key] > deadline:
                    continue
            command = ["-c", "import lapcent.cli"] if op.argv is None else \
                ["-m", "lapcent.cli", *op.argv]
            elapsed, code, text, rss = spawner.run(
                [python, *command], timeout=max(1.0, limit - time.monotonic()))
            last[op.key] = elapsed
            ran += 1
            run.record(op.key, op.metric, elapsed, rss)
            run.outcome(op.key, checked(op, code, text, cache))
        first = False
        if ran == 0:
            if not pending:
                return run
            due = 0.0


# -- traced run --------------------------------------------------------------


def in_process(session, work, cli):
    """Run the session inside this process: (seconds, [(code, stdout)])."""
    outputs = []
    cwd = os.getcwd()
    os.chdir(work)
    start = time.perf_counter()
    try:
        for op in session:
            if op.argv is None:  # lapcent.cli is already imported
                continue
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(list(op.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            outputs.append((code, buf.getvalue()))
    finally:
        elapsed = time.perf_counter() - start
        os.chdir(cwd)
    return elapsed, outputs


def traced(session, work, root):
    """Sessions in process: a warm-up pass, an untraced pass and a traced
    pass. Returns the Run, the per-layer metrics and the tracer (for the
    span dump)."""
    sys.path.insert(0, str(root / "src"))
    import lapcent.cli as cli
    import tracer as tracing

    run = Run()
    cache = {}
    # A first pass pays one-time costs (lazy imports, caches) so that the
    # untraced and traced passes compare like with like.
    _, warm = in_process(session, work, cli)
    plain_s, plain = in_process(session, work, cli)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced_s, spanned = in_process(session, work, cli)
    finally:
        leftover = tr.restore()
    commands = [op for op in session if op.argv is not None]
    for op, first, untraced, spanned_out in zip(commands, warm, plain, spanned):
        problems = checked(op, *untraced, cache)
        if first != untraced:
            problems = problems + ["output differs between two untraced passes"]
        if spanned_out != untraced:
            problems = problems + ["traced output differs from untraced output"]
        run.outcome(op.key, problems)
    run.outcome("restore", [f"still wrapped: {', '.join(leftover)}"] if leftover else [])

    metrics = tr.metrics()
    metrics.update({f"layer.{k}.self_s": v for k, v in tr.layer_self_s().items()})
    metrics.update(session_untraced_s=plain_s, session_traced_s=traced_s,
                   trace_overhead_s=traced_s - plain_s)
    return run, metrics, tr


# -- reporting ---------------------------------------------------------------


def tail_percentile(values):
    """Highest of p90/p95/p99 with at least ten samples beyond it, or None."""
    best = None
    for p in (90, 95, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(values, n=100, method="inclusive")[p - 1])
    return best


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(root: Path, trace: bool):
    import importlib.util

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "trace": trace,
    }


def report_untraced(name, run: Run):
    rss_mb = max(run.rss_kb.values()) / 1024.0
    metrics = {}
    print(f"# workload {name}: {WHY[name]}")
    for metric, unit in END_TO_END.items():
        if metric == "peak_rss_mb":
            value = rss_mb
            print(f"  {metric:<18} {value:10.1f} {unit}  (largest ru_maxrss of any child)")
        elif metric == "session_s":
            if metric not in run.samples:
                continue
            value = run.samples[metric][0]
            print(f"  {metric:<18} {value:10.4f} {unit}  sum of the session's command medians")
        else:
            values = run.samples.get(metric, [])
            if not values:
                continue
            value = statistics.median(values)
            tail = tail_percentile(values)
            extra = f"  p{tail[0]} {tail[1]:.4f}" if tail else ""
            print(f"  {metric:<18} {value:10.4f} {unit}  median of {len(values)}{extra}")
        metrics[metric] = {"value": value, "unit": unit}
    print("  per operation:  key  median_s  n  max_rss_mb")
    for key, values in run.ops.items():
        print(f"    {key:<20} {statistics.median(values):8.4f}  {len(values):3d}  "
              f"{run.rss_kb[key] / 1024.0:7.1f}")
    return metrics


def report_traced(name, metrics, tr, trace_path):
    print(f"# workload {name} (traced in process): {WHY[name]}")
    print(f"  session untraced {metrics['session_untraced_s']:.4f} s, traced "
          f"{metrics['session_traced_s']:.4f} s, overhead {metrics['trace_overhead_s']:+.4f} s")
    for key in sorted(metrics):
        print(f"  {key:<44} {metrics[key]!r}")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({"metrics": metrics, "spans": tr.spans}) + "\n",
                          encoding="utf-8")
    print(f"  spans ({len(tr.spans)}) written to {trace_path}")
    # A span never entered has no calls and did no work: its counts are 0.
    return {k: {"value": metrics.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}


def run_workload(name, seed, seconds, trace, root):
    work = root / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        session = workloads.build(name, seed, work, json.loads(
            (HERE / "reference.json").read_text(encoding="utf-8")))
        if trace:
            run, layer, tr = traced(session, work, root)
            trace_path = root / ".perfbench" / "traces" / f"{name}-seed{seed}.json"
            metrics = report_traced(name, layer, tr, trace_path)
        else:
            run = measure(session, seconds, work, root)
            metrics = report_untraced(name, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(run.failures)
    print(f"  fail_rate {failed}/{run.attempted} = {failed / run.attempted:.4f}")
    for key, problem in run.failures[:10]:
        print(f"  FAILED {key}: {problem}")
    return run, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / "lapcent" / "cli.py").is_file():
        print(f"error: no lapcent sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, got = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        attempted += run.attempted
        failed += len(run.failures)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    print("# provenance " + json.dumps(provenance(root, bool(args.trace)), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
