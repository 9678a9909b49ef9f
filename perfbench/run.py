"""hellykit benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload helly-graphs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client runs ``hellykit.cli.main(argv)`` one op at a time.  Each op is
forked from this process, which has already imported hellykit from the
checkout's ``src/``, so no program state carries from one op to the next and
at most two processes are alive.  The workload's input set (see
workloads.py) is run in whole passes until ``--seconds`` have gone by; each
pass is the full op set on its own seeded inputs.  Work counts and per-layer
metrics describe the first pass, so they repeat exactly for a seed.

Every report is checked (exit code, schema, theorem-grade fields) and hashed.
With ``--trace 1`` each op runs both untraced and traced (see tracing.py);
the two reports must be byte-identical, and the spans give the per-layer
metrics.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with an
environment stamp, goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
OUT = os.path.join(HERE, "out")
SCHEMA = "hellykit-report/1"
SETUP_REPEATS = 5
# str hashes are salted per interpreter, and dict and set layout over the
# window's tagged-tuple vertices moves one derive op by +-15% between salts
# (4.6 s to 6.1 s measured for the same argv).  Every op forks from this
# process, so the salt is pinned here to keep that out of the comparison.
HASH_SEED = "0"
OP_TIMEOUT_S = 150
CRASHED = 70  # exit code of a forked child that raised

COMMANDS = ("analyze", "hellyfy", "quasiconvex", "gamma_build", "derive",
            "measure")
SAMPLED = ("derive", "measure")


def command_of(argv: list[str]) -> str:
    return "gamma_build" if argv[:2] == ["gamma", "build"] else argv[0]


# -- one op -------------------------------------------------------------------

def _op_child(argv, report, trace_path, op_id) -> None:
    """Body of a forked op process; never returns."""
    code = CRASHED
    try:
        signal.alarm(OP_TIMEOUT_S)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(os.open(report + ".log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                        0o644), 2)
        from hellykit import cli
        tracer = None
        if trace_path:
            tracer = tracing.Tracer(op_id)
            tracing.install(tracer)
            tracer.enter(tracing.ROOT_SPAN)
        code = cli.main(argv + ["--out", report])
        if tracer:
            tracer.exit()
            tracer.dump(trace_path)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _forked(body) -> tuple[float, int, int]:
    """Run body() in a forked child; (wall seconds, exit code, maxrss KiB)."""
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            body()
        finally:
            os._exit(CRASHED)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def run_op(argv, report, op_id, trace_path=None) -> tuple[float, int, int]:
    for path in (report, trace_path):
        if path and os.path.exists(path):
            os.remove(path)
    return _forked(lambda: _op_child(argv, report, trace_path, op_id))


# -- output checks --------------------------------------------------------------

def _check_report(command: str, text: str) -> tuple[str | None, dict]:
    """(problem or None, deterministic work counts) for one report."""
    try:
        rep = json.loads(text)
    except ValueError as exc:
        return f"report is not one JSON document: {exc}", {}
    if not isinstance(rep, dict) or rep.get("schema") != SCHEMA:
        return "report schema is not " + SCHEMA, {}
    res = rep.get("result", {})
    counts: dict = {}
    problem = None
    if command == "derive":
        if res.get("violations") != 0:
            problem = f"derive violations {res.get('violations')}"
        counts = {"samples": res["samples"],
                  "uncertified_rejected": res["uncertified_rejected"],
                  "excluded_by_shortenings": res["excluded_by_shortenings"]}
    elif command == "quasiconvex":
        if res.get("violations") != 0:
            problem = f"quasiconvex violations {res.get('violations')}"
        counts = {"qc_enumerated": res["requested_qc"]["enumerated"]}
    elif command == "hellyfy":
        if res.get("helly") is not True or res.get("isometric") is not True:
            problem = "hellyfy output not certified Helly and isometric"
        counts = {"hull_vertices": res["graph"]["n"]}
    elif command == "gamma_build":
        if res.get("sanity_problems") != []:
            problem = f"window sanity problems {res.get('sanity_problems')!r:.200}"
        counts = {f"window_{kind}": n for kind, n in res["kind_counts"].items()}
    elif command == "measure":
        counts = {"samples": res["samples"], "measure_rejected": res["rejected"]}
    return problem, counts


def check_op(command: str, report: str, code: int) -> dict:
    """Check one report in a forked child, so that parsing a large report
    never grows this process (its pages would count in every later op's
    peak RSS)."""
    verdict = report + ".verdict"

    def body():
        out = {"problem": None, "counts": {}, "sha256": None}
        try:
            with open(report, "rb") as fh:
                data = fh.read()
            out["sha256"] = hashlib.sha256(data).hexdigest()
            out["problem"], out["counts"] = _check_report(command, data.decode())
        except (OSError, KeyError, TypeError, UnicodeDecodeError) as exc:
            out["problem"] = f"{type(exc).__name__}: {exc}"
        with open(verdict, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
        os._exit(0)

    if code != 0:
        return {"problem": f"exit code {code}", "counts": {}, "sha256": None}
    if os.path.exists(verdict):
        os.remove(verdict)
    _, rc, _ = _forked(body)
    if rc != 0:
        return {"problem": f"checker exit code {rc}", "counts": {}, "sha256": None}
    with open(verdict, encoding="utf-8") as fh:
        return json.load(fh)


# -- statistics -------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile, at most 90, with at least ten samples
    above it, and its value; None when there is no such percentile >= 50."""
    n = len(values)
    if n < 20:
        return None
    p = min(90, int(100 * (n - 10) / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _median(values):
    return statistics.median(values) if values else 0.0


# -- one workload -------------------------------------------------------------------

def tree_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def setup(workload: str, seed: int, work: str) -> tuple[list[float], bool, list]:
    """Write the inputs SETUP_REPEATS times, each in a fresh interpreter.
    Returns the set-up times, whether every repeat wrote the same bytes, and
    the schedule (a list of passes of ops)."""
    inputs = os.path.join(work, "inputs")
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        # no timeout here: subprocess polls for one, which quantizes the time
        # measured; workloads.py bounds its own run time with an alarm
        subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                        workload, str(seed), inputs], check=True)
        times.append(time.perf_counter() - start)
        digests.add(tree_digest(inputs))
    with open(os.path.join(inputs, "schedule.json"), encoding="utf-8") as fh:
        schedule = json.load(fh)
    return times, len(digests) == 1, schedule


class Run:
    """Op results of one workload run, and the metrics derived from them.

    Work counts and spans are kept for the first pass only: its inputs are
    fixed by the seed, so those counts repeat exactly whatever the number of
    passes the run's time allowed.
    """

    def __init__(self, schedule: list[list[list[str]]]):
        self.schedule = schedule
        self.latency: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.op_latency: list[list] = []  # [pass, op, seconds]
        self.samples = 0
        self.sampled_s = 0.0
        self.maxrss_kib = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[tuple[int, int], str] = {}
        self.work: Counter = Counter()
        self.passes = 0
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.spans = tracing.SpanTotals()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def record(self, p: int, i: int, command: str, latency: float, maxrss: int,
               verdict: dict) -> None:
        self.attempted += 1
        self.latency[command].append(latency)
        self.op_latency.append([self.passes, i, latency])
        self.maxrss_kib = max(self.maxrss_kib, maxrss)
        if verdict["problem"]:
            self.fail(f"pass {p} op {i} ({command}): {verdict['problem']}")
            return
        counts = verdict["counts"]
        known = self.digests.setdefault((p, i), verdict["sha256"])
        if known != verdict["sha256"]:
            self.fail(f"pass {p} op {i} ({command}): report differs on re-run")
        if self.passes == 0:
            self.work.update({k: v for k, v in counts.items() if k != "samples"})
            if command == "derive":
                self.work["derive_samples"] += counts["samples"]
        if command in SAMPLED:
            self.samples += counts["samples"]
            self.sampled_s += latency


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(OUT, "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup_times, setup_same, schedule = setup(workload, seed, work)
    run = Run(schedule)
    if not setup_same:
        run.fail("set-up wrote different inputs for the same seed")
    report = os.path.join(work, "report.json")
    traced_report = os.path.join(work, "traced.json")
    spans_path = os.path.join(work, "spans.json")

    def traced_op(argv, i, command):
        latency, code, _ = run_op(argv, traced_report, i, spans_path)
        run.traced_s += latency
        return check_op(command, traced_report, code)

    start = time.perf_counter()
    while run.passes == 0 or time.perf_counter() - start < seconds:
        p = run.passes % len(schedule)
        for i, argv in enumerate(schedule[p]):
            command = command_of(argv)
            # alternate which of the pair runs first, so that neither side
            # of trace.overhead_ratio always gets the warmer machine
            traced_first = trace and (run.passes + i) % 2 == 1
            if traced_first:
                traced = traced_op(argv, i, command)
            latency, code, maxrss = run_op(argv, report, i)
            verdict = check_op(command, report, code)
            run.record(p, i, command, latency, maxrss, verdict)
            if not trace:
                continue
            run.untraced_s += latency
            if not traced_first:
                traced = traced_op(argv, i, command)
            if traced["problem"] or traced["sha256"] != verdict["sha256"]:
                run.fail(f"pass {p} op {i}: traced report differs from untraced")
            elif run.passes == 0:
                with open(spans_path, encoding="utf-8") as fh:
                    run.spans.add(command, json.load(fh))
        run.passes += 1

    # re-run one sampled op of the first pass: its report must not change
    i = random.Random(f"rerun/{workload}/{seed}").randrange(len(schedule[0]))
    command = command_of(schedule[0][i])
    _, code, _ = run_op(schedule[0][i], report, i)
    again = check_op(command, report, code)
    run.attempted += 1
    if again["problem"]:
        run.fail(f"pass 0 op {i} ({command}) re-run: {again['problem']}")
    elif again["sha256"] != run.digests.get((0, i)):
        run.fail(f"pass 0 op {i} ({command}): re-run report is not byte-identical")
    return summarize(workload, seed, trace, run, setup_times)


# -- metrics ----------------------------------------------------------------------

def _m(value, unit, samples=None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    """The bounded metrics.  Op latency medians are not among them: on a
    shared 2-core host the whole machine runs up to 50 % slower for tens of
    seconds at a time, and a median over one run's mix of commands moved by
    up to a quarter between seeds.  The mean over all ops moved least."""
    lat = [t for _, _, t in run.op_latency]
    return {
        "setup_s": _m(_median(setup_times), "s", len(setup_times)),
        "reports_per_s": _m(len(lat) / sum(lat), "1/s", len(lat)),
        "peak_rss_mib": _m(run.maxrss_kib / 1024, "MiB", len(lat)),
    }


def command_metrics(run: Run) -> dict:
    """Op latency over all ops and per command, and the sampling rate; zero
    for commands the workload does not run."""
    lat = [t for _, _, t in run.op_latency]
    out = {"cmd.report_s_p50": _m(_median(lat), "s", len(lat))}
    for c in COMMANDS:
        out[f"cmd.{c}_s_p50"] = _m(_median(run.latency[c]), "s",
                                    len(run.latency[c]))
    out["cmd.samples_per_s"] = _m(run.samples / run.sampled_s if run.sampled_s
                                  else 0.0, "1/s", run.samples)
    tail = tail_percentile(lat)
    out["cmd.report_s_tail"] = _m(tail[1] if tail else max(lat), "s", len(lat))
    out["cmd.report_s_tail"]["percentile"] = tail[0] if tail else 100
    return out


def work_metrics(run: Run) -> dict:
    """Deterministic work counts of the first pass, read from its reports."""
    names = ("uncertified_rejected", "excluded_by_shortenings",
             "measure_rejected", "qc_enumerated", "hull_vertices",
             "window_free", "window_med", "window_int")
    return {f"work.{n}": _m(run.work.get(n, 0), "count") for n in names}


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics from the traced ops of the first pass.  Layer
    times are self times (span minus its child spans) unless noted."""
    sp = run.spans

    def calls(name):
        return _m(sp.calls[name], "count")

    def self_s(name):
        return _m(sp.self_s[name], "s")

    def count(name):
        return _m(sp.counts[name], "count")

    def ratio(num, den):
        return _m(num / den if den else 0.0, "ratio")

    draws = run.work["derive_samples"]
    layers = {
        "graphs.dist_calls": calls("graphs.dist"),
        "graphs.dist_s": self_s("graphs.dist"),
        "graphs.isometric_check_s": self_s("graphs.isometric_check"),
        "helly.extremal_calls": calls("helly.extremal"),
        "helly.extremal_s": self_s("helly.extremal"),
        "helly.extremal_found": count("helly.extremal_found"),
        "helly.extremal_distinct_ratio": ratio(sp.counts["helly.extremal_distinct"],
                                               sp.calls["helly.extremal"]),
        # inclusive: the postcondition's own enumeration is its main cost
        "helly.postcondition_s": _m(sp.inclusive_s["helly.postcondition"], "s"),
        # only hellyfication runs the postcondition, only derive the BFS
        "helly.postcondition_share": ratio(sp.inclusive_s["helly.postcondition"],
                                           sp.root_s["hellyfy"]),
        "helly.pseudo_modular_s": self_s("helly.pseudo_modular"),
        "helly.beta_s": self_s("helly.beta"),
        "helly.xi_s": self_s("helly.xi"),
        "quasiconvex.qc_calls": calls("quasiconvex.qc"),
        "quasiconvex.qc_s": self_s("quasiconvex.qc"),
        "quasiconvex.explored": count("quasiconvex.explored"),
        "quasiconvex.capped_ratio": ratio(sp.counts["quasiconvex.capped"],
                                          sp.calls["quasiconvex.qc"]),
        "quasiconvex.build_delta_s": self_s("quasiconvex.build_delta"),
        "gamma.window_build_s": self_s("gamma.window_build"),
        "gamma.window_vertices": count("gamma.window_vertices"),
        "gamma.neighbors_calls": count("gamma.neighbors_calls"),
        "gamma.window_distance_calls": calls("gamma.window_distance"),
        "gamma.window_distance_s": self_s("gamma.window_distance"),
        "gamma.certified_ratio": ratio(sp.counts["gamma.certified"],
                                       sp.calls["gamma.window_distance"]),
        "gamma.random_geodesic_s": self_s("gamma.random_geodesic"),
        "gamma.parabolic_shortenings_s": self_s("gamma.parabolic_shortenings"),
        "gamma.to_json_s": self_s("gamma.to_json"),
        "gamma.derive_bfs_share": ratio(
            sp.self_s["gamma.window_distance"] + sp.self_s["gamma.random_geodesic"],
            sp.inclusive_s["derived.verify"]),
        "derived.verify_s": self_s("derived.verify"),
        "derived.derive_calls": calls("derived.derive"),
        "derived.derive_s": self_s("derived.derive"),
        "derived.accept_ratio": ratio(draws, draws + run.work["uncertified_rejected"]
                                      + run.work["excluded_by_shortenings"]),
        "derived.z_path_calls": count("derived.z_path_calls"),
        "groups.multiply_calls": count("groups.multiply_calls"),
        "groups.rel_length_calls": count("groups.rel_length_calls"),
        "groups.invert_calls": count("groups.invert_calls"),
        "relwords.perturbed_word_calls": calls("relwords.perturbed_word"),
        "relwords.perturbed_word_s": self_s("relwords.perturbed_word"),
        "relwords.sampler_accept_ratio": ratio(
            sp.counts["relwords.detours_accepted"],
            sp.counts["relwords.detours_tried"]),
        "relwords.qg_check_s": self_s("relwords.qg_check"),
        "relwords.analyze_word_s": self_s("relwords.analyze_word"),
        "relwords.measure_s": self_s("relwords.measure"),
        "reports.render_s": self_s("reports.render"),
        "reports.bytes": _m(sp.counts["reports.bytes"], "bytes"),
        "graph_io.load_s": self_s("graph_io.load"),
        "cli.self_s": self_s(tracing.ROOT_SPAN),
        "trace.overhead_ratio": ratio(run.traced_s, run.untraced_s),
    }
    return layers


def summarize(workload, seed, trace, run: Run, setup_times) -> dict:
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": run.passes, "ops_per_pass": len(run.schedule[0]),
        "attempted": run.attempted, "failed": run.failed,
        "ops_failed_ratio": run.failed / run.attempted,
        "problems": run.problems,
        "end_to_end": end_to_end(run, setup_times),
        "commands": command_metrics(run),
        "work": work_metrics(run),
        "report_sha256": {f"{p}/{i}": d for (p, i), d in sorted(run.digests.items())},
        "op_latency_s": run.op_latency,
    }
    if trace:
        result["layers"] = layer_metrics(run)
    return result


# -- environment, output ---------------------------------------------------------------

def environment(seed: int) -> dict:
    """The stamp every result file carries.  The git sha is null when the
    checkout is not a git repository; the src digest identifies the code
    either way."""
    git_sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git_sha = sha.stdout.strip() if sha.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return {"git_sha": git_sha, "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed}


def result_line(results: list[dict], trace: bool) -> dict:
    groups = ("commands", "work", "layers") if trace else ("end_to_end",)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "/"
        for group in groups:
            for name, m in r[group].items():
                metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_summary(r: dict) -> None:
    print(f"== {r['workload']} seed={r['seed']} trace={r['trace']} "
          f"passes={r['passes']} ops/pass={r['ops_per_pass']} "
          f"attempted={r['attempted']} failed={r['failed']} "
          f"ops_failed_ratio={r['ops_failed_ratio']:.4f}")
    for p in r["problems"]:
        print("   problem:", p)
    for group in ("end_to_end", "commands", "work", "layers"):
        for name, m in r.get(group, {}).items():
            extra = f"  (n={m['samples']})" if "samples" in m else ""
            if "percentile" in m:
                extra += f"  p{m['percentile']}"
            print(f"   {name:34s} {m['value']:>14.6g} {m['unit']}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + (sys.argv[1:] if argv is None else list(argv)))

    os.chdir(ROOT)
    workloads.import_hellykit()
    import hellykit.cli  # noqa: F401  (every op forks from this import)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in names]
    record = {"environment": environment(args.seed), "seconds": args.seconds,
              "workloads": {r["workload"]: r for r in results}}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for r in results:
        print_summary(r)
    print("results:", os.path.relpath(path, ROOT))
    print(json.dumps(result_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
