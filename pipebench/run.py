#!/usr/bin/env python3
"""Pipeline benchmark for linkcluster: `linkcluster cluster` and `linkcluster
serve` end to end, plus a traced in-process run for per-layer numbers.

Run from the repository root:

    python3 pipebench/run.py --workload rmat_fine --seed 0 --seconds 45 --trace 0

Builds the repository (Release) into $CARGO_TARGET_DIR (default .bench_build),
generates the workload's input from --seed, measures, checks every output,
prints a metric table, a context line, and, last, one JSON result line.
See pipebench/README.md for the metrics, workloads and checks.
"""

import argparse
import bisect
import hashlib
import itertools
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WORK = BUILD / "pipebench-work"
LINKCLUSTER = BUILD / "linkcluster" / "tools" / "linkcluster"
TOOL = BUILD / "pipebench_tool"

# Knobs that change what the program does; a measurement under any is refused.
FORBIDDEN_ENV = ("LC_FAULT_PLAN", "LC_FAULT_POINT", "LC_SWEEP_BUCKETS", "LC_INTERSECT_KERNEL")

# graph: generator; mode: --mode of every run; warmup: an untimed serve run
# and CLI run before the rounds (on rmat_fine they would cost ~10 s, a
# round's worth of samples); min_rounds: rounds run even past --seconds;
# blocks: query blocks in each query window, of QUERY_BLOCK queries each;
# traced_queries: queries for the traced serve::Server comparison (0 = none).
WORKLOADS = {
    "rmat_fine": dict(graph="rmat", mode="fine", warmup=False, min_rounds=2, blocks=2,
                      traced_queries=0),
    "tweet_coarse": dict(graph="tweet", mode="coarse", warmup=True, min_rounds=5, blocks=1,
                         traced_queries=2000),
}
# --seed n generates from generator seed base + n; seed 0 is the primary seed.
GENERATOR_SEED_BASE = {"rmat": 7, "tweet": 2026}
SETUP_REPS = 5
SCORE_MARGIN = 1e-8  # relative; merge lists print scores to 9 significant digits
QUERY_BLOCK = 200  # queries a block, which holds each kind in its exact share
# The query mix, as cumulative shares (an assumption; README.md gives the
# reason for each share).
QUERY_MIX = (("cut k", 0.30), ("cut threshold", 0.60), ("member threshold", 0.90),
             ("member", 1.00))
SHAPE_TOLERANCE = 0.05  # unrecorded seeds: |V|, |E|, K1, K2 within 5% of seed 0's


class BenchError(Exception):
    """A reason to stop without printing a result."""


class Checks:
    """Every operation attempted, and those that failed or gave wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []  # what failed, one entry per check or batch

    def check(self, ok, what):
        return self.count(1, 0 if ok else 1, what) == 0

    def count(self, attempted, failed, what):
        """Adds a batch of operations, `failed` of them wrong; returns failed."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what} ({failed} of {attempted})")
            print(f"CHECK FAILED: {what} ({failed} of {attempted})", file=sys.stderr)
        return failed


def log(message):
    print(f"[pipebench] {message}", file=sys.stderr, flush=True)


def cpu_times():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def sha16(path):
    """The file's sha256 prefix, or None when it does not exist."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
    except FileNotFoundError:
        return None


def median_or_zero(values):
    """The median, or 0 when every sample failed (the run is then incorrect)."""
    values = list(values)
    return median(values) if values else 0.0


# ------------------------------------------------------------------ build --

def build():
    if not (ROOT / "src" / "core" / "link_clusterer.hpp").is_file():
        raise BenchError(f"linkcluster sources not found under {ROOT}")
    for name in FORBIDDEN_ENV:
        if name in os.environ:
            raise BenchError(f"refusing to measure with {name} set")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "linkcluster_cli", "pipebench_tool"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    info = json.loads(subprocess.run([str(TOOL), "info"], check=True,
                                     capture_output=True, text=True).stdout)
    if build_type is None or build_type.group(1) != "Release" or not info["ndebug"]:
        raise BenchError("refusing to measure a non-Release build")
    return info


# ---------------------------------------------------------------- helpers --

_children = set()  # processes to kill if the run is stopped


def run_measured(args):
    """Runs a process to completion; returns (wall seconds, peak RSS MiB,
    exit code, stdout)."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err)
        _children.add(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _children.discard(proc)
    if proc.returncode != 0:
        log(f"{Path(args[0]).name} {args[1]} exited {proc.returncode}: "
            f"{err_path.read_text(errors='replace').strip()[-500:]}")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text()


def on_stop(signo, frame):
    """Watchdog or SIGTERM: kill and reap every child, then stop."""
    for proc in list(_children):
        proc.kill()
        proc.wait()
    raise BenchError(f"stopped by {signal.Signals(signo).name}")


class ServeClient:
    """One closed-loop connection to `linkcluster serve` over stdin/stdout."""

    def __init__(self, threads):
        self.proc = subprocess.Popen([str(LINKCLUSTER), "serve", "--threads", str(threads)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        _children.add(self.proc)
        self.peak_rss_mb = None

    def request(self, line):
        """The reply line; "" when the server has died (a failed reply)."""
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
            return self.proc.stdout.readline().decode().rstrip("\n")
        except (OSError, ValueError):
            return ""

    def pin(self, cpus):
        """Sets the CPU affinity of every server thread and of this client."""
        try:
            for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
                try:
                    os.sched_setaffinity(int(task.name), cpus)
                except OSError:
                    pass  # the thread has ended
        except OSError:
            pass  # the server has ended; its requests fail
        os.sched_setaffinity(0, cpus)

    def close(self):
        """Asks for shutdown, reaps the server, and records its peak RSS."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        self.request("shutdown")
        try:
            self.proc.stdin.close()
        except OSError:
            # Not Popen.kill: it would reap the server before wait4 could.
            os.kill(self.proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        _children.discard(self.proc)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
            _children.discard(self.proc)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def quote(path):
    """A protocol value: double-quoted, with backslash escapes."""
    return '"' + str(path).replace("\\", "\\\\").replace('"', '\\"') + '"'


def parse_reply(line):
    """`ok a=1 b=2` -> {"a": "1", "b": "2"} (None unless the line is ok)."""
    if not line.startswith("ok"):
        return None
    return dict(token.split("=", 1) for token in line.split()[1:] if "=" in token)


REFERENCE = BENCH_DIR / "reference.json"


def load_reference():
    return json.loads(REFERENCE.read_text())


# ------------------------------------------------------------------ setup --

def generate(spec, seed, path):
    """Writes the workload's input file, made from the seed alone."""
    gen_seed = GENERATOR_SEED_BASE[spec["graph"]] + seed
    _, _, code, _ = run_measured([str(TOOL), "gen", "--workload", spec["graph"],
                                  "--seed", str(gen_seed), "--output", str(path)])
    if code != 0:
        raise BenchError(f"input generation failed (exit {code})")


def setup(spec, seed, threads, checks, input_path):
    """SETUP_REPS x (generate + write input, spawn serve, load). Returns the
    set-up times, the input's shape, and the last, still-running server."""
    times, digests, server, shape = [], set(), None, None
    try:
        for _ in range(SETUP_REPS):
            if server is not None:
                checks.check(server.close() == 0, "serve exits cleanly after set-up")
            start = time.perf_counter()
            generate(spec, seed, input_path)
            server = ServeClient(threads)
            reply = parse_reply(server.request(f"load path={quote(input_path)}"))
            times.append(time.perf_counter() - start)
            digests.add(sha16(input_path))
            if checks.check(reply is not None, "serve load"):
                shape = {"vertices": int(reply["vertices"]), "edges": int(reply["edges"])}
    except BaseException:
        if server is not None:
            server.kill()
        raise
    checks.check(len(digests) == 1, "input generation is deterministic")
    return times, digests.pop(), shape, server


def check_shape(name, seed, observed, checks):
    """Exact match against a recorded seed; otherwise within SHAPE_TOLERANCE
    of the primary seed (same generator, same parameters)."""
    recorded = load_reference()["workloads"][name]
    exact = recorded.get(str(seed))
    base = exact or recorded["0"]
    for key, value in observed.items():
        want = base[key]
        if exact is not None:
            checks.check(value == want, f"{key} {value} == reference {want} (seed {seed})")
        elif isinstance(want, int):
            checks.check(abs(value - want) <= SHAPE_TOLERANCE * want,
                         f"{key} {value} within {SHAPE_TOLERANCE:.0%} of seed 0's {want}")
    return exact is not None


# ---------------------------------------------------------------- measure --

def cli_run(spec, input_path, threads, merges):
    wall, rss, code, out = run_measured(
        [str(LINKCLUSTER), "cluster", "--input", str(input_path), "--mode", spec["mode"],
         "--threads", str(threads), "--merges", str(merges)])
    k = re.search(r"K1 = ([\d,]+), K2 = ([\d,]+)", out)
    counts = None if k is None else (int(k.group(1).replace(",", "")),
                                     int(k.group(2).replace(",", "")))
    return wall, rss, code, counts


def merge_scores(path):
    """The merge list's similarity column, ascending ([] when unreadable)."""
    try:
        with open(path) as f:
            return sorted(float(line.split()[3]) for line in f if not line.startswith("#"))
    except (OSError, ValueError, IndexError):
        return []


def make_queries(seed, edges, scores):
    """Endless seeded blocks of QUERY_BLOCK read-path requests in QUERY_MIX.
    A threshold cuts at the merge score at a uniform position in `scores`
    (the run's sorted merge scores), so every merge is as likely a cut point
    as any other; its value is uniform in the gap below that score, down to
    the next lower score, which gives the same cut. It keeps SCORE_MARGIN
    (relative) from both scores: the merge list prints 9 significant digits,
    and a threshold nearer a printed score could fall on the other side of
    the score the server holds. k is log-uniform on
    [1, |E|]. Values are drawn from continuous ranges, so a cut cache must
    show its gain on traffic that mostly misses it (the repeated share is in
    the context). Each block is stratified: every kind has exactly its share of
    the block, and the n values of a kind fall one into each of n equal
    slices of the range, so a block's percentiles do not move with the luck
    of the draw."""
    rng = random.Random(seed)
    distinct = sorted(set(scores))

    def spread(n):
        draws = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(draws)
        return draws

    def threshold(draw):
        if not scores:
            return "1"
        i = bisect.bisect_left(distinct, scores[int(draw * len(scores))])
        while i > 0 and distinct[i] - distinct[i - 1] <= 3 * SCORE_MARGIN * distinct[i]:
            i -= 1  # a gap too narrow for the margins: cut at the next one down
        score, lower = distinct[i], distinct[i - 1] if i else 0.0
        margin = SCORE_MARGIN * score
        return repr(lower + margin + rng.random() * (score - lower - 2 * margin))

    while True:
        block, begin = [], 0
        for kind, upto in QUERY_MIX:
            end = round(upto * QUERY_BLOCK)
            for draw in spread(end - begin):
                if kind == "cut k":
                    block.append(f"cut k={round(edges ** draw)}")
                elif kind == "cut threshold":
                    block.append(f"cut threshold={threshold(draw)}")
                elif kind == "member threshold":
                    block.append(f"member edge={rng.randrange(edges)} "
                                 f"threshold={threshold(draw)}")
                else:
                    block.append(f"member edge={rng.randrange(edges)}")
            begin = end
        rng.shuffle(block)
        yield from block


def repeat_frac(queries):
    """Share of the queries naming a cut (k= or threshold=) whose cut an
    earlier query already named."""
    seen, repeats, total = set(), 0, 0
    for query in queries:
        cut = re.search(r"\b(k|threshold)=(\S+)", query)
        if cut:
            total += 1
            repeats += cut.groups() in seen
            seen.add(cut.groups())
    return repeats / max(1, total)


def measure_end_to_end(name, spec, seed, seconds, threads, checks, context):
    input_path = WORK / f"{name}.edges"
    setup_times, input_digest, shape, server = setup(spec, seed, threads, checks, input_path)
    try:
        return measure_with_server(name, spec, seed, seconds, threads, checks, context,
                                   input_path, setup_times, input_digest, shape, server)
    finally:
        server.kill()


def measure_with_server(name, spec, seed, seconds, threads, checks, context, input_path,
                        setup_times, input_digest, shape, server):
    """Where the workload asks, an untimed warm-up (a serve run and a CLI
    run at T, both checked), then rounds while the next is expected to end
    within --seconds (at least min_rounds). A round is a serve `run` +
    `wait` and a CLI pair
    (--threads T and --threads 1, alternating which goes first), with a
    window of query blocks on the serve result after each of these runs.
    The windows sample the whole run, so a host slowdown of a few seconds
    moves few of the queries."""
    walls = {threads: [], 1: []}
    rss, digests, counts = [], {threads: set(), 1: set()}, set()
    serve_walls, serve_digests = [], set()
    serve_merges = WORK / f"{name}.serve.merges"
    edges = shape["edges"] if shape else 1
    sent, replies, latencies = [], [], []
    query_s = blocks = 0
    queries = None  # drawn once the first serve run gives the merge scores

    def cli(t, timed=True):
        merges = WORK / f"{name}.t{t}.merges"
        wall, peak, code, k = cli_run(spec, input_path, t, merges)
        if checks.check(code == 0 and k is not None, f"cluster --threads {t} succeeds"):
            digests[t].add(sha16(merges))
            counts.add(k)
            if timed:
                walls[t].append(wall)
                if t == threads:
                    rss.append(peak)

    def serve_run(timed=True):
        begin = time.perf_counter()
        launched = parse_reply(server.request(
            f"run mode={spec['mode']} threads={threads} merges={quote(serve_merges)}"))
        done = parse_reply(server.request("wait"))
        wall = time.perf_counter() - begin
        if checks.check(launched is not None and done is not None
                        and done.get("state") == "done", "serve run completes"):
            serve_digests.add(sha16(serve_merges))
            if timed:
                serve_walls.append(wall)

    # Client and server share one CPU during the query blocks. With one
    # closed-loop client they take turns, so this costs no parallelism, and
    # each reply is handed over on the same core: a cross-core wake-up on a
    # virtual machine costs what the hypervisor's schedule says (over four
    # otherwise equal sessions, p90 read 1.7-5.6 ms unpinned and 1.5-1.7 ms
    # pinned). The runs get every CPU back before they start.
    all_cpus = os.sched_getaffinity(0)
    query_cpu = {max(all_cpus)}

    def query_window():
        nonlocal queries
        if queries is None:
            queries = make_queries(seed, edges, merge_scores(serve_merges))
        server.pin(query_cpu)
        for _ in range(spec["blocks"]):
            query_block()
        server.pin(all_cpus)

    def query_block():
        nonlocal query_s, blocks
        begin = time.perf_counter()
        for query in itertools.islice(queries, QUERY_BLOCK):
            begin_ns = time.perf_counter_ns()
            replies.append(server.request(query))
            latencies.append((time.perf_counter_ns() - begin_ns) / 1e6)
            sent.append(query)
        query_s += time.perf_counter() - begin
        blocks += 1

    if spec["warmup"]:
        serve_run(timed=False)
        cli(threads, timed=False)
    start = time.perf_counter()
    rounds = 0
    while rounds < spec["min_rounds"] or \
            (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        serve_run()
        query_window()
        for t in (threads, 1) if rounds % 2 == 0 else (1, threads):
            cli(t)
            query_window()
        rounds += 1
    checks.check(server.close() == 0, "serve shuts down cleanly")

    checks.check(len(digests[threads]) == 1 and digests[threads] == digests[1],
                 f"merge list identical at T={threads} and T=1 over every repetition")
    cli_digest = next(iter(digests[threads]), None)
    cli_merges = WORK / f"{name}.t{threads}.merges"
    checks.check(serve_digests == {cli_digest}, "serve merge lists identical to the CLI's")
    checks.check(len(counts) == 1, "K1/K2 identical over every repetition")
    k1, k2 = next(iter(counts), (0, 0))
    observed = dict(shape or {}, k1=k1, k2=k2, input_sha256=input_digest,
                    merges_sha256=cli_digest)
    recorded = check_shape(name, seed, observed, checks)

    # Every reply against the direct Dendrogram::labels_* answer.
    query_file, answer_file = WORK / f"{name}.queries", WORK / f"{name}.answers"
    query_file.write_text("\n".join(sent) + "\n")
    (WORK / f"{name}.latencies").write_text("".join(f"{ms:.6f}\n" for ms in latencies))
    answer_file.unlink(missing_ok=True)
    _, _, code, _ = run_measured([str(TOOL), "answers", "--merges", str(cli_merges),
                                  "--mode", spec["mode"], "--edges", str(edges),
                                  "--queries", str(query_file), "--out", str(answer_file)])
    expected = answer_file.read_text().splitlines() if code == 0 else []
    wrong = sum(1 for i, reply in enumerate(replies)
                if i >= len(expected) or reply != expected[i])
    checks.count(len(replies), wrong, "query replies equal to the direct cut")

    # Pooled over every block, not the median of per-block figures: the
    # host's core switches between a fast and a ~45% slower state for a
    # second or more at a time, so block figures are bimodal and their median
    # flips with whether most windows drew the slow state; the pooled
    # percentiles move in proportion to the slow share.
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    context.update(
        input=observed, reference_seed=recorded,
        samples={"setup": len(setup_times), "rounds": rounds,
                 "wall_s": len(walls[threads]), "wall_s_serial": len(walls[1]),
                 "serve_runs": len(serve_walls), "query_blocks": blocks,
                 "queries": len(replies)},
        query_repeat_frac=repeat_frac(sent), query_p99_ms=percentiles[98],
        sample_values={"wall_s": walls[threads], "wall_s_serial": walls[1],
                       "serve_run_s": serve_walls, "setup_s": setup_times})
    return {
        "wall_s": median_or_zero(walls[threads]),
        "wall_s_serial": median_or_zero(walls[1]),
        "peak_rss_mb": median_or_zero(rss),
        "serve_peak_rss_mb": server.peak_rss_mb or 0.0,
        "setup_s": median(setup_times),
        "serve_run_s": median_or_zero(serve_walls),
        "query_p50_ms": percentiles[49],
        "query_p90_ms": percentiles[89],
        "queries_per_s": len(latencies) / query_s,
    }


# ------------------------------------------------------------------ trace --

def check_trace_file(path, checks):
    """The trace-event JSON must load and be well formed."""
    try:
        events = json.loads(Path(path).read_text())["traceEvents"]
        ids = {e["args"]["id"] for e in events}
        ok = bool(events) and all(
            e["ph"] == "X" and e["dur"] >= 0 and
            (e["args"]["parent"] == 0 or e["args"]["parent"] in ids) for e in events)
    except (OSError, ValueError, KeyError, TypeError):
        ok = False
    checks.check(ok, f"trace-event JSON {path.name} loads and is well formed")


def measure_per_layer(name, spec, seed, seconds, threads, checks, context):
    """Pairs of an untraced `linkcluster cluster` and a traced in-process
    pipeline (each a fresh process, alternating which goes first) until the
    budget is spent, then, where the workload asks, the serve comparison.
    The input and outputs are checked against reference.json as in --trace 0."""
    input_path = WORK / f"{name}.edges"
    digests = set()
    for _ in range(2):
        generate(spec, seed, input_path)
        digests.add(sha16(input_path))
    checks.check(len(digests) == 1, "input generation is deterministic")
    for stale in WORK.glob(f"{name}.*trace.json"):
        stale.unlink()
    cli_walls, tool_walls, reps, cli_digests = [], [], [], set()
    cli_merges, traced_merges = WORK / f"{name}.cli.merges", WORK / f"{name}.traced.merges"

    def run_cli(_):
        cli_merges.unlink(missing_ok=True)
        wall, _, code, _ = cli_run(spec, input_path, threads, cli_merges)
        if checks.check(code == 0, "untraced cluster succeeds"):
            cli_walls.append(wall)
            cli_digests.add(sha16(cli_merges))

    def run_tool(trace_file):
        traced_merges.unlink(missing_ok=True)
        wall, _, code, out = run_measured(
            [str(TOOL), "trace", "--input", str(input_path), "--mode", spec["mode"],
             "--threads", str(threads), "--reps", "1", "--merges", str(traced_merges),
             "--trace-out", str(trace_file)])
        try:
            rep = json.loads(out.splitlines()[0]) if code == 0 else None
        except (IndexError, ValueError):
            rep = None
        if checks.check(rep is not None, "traced pipeline succeeds"):
            tool_walls.append(wall)
            reps.append(rep)
            check_trace_file(trace_file, checks)

    start = time.perf_counter()
    pair = 0
    budget = seconds * (0.6 if spec["traced_queries"] else 1.0)
    while pair < 3 or time.perf_counter() - start < budget:
        trace_file = WORK / f"{name}.{pair}.trace.json"
        for step in (run_cli, run_tool) if pair % 2 == 0 else (run_tool, run_cli):
            step(trace_file)
        traced = sha16(traced_merges)
        checks.check(traced is not None and traced == sha16(cli_merges),
                     "traced merge list byte-identical to the CLI's")
        pair += 1

    metrics = {key: median(rep[key] for rep in reps) for key in reps[0] if key != "run"} \
        if reps else {}
    for rep in reps:
        checks.check(0.95 <= rep["trace.layer_sum_frac"] <= 1.05,
                     f"layer spans sum to {rep['trace.layer_sum_frac']:.3f} of the traced wall")
    if cli_walls and tool_walls:
        metrics["trace.overhead_frac"] = median(tool_walls) / median(cli_walls) - 1.0

    # The same reference check as --trace 0: input, shape and merge list.
    shapes = {tuple(int(rep[key]) for key in ("input.vertices", "input.edges",
                                              "core.similarity.k1", "core.similarity.k2"))
              for rep in reps}
    checks.check(len(shapes) == 1, "|V|, |E|, K1, K2 identical over every traced repetition")
    checks.check(len(cli_digests) == 1, "CLI merge list identical over every repetition")
    vertices, edges, k1, k2 = next(iter(shapes), (0, 0, 0, 0))
    observed = dict(vertices=vertices, edges=edges, k1=k1, k2=k2,
                    input_sha256=digests.pop(), merges_sha256=next(iter(cli_digests), None))
    recorded = check_shape(name, seed, observed, checks)

    serve_samples = 0
    if spec["traced_queries"]:
        query_file = WORK / f"{name}.trace.queries"
        queries = make_queries(seed, count_edges(input_path), merge_scores(cli_merges))
        query_file.write_text("\n".join(itertools.islice(queries, spec["traced_queries"])) + "\n")
        trace_file = WORK / f"{name}.serve.trace.json"
        _, _, code, out = run_measured(
            [str(TOOL), "trace", "--input", str(input_path), "--mode", spec["mode"],
             "--threads", str(threads), "--reps", "0", "--merges", str(traced_merges),
             "--trace-out", str(trace_file), "--queries", str(query_file)])
        try:
            serve = json.loads(out.splitlines()[-1]) if code == 0 else None
        except (IndexError, ValueError):
            serve = None
        if checks.check(serve is not None, "traced serve comparison succeeds"):
            for key in ("serve.run_overhead_s", "core.dendrogram.cut_ms",
                        "serve.query_overhead_ms"):
                metrics[key] = serve[key]
            serve_samples = int(serve["queries"])
            checks.count(serve_samples, int(serve["mismatches"]),
                         "in-process serve replies equal to the direct cut")
            for suffix in (".direct", ".direct.serve"):
                merges = sha16(str(traced_merges) + suffix)
                checks.check(merges is not None and merges == sha16(cli_merges),
                             f"in-process {suffix[1:]} merge list identical to the CLI's")
            check_trace_file(trace_file, checks)
    traces = sorted(WORK.glob(f"{name}.*trace.json"))
    context.update(input=observed, reference_seed=recorded,
                   samples={"traced_reps": len(reps), "untraced_reps": len(cli_walls),
                            "serve_queries": serve_samples},
                   traces=[os.path.relpath(path, ROOT) for path in traces])
    return metrics


def count_edges(path):
    with open(path) as f:
        return sum(1 for line in f if line and not line.startswith("#"))


def record(seed, threads):
    """Adds seed's inputs and outputs to reference.json: run this on a commit
    whose output is known good, and only when the output is meant to change."""
    reference = load_reference() if REFERENCE.is_file() else {"held_out_seed": 101,
                                                               "workloads": {}}
    for name, spec in WORKLOADS.items():
        checks = Checks()
        input_path = WORK / f"{name}.edges"
        _, input_digest, shape, server = setup(spec, seed, threads, checks, input_path)
        server.close()
        digests, counts = set(), set()
        for t in (threads, 1):
            merges = WORK / f"{name}.record.t{t}.merges"
            _, _, code, k = cli_run(spec, input_path, t, merges)
            checks.check(code == 0, f"cluster --threads {t} succeeds")
            digests.add(sha16(merges))
            counts.add(k)
        if checks.failed or len(digests) != 1 or len(counts) != 1 or shape is None:
            raise BenchError(f"not recording {name}: {checks.failures or 'T=1 differs from T'}")
        k1, k2 = counts.pop()
        reference["workloads"].setdefault(name, {})[str(seed)] = dict(
            shape, k1=k1, k2=k2, input_sha256=input_digest, merges_sha256=digests.pop())
        log(f"recorded {name} seed {seed}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------------- main --

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record this seed's reference digests instead of measuring")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    info = build()
    WORK.mkdir(parents=True, exist_ok=True)
    threads = min(4, len(os.sched_getaffinity(0)))
    if args.record:
        record(args.seed, threads)
        return 0
    signal.signal(signal.SIGTERM, on_stop)
    signal.signal(signal.SIGALRM, on_stop)
    signal.alarm(170)  # a hung child must not outlive the 180 s limit on a run
    spec = WORKLOADS[args.workload]
    checks = Checks()
    context = {"workload": args.workload, "seed": args.seed,
               "generator_seed": GENERATOR_SEED_BASE[spec["graph"]] + args.seed,
               "nproc": len(os.sched_getaffinity(0)), "threads": threads,
               "compiler": info["compiler"], "build_type": info["build_type"],
               "clear_refs": info["clear_refs"], "trace": args.trace}
    measure = measure_per_layer if args.trace else measure_end_to_end
    steal0, total0 = cpu_times()
    metrics = measure(args.workload, spec, args.seed, args.seconds, threads, checks, context)
    steal1, total1 = cpu_times()
    # Time the hypervisor gave other guests: a noisy-host marker.
    context["steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    # A layer that does not run on this workload reports 0; a missing
    # end-to-end metric is a bug in this script.
    context["not_run"] = sorted(set(units) - set(metrics))
    if context["not_run"] and not args.trace:
        raise BenchError(f"end-to-end metrics not measured: {context['not_run']}")

    failed = checks.failed
    context["fail_frac"] = failed / max(1, checks.attempted)
    context["failures"] = checks.failures[:10]
    for key, unit in units.items():
        print(f"{args.workload:14s} {key:36s} {metrics.get(key, 0.0):16.6f} {unit}")
    print(f"{args.workload:14s} {'fail_frac':36s} {context['fail_frac']:16.6f} ratio")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics.get(key, 0.0), "unit": unit}
                    for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        print(f"pipebench: {error}", file=sys.stderr)
        sys.exit(2)
