#!/usr/bin/env python3
"""End-to-end benchmark of mobsrv: serve streams, a sparse persistent serve,
and a corpus tournament, with a per-layer trace.

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 12 --trace 0

Run it from the root of a mobsrv checkout. It builds mobsrv_serve,
mobsrv_tournament and perfbench_probe from source into .bench_build/,
generates every input from --seed, measures for --seconds, checks the
programs' outputs and prints one JSON object as its last stdout line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Scratch files go to .bench_run/. perfbench/README.md explains each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RUN_DIR = ROOT / ".bench_run"
SERVE = BUILD_DIR / "mobsrv" / "mobsrv_serve"
TOURNAMENT = BUILD_DIR / "mobsrv" / "mobsrv_tournament"
PROBE = BUILD_DIR / "perfbench_probe"
# Relative to ROOT (every child runs there): Unix socket paths must stay short.
SOCKET = ".bench_run/serve.sock"

WORKLOADS = ("serve-stream", "serve-persist", "tournament-batch")
SERVE_CONFIG = {"serve-stream": "stream", "serve-persist": "persist"}
HOT_LANES = 64  # tenants streaming at once, in both serve configs (probe.cpp)
SERVE_THREADS = 2
# Headroom for host stalls in the open loop: 512 queued steps per tenant is
# about 1 s of serve-stream's offered rate before a `req` bounces.
MAX_INFLIGHT = 512
TOURNAMENT_THREADS = 4
PERSIST_EVERY = 16384  # --checkpoint-every / --metrics-every of serve-persist

# Closed-loop peaks of the parent commit on the reference machine, in
# steps/s (baseline.json). They size the fixed-work closed-loop phase to
# about --seconds / 2, so every run serves the same steps and the resident
# memory, which grows with history, is comparable.
NOMINAL_PEAK = {"serve-stream": 62000, "serve-persist": 56000}
# Open-loop offered rates in steps/s, fixed once at about half the parent
# commit's closed-loop peak. Never re-derived per run: a faster server must
# show as lower latency here, not as a different offered load.
OPEN_RATE = {"serve-stream": 30000, "serve-persist": 28000}
# The closed loop's measured steps are cut into equal windows. On
# serve-persist each window is one save period, so every window pays for
# one snapshot and metrics save.
CLOSED_WINDOWS = 20
# The open-loop phase is cut into equal windows of its schedule. Latency
# metrics are taken per window, then across windows (serve_metrics).
# serve-stream uses 0.1 s windows, which keep its rare multi-ms stalls
# (history growth, the host) out of most windows. serve-persist takes the
# whole phase as one window: its tail is the periodic snapshot and metrics
# save, the stall this workload exists to show, and it recurs so often that
# the whole-phase p99 is steady.
OPEN_WINDOWS = {"serve-stream": 100, "serve-persist": 1}
# A window whose sender ran later than this at p99 measured the generator,
# not the service, and is dropped: about one round period (2.1 ms) on
# serve-stream, a seventh of serve-persist's save-stall p99 (about 75 ms).
# A phase with fewer than half its windows valid is repeated, then refused.
LAG_BOUND_US = {"serve-stream": 2000.0, "serve-persist": 10000.0}
OPEN_LOOP_ATTEMPTS = 2
# Windows and repeated one-shot timings report this low quantile of their
# times (and the matching high quantile of rates): host noise only adds.
BEST_DECILE = 0.1
WARMUP_STEPS = HOT_LANES * 400  # closed loop before the measured window (not reported)
SETUP_REPS = {"serve-stream": 11, "serve-persist": 9, "tournament-batch": 7}
RECOVERY_REPS = {"serve-stream": 9, "serve-persist": 9, "tournament-batch": 5}
CORPUS_RESEEDS = 4
HORIZON_SCALE = 16
# Wall time of one 16-file tournament job of the parent commit on the
# reference machine: a run makes --seconds / NOMINAL_JOB_S jobs.
NOMINAL_JOB_S = 0.85


# Every child process this run starts, so none outlives it (main's finally).
CHILDREN: list[subprocess.Popen] = []


def spawn(args: list[str], **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen(args, cwd=ROOT, **kwargs)
    CHILDREN.append(proc)
    return proc


def stop_children() -> None:
    for proc in CHILDREN:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A run that cannot produce a result (build failure, dead server)."""


class Checks:
    """The output oracle: every failed check is kept and reported."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            log(f"CHECK FAILED: {message}")


# --------------------------------------------------------------------------
# Build and processes
# --------------------------------------------------------------------------


def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no mobsrv source tree (CMakeLists.txt, src/)")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    targets = ["mobsrv_serve", "mobsrv_tournament", "perfbench_probe"]
    command = ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        raise BenchError("build failed")


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Waits for \\p proc (killing it after \\p timeout s); returns its exit
    code and peak resident set (VmHWM, from wait4) in MB."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"{proc.args[0]} did not exit within {timeout:.0f} s")
        time.sleep(0.0002)


class Server:
    """One mobsrv_serve process on the benchmark's Unix socket."""

    def __init__(self, workload: str, resume: bool = False, transport: bool = True) -> None:
        args = [str(SERVE), f"--threads={SERVE_THREADS}", f"--max-inflight={MAX_INFLIGHT}"]
        if transport:
            args.append(f"--unix={SOCKET}")
        if workload == "serve-persist":
            # fsync time belongs to the sandbox's disk, not to the program.
            args += [f"--snapshot={RUN_DIR.name}/persist.snap",
                     f"--checkpoint-every={PERSIST_EVERY}",
                     f"--metrics-out={RUN_DIR.name}/persist.metrics",
                     f"--metrics-every={PERSIST_EVERY}", "--no-durable"]
            if resume:
                args.append("--resume")
        else:
            args.append("--lean")
        if transport and os.path.exists(ROOT / SOCKET):
            os.unlink(ROOT / SOCKET)
        self.log = open(RUN_DIR / "serve.log", "ab")
        self.spawned_ns = time.monotonic_ns()
        pipe = subprocess.DEVNULL if transport else subprocess.PIPE
        self.proc = spawn(args, stdin=pipe, stdout=pipe, stderr=self.log)

    def wait(self, timeout: float = 60.0) -> tuple[int, float]:
        try:
            return reap(self.proc, timeout)
        finally:
            self.log.close()


class Client:
    """A small blocking NDJSON client for control frames (stats, kill, shutdown)."""

    def __init__(self, deadline_s: float = 30.0) -> None:
        deadline = time.monotonic() + deadline_s
        while True:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self.sock.connect(SOCKET)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                self.sock.close()
                if time.monotonic() > deadline:
                    raise BenchError("cannot connect to mobsrv_serve")
                time.sleep(0.00002)
        self.buffer = b""

    def send(self, frame: str) -> None:
        self.sock.sendall(frame.encode() + b"\n")

    def read_frame(self) -> dict:
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("mobsrv_serve closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def close(self) -> None:
        self.sock.close()


def probe(*args: str, timeout: float = 170.0) -> str:
    result = subprocess.run([str(PROBE), *args], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, timeout=timeout, text=True)
    if result.returncode != 0:
        raise BenchError(f"perfbench_probe {args[0]} failed (exit {result.returncode})")
    return result.stdout


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, 0 <= q <= 1."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# --------------------------------------------------------------------------
# Serve workloads
# --------------------------------------------------------------------------


def load_run(workload: str, seed: int, server: Server, seconds: float, end: str,
             metrics_out: str | None = None) -> dict:
    """One perfbench_probe load session against \\p server: --seconds / 2 of
    closed-loop work at the nominal peak, then --seconds / 2 of open loop."""
    out = RUN_DIR / "load.json"
    closed_steps = int(NOMINAL_PEAK[workload] * seconds / 2)
    if workload == "serve-persist" and closed_steps > 0:
        # Whole windows of one save period each.
        unit = CLOSED_WINDOWS * PERSIST_EVERY
        closed_steps = max(1, round(closed_steps / unit)) * unit
    args = ["load", f"--socket={SOCKET}", f"--config={SERVE_CONFIG[workload]}", f"--seed={seed}",
            f"--closed-steps={closed_steps}", f"--closed-windows={CLOSED_WINDOWS}",
            f"--warmup-steps={WARMUP_STEPS if seconds else 0}",
            f"--open={seconds / 2}", f"--rate={OPEN_RATE[workload]}",
            f"--open-windows={OPEN_WINDOWS[workload]}", f"--end={end}",
            f"--server-pid={server.proc.pid}", f"--out={out}"]
    if metrics_out:
        args.append(f"--metrics-out={metrics_out}")
    probe(*args)
    return json.loads(out.read_text())


def check_session(checks: Checks, summary: dict, label: str) -> None:
    checks.expect(summary["gaps"] == 0, f"{label}: {summary['gaps']} outcome t gaps")
    checks.expect(summary["oracle"]["mismatches"] == 0,
                  f"{label}: sampled tenant totals differ from the sim::Session replay")
    checks.expect(len(summary["oracle"]["checked"]) > 0, f"{label}: no tenant replayed")
    for message in summary["messages"]:
        log(f"{label}: {message}")


def serve_setup_sample(workload: str, seed: int) -> float:
    """Spawn → every `opened` frame, for one fresh server (then killed)."""
    server = Server(workload)
    summary = load_run(workload, seed, server, 0, "kill")
    server.wait()
    return (summary["opened_all_ns"] - server.spawned_ns) / 1e9


def serve_main(workload: str, seed: int, seconds: float, checks: Checks,
               metrics_out: str | None = None) -> tuple[dict, float, float]:
    """The measured session: closed loop, open loop, end. Returns the load
    summary, the server's peak RSS in MB and its setup time in s."""
    if workload == "serve-persist":
        for stale in RUN_DIR.glob("persist.*"):
            stale.unlink()
    end = "checkpoint-kill" if workload == "serve-persist" else "shutdown"
    for _ in range(OPEN_LOOP_ATTEMPTS):
        server = Server(workload)
        summary = load_run(workload, seed, server, seconds, end, metrics_out)
        code, rss = server.wait()
        valid = valid_windows(workload, summary)
        windows = len(summary["open"]["window_lag_p99_ns"])
        if 2 * len(valid) >= windows:
            break
        log(f"open-loop sender ran over {LAG_BOUND_US[workload]:.0f} us late at p99 in "
            f"{windows - len(valid)} of {windows} windows: phase invalid")
    else:
        raise BenchError("open-loop phase invalid on every attempt: the generator, not the "
                         "service, was measured")
    expected = 3 if end == "checkpoint-kill" else 0
    checks.expect(code == expected, f"{workload}: server exited {code}, expected {expected}")
    check_session(checks, summary, workload)
    if end == "shutdown":
        checks.expect(summary["bye_steps"] == summary["outcomes"],
                      f"bye reports {summary['bye_steps']} steps, {summary['outcomes']} outcomes received")
    else:
        checks.expect(summary["checkpointed_steps"] == summary["outcomes"],
                      "last checkpointed frame does not cover every outcome received")
        checks.expect(summary["checkpoints"] >= 2, "serve-persist saved fewer than 2 snapshots")
    setup = (summary["opened_all_ns"] - server.spawned_ns) / 1e9
    return summary, rss, setup


def recovery_samples(workload: str, summary: dict, checks: Checks) -> list[float]:
    """kill → restart (with --resume for serve-persist) → first answered
    stats, timed from the moment the kill frame is sent."""
    persist = workload == "serve-persist"
    stats = '{"type":"stats","tenant":"t0"}' if persist else '{"type":"stats"}'
    # serve-persist: the measured session ended in checkpoint + kill, so the
    # first restart resumes it; serve-stream starts from a fresh server.
    server = Server(workload, resume=persist)
    client = Client()
    samples = []
    for rep in range(RECOVERY_REPS[workload] + 1):
        if rep > 0:
            client.send('{"type":"kill"}')
            kill_ns = time.monotonic_ns()
            code, _ = server.wait()
            client.close()
            checks.expect(code == 3, f"recovery: killed server exited {code}")
            server = Server(workload, resume=persist)
            client = Client()
        client.send(stats)
        reply = client.read_frame()
        if rep > 0:
            samples.append((time.monotonic_ns() - kill_ns) / 1e9)
            log(f"recovery {rep}: {samples[-1] * 1000:.1f} ms")
        checks.expect(reply.get("type") == "stats", f"recovery: expected stats, got {reply}")
        if persist:
            checks.expect(reply.get("steps") == summary["checkpointed_steps"],
                          f"after --resume stats reports {reply.get('steps')} steps, last "
                          f"checkpointed frame {summary['checkpointed_steps']}")
        if persist and rep == 0:
            # A restored process's first save is a fresh base, so every timed
            # restart reads the same compacted chain, not however many
            # deltas the measured session happened to leave.
            client.send('{"type":"checkpoint"}')
            while client.read_frame().get("type") != "checkpointed":
                pass
    client.send('{"type":"shutdown"}')
    bye = client.read_frame()
    while bye.get("type") != "bye":
        bye = client.read_frame()
    if persist:
        checks.expect(bye.get("steps") == summary["outcomes"],
                      f"resumed bye reports {bye.get('steps')} steps, "
                      f"{summary['outcomes']} outcomes were received")
    code, _ = server.wait()
    checks.expect(code == 0, f"recovery: resumed server exited {code} on shutdown")
    client.close()
    return samples


def valid_windows(workload: str, summary: dict) -> list[int]:
    """Open-loop windows whose sender kept to its schedule."""
    lags = summary["open"]["window_lag_p99_ns"]
    return [i for i, lag in enumerate(lags) if lag <= LAG_BOUND_US[workload] * 1000]


def serve_metrics(workload: str, summary: dict) -> dict:
    """A shared machine only ever slows a window down, so each phase reports
    what the program sustains when the machine lets it: a high decile of the
    closed-loop windows' rates, a low decile of the valid open-loop windows'
    percentiles."""
    opened = summary["open"]
    valid = valid_windows(workload, summary)
    return {
        "steps_per_s": quantile(summary["closed"]["window_steps_per_s"], 1 - BEST_DECILE),
        "latency_p50_us": quantile([opened["window_p50_ns"][i] for i in valid], BEST_DECILE) / 1000.0,
        "latency_p99_us": quantile([opened["window_p99_ns"][i] for i in valid], BEST_DECILE) / 1000.0,
    }


def serve_workload(workload: str, seed: int, seconds: float, checks: Checks) -> dict:
    summary, rss, setup = serve_main(workload, seed, seconds, checks)
    recovery = recovery_samples(workload, summary, checks)
    setups = [setup] + [serve_setup_sample(workload, seed) for _ in range(SETUP_REPS[workload] - 1)]
    failed = summary["busys"] + summary["errors"] + summary["open"]["missing"]
    return {
        "attempted": summary["reqs"],
        "failed": failed,
        "metrics": {
            **serve_metrics(workload, summary),
            "setup_s": quantile(setups, BEST_DECILE),
            "recovery_s": quantile(recovery, BEST_DECILE),
            "rss_peak_mb": rss,
        },
    }


# --------------------------------------------------------------------------
# Tournament workload
# --------------------------------------------------------------------------


def reseed(seed: int, copy: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}/{copy}/{name}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def write_corpora(seed: int) -> list[Path]:
    """The committed scenarios, re-seeded from \\p seed CORPUS_RESEEDS times
    with horizons × HORIZON_SCALE (CSV-driven kinds stay as committed): one
    16-file corpus directory per copy."""
    source = ROOT / "scenarios"
    dirs = []
    for copy in range(CORPUS_RESEEDS):
        target = RUN_DIR / f"corpus-{copy}"
        if target.exists():
            shutil.rmtree(target)
        shutil.copytree(source / "data", target / "data")
        for path in sorted(source.glob("*.json")):
            doc = json.loads(path.read_text())
            name = doc["name"]
            doc["name"] = f"{name}-r{copy}"
            doc["seed"] = reseed(seed, copy, name)
            params = doc.get("params", {})
            if "horizon" in params:
                params["horizon"] *= HORIZON_SCALE
            (target / f"{doc['name']}.json").write_text(json.dumps(doc, indent=2) + "\n")
        dirs.append(target)
    return dirs


def tournament(corpus: Path, threads: int, extra: tuple[str, ...] = ()) -> subprocess.Popen:
    return spawn([str(TOURNAMENT), f"--corpus={corpus}", f"--threads={threads}", "--json", *extra],
                 stdout=subprocess.PIPE, stderr=sys.stderr)


def run_job(corpus: Path, threads: int, extra: tuple[str, ...] = ()) -> tuple[bytes, float, int, float]:
    """One tournament process: (report, seconds, exit code, rss MB)."""
    start = time.monotonic_ns()
    proc = tournament(corpus, threads, extra)
    report = proc.stdout.read()
    code, rss = reap(proc, 170.0)
    return report, (time.monotonic_ns() - start) / 1e9, code, rss


def check_report(checks: Checks, report: bytes, cells: int, label: str) -> None:
    try:
        doc = json.loads(report)
    except ValueError:
        checks.expect(False, f"{label}: report is not JSON")
        return
    checks.expect(len(doc.get("cells", [])) == cells,
                  f"{label}: {len(doc.get('cells', []))} cells, expected {cells}")
    checks.expect(len(doc.get("leaderboard", [])) == 7, f"{label}: leaderboard is not 7 rows")
    checks.expect(not doc.get("skipped"), f"{label}: skipped scenarios {doc.get('skipped')}")


def tournament_workload(seed: int, seconds: float, checks: Checks) -> dict:
    corpora = write_corpora(seed)
    shape = [json.loads(probe("cells", f"--corpus={corpus}")) for corpus in corpora]

    # Oracle: the committed starter corpus is byte-identical at 1 and 4 threads.
    starter = [run_job(ROOT / "scenarios", threads) for threads in (1, TOURNAMENT_THREADS)]
    checks.expect(all(job[2] == 0 for job in starter), "starter-corpus tournament failed")
    checks.expect(starter[0][0] == starter[1][0],
                  "starter-corpus report differs between --threads=1 and --threads=4")

    # Warm-up: the first job after a pause runs from cold caches; its report
    # is the reference the measured jobs must reproduce byte for byte.
    report, _, code, _ = run_job(corpora[0], TOURNAMENT_THREADS)
    checks.expect(code == 0, "warm-up tournament failed")
    reports: dict[int, bytes] = {0: report}

    setups = []
    for _ in range(SETUP_REPS["tournament-batch"]):
        report, wall, code, _ = run_job(corpora[0], TOURNAMENT_THREADS, ("--algorithms=Static",))
        checks.expect(code == 0, "set-up tournament failed")
        setups.append(wall)

    latencies, rss, steps, wall_total, attempted, failed = [], [], 0, 0.0, 0, 0
    for job in range(max(len(corpora), round(seconds / NOMINAL_JOB_S))):
        copy = job % len(corpora)
        report, wall, code, peak = run_job(corpora[copy], TOURNAMENT_THREADS)
        attempted += 1
        if code != 0:
            failed += 1
            checks.expect(False, f"tournament over corpus-{copy} exited {code}")
            continue
        check_report(checks, report, shape[copy]["cells"], f"corpus-{copy}")
        checks.expect(reports.setdefault(copy, report) == report,
                      f"corpus-{copy} report changed between identical runs")
        latencies.append(wall)
        rss.append(peak)
        steps += shape[copy]["cell_steps"]
        wall_total += wall

    # Recovery: kill a running tournament, restart it, time to its report.
    recovery = []
    for rep in range(RECOVERY_REPS["tournament-batch"]):
        copy = rep % len(corpora)
        proc = tournament(corpora[copy], TOURNAMENT_THREADS)
        time.sleep(0.2)
        proc.send_signal(signal.SIGKILL)
        kill_ns = time.monotonic_ns()
        reap(proc, 30.0)
        proc.stdout.close()
        report, _, code, _ = run_job(corpora[copy], TOURNAMENT_THREADS)
        recovery.append((time.monotonic_ns() - kill_ns) / 1e9)
        log(f"recovery {rep}: {recovery[-1] * 1000:.1f} ms")
        checks.expect(code == 0 and report == reports.get(copy, report),
                      f"restarted tournament over corpus-{copy} differs from its earlier report")

    ordered = sorted(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "steps_per_s": steps / wall_total,
            "latency_p50_us": median(latencies) * 1e6,
            "latency_p99_us": ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))] * 1e6,
            "setup_s": quantile(setups, BEST_DECILE),
            "recovery_s": quantile(recovery, BEST_DECILE),
            "rss_peak_mb": median(rss),
        },
    }


# --------------------------------------------------------------------------
# Traced run: per-layer metrics
# --------------------------------------------------------------------------


def stdin_rung(workload: str, seed: int) -> float:
    """The same recorded input piped through stdin: write syscalls per step
    (the service flushes once per pump, so this counts pumps)."""
    config = SERVE_CONFIG[workload]
    rounds = 200
    script = RUN_DIR / "stdin.ndjson"
    script.write_text(probe("script", f"--config={config}", f"--seed={seed}", f"--rounds={rounds}"))
    steps = rounds * HOT_LANES
    if workload == "serve-persist":
        for stale in RUN_DIR.glob("persist.*"):
            stale.unlink()
    server = Server(workload, transport=False)

    def feed() -> None:
        with open(script, "rb") as source:
            shutil.copyfileobj(source, server.proc.stdin)

    writer = threading.Thread(target=feed)
    writer.start()
    outcomes = 0
    for line in server.proc.stdout:
        if line.startswith(b'{"type":"outcome"'):
            outcomes += 1
            if outcomes == steps:
                break
    writer.join()
    fields = dict(line.split(":") for line in (Path(f"/proc/{server.proc.pid}/io").read_text().splitlines()))
    server.proc.stdin.close()
    server.proc.stdout.read()
    server.wait()
    return int(fields["syscw"]) / steps


def traced_workload(workload: str, seed: int, seconds: float, checks: Checks) -> dict:
    serve = workload if workload in SERVE_CONFIG else "serve-stream"
    # Tournament traces borrow a short serve-stream session for the transport rungs.
    socket_seconds = seconds if workload in SERVE_CONFIG else min(seconds, 4.0)
    metrics_path = RUN_DIR / "final-metrics.json"
    summary, _, _ = serve_main(serve, seed, socket_seconds, checks, str(metrics_path))
    if serve == "serve-persist":
        recovery_samples(serve, summary, checks)
    closed = summary["closed"]
    socket_ns_per_step = 1e9 * closed["seconds"] / closed["steps"]

    corpora = write_corpora(seed)
    ladder_dir = RUN_DIR / "ladder-corpus"
    if ladder_dir.exists():
        shutil.rmtree(ladder_dir)
    shutil.copytree(corpora[0] / "data", ladder_dir / "data")
    for corpus in corpora:
        for path in corpus.glob("*.json"):
            shutil.copy(path, ladder_dir / path.name)
    spans = RUN_DIR / f"spans-{workload}-{seed}.ndjson"
    out = RUN_DIR / "ladder.json"
    probe("ladder", f"--workload={'tournament' if workload == 'tournament-batch' else SERVE_CONFIG[workload]}",
          f"--seed={seed}", f"--run-dir={RUN_DIR}", f"--corpus={ladder_dir}",
          f"--threads={TOURNAMENT_THREADS}", f"--spans={spans}", f"--out={out}")
    layers = json.loads(out.read_text())
    log(f"spans written to {spans.relative_to(ROOT)}")

    ingest = layers.pop("service.ingest_p99_us")
    final = json.loads(metrics_path.read_text())
    for metric in final["metrics"]:
        if metric["name"] == "serve.ingest_latency_ns" and metric["count"] > 0:
            ingest = metric["p99"] / 1000.0  # the socket server's own histogram
    layers.update({
        "service.ingest_p99_us": ingest,
        "transport.ns_per_step": socket_ns_per_step - layers["service.ns_per_step"],
        "transport.read_syscalls_per_step": closed["server_syscr"] / closed["steps"],
        "transport.write_syscalls_per_step": closed["server_syscw"] / closed["steps"],
        "transport.stdin_write_syscalls_per_step": stdin_rung(serve, seed),
        "gen.lag_p99_us": summary["open"]["lag_p99_ns"] / 1000.0,
    })
    return {"attempted": summary["reqs"], "failed": summary["busys"] + summary["errors"]
            + summary["open"]["missing"], "metrics": layers}


# --------------------------------------------------------------------------


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        RUN_DIR.mkdir(exist_ok=True)
        checks = Checks()
        if args.trace:
            result = traced_workload(args.workload, args.seed, args.seconds, checks)
        elif args.workload in SERVE_CONFIG:
            result = serve_workload(args.workload, args.seed, args.seconds, checks)
        else:
            result = tournament_workload(args.seed, args.seconds, checks)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as error:
        log(f"error: {error}")
        return 1
    finally:
        stop_children()
    unit = units()
    report = {
        "correct": not checks.failures,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in result["metrics"].items()},
    }
    for failure in checks.failures:
        log(f"output check failed: {failure}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
