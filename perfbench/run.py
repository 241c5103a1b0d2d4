"""promptshap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, as a closed loop: one caller, one job in
flight. Jobs go through ``promptshap.cli.main``, the same entry point as the
``promptshap`` command, on inputs generated from the seed into a scratch
directory inside the checkout. Every job's output is checked against an
independent reference.

With ``--trace 0`` the last stdout line holds the end-to-end metrics: medians
of set-up, primary-job and follow-up-job times over the run, and peak RSS.
With ``--trace 1`` it holds the per-layer metrics of traced iterations, taken
with wrappers around each module's public entry points (see ``tracing.py``),
and the tracing overhead. The line before it records the environment, the
per-command names (value_s, curve_s, learn_s, predict_s, api_calls,
error_rate) and the sample counts.
"""

import os

# One BLAS thread, so that on a small machine the numbers measure promptshap
# and not the thread scheduler. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import urllib.request  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("exact-vote", "mc-cached", "live-stub", "learn-gp")

E2E_UNITS = {"setup_s": "s", "job_cal": "cal", "followup_cal": "cal", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "ensemble.oracle_calls": "count",
    "ensemble.oracle_busy_s": "s",
    "ensemble.oracle_p50_us": "us",
    "ensemble.oracle_p99_us": "us",
    "ensemble.load_s": "s",
    "game.evals": "count",
    "game.self_s": "s",
    "game.distinct_ratio": "ratio",
    "coalition.constructed": "count",
    "coalition.construct_ns": "ns",
    "rng.shuffles": "count",
    "rng.draws": "count",
    "rng.shuffle_us": "us",
    "cache.load_s": "s",
    "cache.load_entries": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_busy_s": "s",
    "cache.put_calls": "count",
    "cache.put_busy_s": "s",
    "cache.bytes_written": "B",
    "client.requests": "count",
    "client.retries": "count",
    "client.failed": "count",
    "client.rtt_p50_ms": "ms",
    "client.rtt_p99_ms": "ms",
    "client.self_s": "s",
    "client.digest_us": "us",
    "stub.service_s": "s",
    "selection.curve_s": "s",
    "selection.oracle_calls": "count",
    "learning.holdout_s": "s",
    "learning.fit_s": "s",
    "learning.predict_s": "s",
    "learning.kernel_bytes": "B-computed",
    "jsonio.read_s": "s",
    "jsonio.rows": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# Share of the run's time each kind of job should fill. The kinds interleave,
# so slow drifts in machine speed reach every metric alike.
SHARES = {"primary": 0.65, "followup": 0.25, "setup": 0.10}
MIN_RUNS = {"primary": 2, "followup": 3, "setup": 5}
MAX_RUNS = {"primary": 50, "followup": 400, "setup": 80}
MAX_TRACED_PAIRS = 5
MAX_PROBLEMS_SHOWN = 5


class SetupDone(BaseException):
    """Raised at the set-up boundary to end a set-up-only job.

    A BaseException, so the CLI's last-resort ``except Exception`` lets it pass.
    """


class SetupBoundary:
    """Marks where a job's set-up ends: its first call into a valuation engine,
    or into ``learn``'s holdout evaluation.

    With a ``calibration`` set, an engine's utility calls also give it the
    chance to sample machine speed while a long job runs; the pauses are
    subtracted from the job's time.
    """

    def __init__(self, patcher):
        from promptshap import game, learning

        self.at = None
        self.stop = False
        self.calibration = None
        for name in ("shapley_exact", "shapley_montecarlo", "loo_values"):
            patcher.function(game, name, lambda f: self._hook(f, engine=True))
        patcher.function(learning, "holdout_eval", lambda f: self._hook(f, engine=False))

    def _hook(self, original, engine: bool):
        def entered(*args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
            if self.stop:
                raise SetupDone
            if engine and self.calibration is not None:
                args = (self._probed(args[0]), *args[1:])
            return original(*args, **kwargs)

        return entered

    def _probed(self, spec):
        calibration, utility = self.calibration, spec.utility

        def probed(coalition):
            if time.perf_counter() >= calibration.due:
                calibration.pause()
            return utility(coalition)

        return dataclasses.replace(spec, utility=probed)


class Stub:
    """The stub endpoint in its own process; see ``stub.py``."""

    def __init__(self, fail_every: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), str(fail_every)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.stop()
            raise RuntimeError("the stub endpoint did not start")
        self.url = f"http://127.0.0.1:{port}"

    def reset(self) -> None:
        request = urllib.request.Request(self.url + "/_reset", data=b"{}", method="POST")
        with urllib.request.urlopen(request, timeout=30) as resp:
            resp.read()

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/_stats", timeout=30) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


class Calibration:
    """Machine speed, sampled all through a run with a fixed mix of interpreter
    work and memory-bound numpy work.

    On a shared machine the speed of the same code drifts by a fifth or more
    over tens of seconds. Each job's time is divided by the mean calibration
    time around and during it, giving the job's cost in "cal" units, which
    cancels most of that drift; raw seconds go on the detail line.
    """

    REPEATS = 3
    EVERY_S = 0.5

    def __init__(self):
        import numpy

        self.x = numpy.random.default_rng(0).normal(size=(64, 300))
        self.points: list[tuple[float, float]] = []   # (when, seconds)
        self.due = 0.0
        self.paused_s = 0.0

    def _once(self) -> float:
        import numpy

        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        diff = self.x[:, None, :] - self.x[None, :, :]
        numpy.einsum("ijk,ijk->ij", diff, diff)
        return time.perf_counter() - start

    def sample(self) -> None:
        seconds = statistics.median(self._once() for _ in range(self.REPEATS))
        now = time.perf_counter()
        self.points.append((now, seconds))
        self.due = now + self.EVERY_S

    def pause(self) -> None:
        """Sample from inside a job; the job's time excludes the pause."""
        start = time.perf_counter()
        self.sample()
        self.paused_s += time.perf_counter() - start

    def cost(self, seconds: float, start: float, end: float) -> float:
        """A job's time over the mean calibration time around and during it."""
        near = [c for t, c in self.points if t <= start][-1:] + \
            [c for t, c in self.points if start < t < end] + \
            [c for t, c in self.points if t >= end][:1]
        return seconds / statistics.fmean(near)

    def median_s(self) -> float:
        return _median([c for _, c in self.points])


class Runner:
    """Runs one workload's jobs, checks them, and collects their timings."""

    def __init__(self, workload, work: Path, seconds: float, stub=None):
        from promptshap import cli

        self.cli = cli
        self.wl = workload
        self.work = work
        self.seconds = seconds
        self.stub = stub
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # (seconds, job start, job end) per checked job
        self.samples: dict[str, list[tuple[float, float, float]]] = {
            "setup": [], "primary": [], "followup": []}
        self.api_calls = {"primary": [], "followup": []}
        self.stub_service_s = 0.0
        self.calibration_s = 0.0
        self.first_output: dict = {}
        self.primary_dir = None
        self._jobs = 0
        self.t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    # --- one job

    def _call(self, argv, boundary, tracer=None, job=""):
        """Run one CLI job; returns (exit code, set-up sample, post-set-up
        sample, stdout, stderr), a sample being (seconds, start, end)."""
        out, err = io.StringIO(), io.StringIO()
        boundary.at = None
        # Start each job with the collector as a fresh CLI process has it: the
        # harness's own objects neither scanned nor counted toward a collection.
        gc.collect()
        gc.freeze()
        paused = boundary.calibration.paused_s if boundary.calibration else 0.0
        span = None
        if tracer is not None:
            tracer.run_id += 1
            span = tracer.open(f"job.{job}")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SetupDone:
            code = 0
        finally:
            end = time.perf_counter()
            if span is not None:
                tracer.close(span)
        if boundary.calibration is not None:
            paused = boundary.calibration.paused_s - paused
        if boundary.at is None:
            setup = rest = None
        else:
            setup = (boundary.at - start, start, boundary.at)
            rest = (end - boundary.at - paused, boundary.at, end)
        return code, setup, rest, out.getvalue(), err.getvalue()

    def _new_dir(self) -> Path:
        self._jobs += 1
        path = self.work / f"job{self._jobs:04d}"
        path.mkdir()
        return path

    def _finish(self, kind: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{kind}: {p}" for p in problems)

    def _api_calls(self, kind: str, job: str, problems) -> None:
        if self.stub is None:
            return
        stats = self.stub.stats()
        self.stub_service_s += stats["service_s"]
        if kind in self.api_calls:
            self.api_calls[kind].append(stats["chat_requests"])
        expected = self.wl.expected_requests(job)
        if stats["chat_requests"] != expected:
            problems.append(f"{stats['chat_requests']} chat requests, expected {expected}")

    def _same_output(self, kind: str, output: bytes, problems) -> None:
        first = self.first_output.setdefault(kind, output)
        if output != first:
            problems.append("output differs from the first iteration's")

    def setup_only(self, boundary, record=True) -> None:
        job_dir = self._new_dir()
        argv = self.wl.primary_argv(job_dir)
        if self.stub is not None:
            self.stub.reset()
        boundary.stop = True
        try:
            code, setup, _, _, err = self._call(argv, boundary)
        finally:
            boundary.stop = False
        problems = [] if setup is not None else [f"exit {code} before set-up ended: {err.strip()}"]
        self._api_calls("setup", "setup", problems)
        if record and not problems:
            self.samples["setup"].append(setup)
        self._finish("setup", problems)
        shutil.rmtree(job_dir)

    def primary(self, boundary, tracer=None) -> float:
        job_dir = self._new_dir()
        argv = self.wl.primary_argv(job_dir)
        if self.stub is not None:
            self.stub.reset()
        code, setup, rest, out, err = self._call(argv, boundary, tracer, self.wl.primary)
        problems = []
        if code != 0 or setup is None:
            problems.append(f"exit {code}: {err.strip()}")
        else:
            try:
                problems += self.wl.check_primary(job_dir, out)
                self._same_output("primary", self.wl.primary_output(job_dir), problems)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        self._api_calls("primary" if tracer is None else "traced", self.wl.primary, problems)
        if not problems and tracer is None:
            self.samples["setup"].append(setup)
            self.samples["primary"].append(rest)
        self._finish(self.wl.primary, problems)
        if self.primary_dir is not None:
            shutil.rmtree(self.primary_dir)
        self.primary_dir = job_dir
        return rest[0] if rest is not None else 0.0

    def followup(self, boundary, tracer=None) -> None:
        job_dir = self._new_dir()
        argv = self.wl.followup_argv(job_dir, self.primary_dir)
        if self.stub is not None:
            self.stub.reset()
        start = time.perf_counter()
        code, _, _, _, err = self._call(argv, boundary, tracer, self.wl.followup)
        end = time.perf_counter()
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.strip()}")
        else:
            try:
                problems += self.wl.check_followup(job_dir, self.primary_dir)
                self._same_output("followup", self.wl.followup_output(job_dir), problems)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        self._api_calls("followup" if tracer is None else "traced", self.wl.followup, problems)
        if not problems and tracer is None:
            self.samples["followup"].append((end - start, start, end))
        self._finish(self.wl.followup, problems)
        shutil.rmtree(job_dir)

    # --- whole runs

    def untraced(self, boundary) -> dict:
        jobs = {"primary": lambda: self.primary(boundary),
                "followup": lambda: self.followup(boundary),
                "setup": lambda: self.setup_only(boundary)}
        spent = dict.fromkeys(SHARES, 0.0)
        durations: dict = {kind: [] for kind in SHARES}
        calibration = Calibration()
        boundary.calibration = calibration
        self.setup_only(boundary, record=False)   # warm-up, not timed
        self.t0 = time.perf_counter()
        while True:
            elapsed = self.elapsed()
            eligible = [k for k in SHARES if len(durations[k]) < MAX_RUNS[k]
                        and (k != "followup" or self.primary_dir is not None)]
            if not eligible:
                break
            # the kind furthest behind its share of the time so far
            kind = max(eligible, key=lambda k: SHARES[k] * elapsed - spent[k])
            if elapsed + _median(durations[kind]) > self.seconds:
                short = [k for k in eligible if len(durations[k]) < MIN_RUNS[k]]
                if not short:
                    break
                kind = short[0]
            if time.perf_counter() >= calibration.due:
                calibration.sample()
            start = time.perf_counter()
            jobs[kind]()
            durations[kind].append(time.perf_counter() - start)
            spent[kind] += durations[kind][-1]
        calibration.sample()
        boundary.calibration = None
        self.calibration_s = calibration.median_s()

        def cost(kind):
            return _median([calibration.cost(*sample) for sample in self.samples[kind]])

        return {
            "setup_s": self.median_s("setup"),
            "job_cal": cost("primary"),
            "followup_cal": cost("followup"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def median_s(self, kind: str) -> float:
        return _median([seconds for seconds, _, _ in self.samples[kind]])

    def traced(self, boundary) -> dict:
        import tracing

        self.setup_only(boundary, record=False)   # warm-up, not timed
        self.t0 = time.perf_counter()
        untraced, traced, per_pair = [], [], []
        pair_s = 0.0
        while len(per_pair) < MAX_TRACED_PAIRS:
            if per_pair and self.elapsed() + pair_s > self.seconds:
                break
            start = time.perf_counter()
            untraced.append(self.primary(boundary))
            tracer, patcher = tracing.Tracer(), tracing.Patcher()
            tracing.install(tracer, patcher)
            self.stub_service_s = 0.0
            try:
                traced.append(self.primary(boundary, tracer))
                self.followup(boundary, tracer)
            finally:
                patcher.restore()
            per_pair.append(tracing.layer_metrics(tracer, self.stub_service_s))
            pair_s = time.perf_counter() - start
        # counts repeat exactly from pair to pair; median_low keeps them whole
        metrics = {name: statistics.median_low([m[name] for m in per_pair])
                   if isinstance(per_pair[0][name], int) else _median([m[name] for m in per_pair])
                   for name in per_pair[0]}
        metrics.update(micro_measurements(self.wl, metrics))
        metrics["trace.overhead_s"] = _median(traced) - _median(untraced)
        return metrics


def _per_call_s(fn, args_list, repeats: int = 5) -> float:
    """Median over ``repeats`` passes of the mean time of one ``fn(*args)``."""
    passes = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        passes.append((time.perf_counter() - start) / len(args_list))
    return statistics.median(passes)


def micro_measurements(wl, counted: dict) -> dict:
    """Cost of one Coalition construction, one SplitMix64 shuffle and one
    request digest at the workload's n, timed apart from the traced jobs.
    A layer the workload never reached reports 0."""
    from promptshap.client import build_completion_request, load_manifest, request_digest
    from promptshap.coalition import Coalition
    from promptshap.config import ApiConfig
    from promptshap.rng import SplitMix64

    out = {"coalition.construct_ns": 0.0, "rng.shuffle_us": 0.0, "client.digest_us": 0.0}
    n = wl.n
    if counted["coalition.constructed"]:
        masks = [(step * 7919 % (1 << n), n) for step in range(20_000)]
        out["coalition.construct_ns"] = _per_call_s(Coalition, masks) * 1e9
    if counted["rng.shuffles"]:
        rng, perm = SplitMix64(0), list(range(n))
        out["rng.shuffle_us"] = _per_call_s(rng.shuffle, [(perm,)] * (20_000 // n)) * 1e6
    if counted["client.requests"]:
        manifest = load_manifest(str(wl.manifest))
        api = ApiConfig(model="stub-chat")
        question = wl.data["questions"][-1]["question"]
        requests = [(build_completion_request(manifest, Coalition(mask, n), question, api),)
                    for mask in range(1 << n)]
        out["client.digest_us"] = _per_call_s(request_digest, requests) * 1e6
    return out


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


def make_workload(name: str, seed: int, sizes: dict, work: Path, stub):
    import workloads

    if name in ("exact-vote", "mc-cached"):
        return workloads.MatrixValuation(name, seed, sizes, work)
    if name == "live-stub":
        return workloads.LiveValuation(seed, sizes, work, stub.url)
    return workloads.LearnGP(seed, sizes, work)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the self-test only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "promptshap" / "__init__.py").is_file():
        sys.stderr.write(f"no promptshap sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import promptshap.cli  # noqa: F401  (load every module before any is patched)

    import inputs
    import tracing
    import workloads

    sizes = (inputs.SMOKE_SIZES if args.smoke else inputs.SIZES)[args.workload]
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    # keep requests away from proxies and from a ~/.netrc outside the checkout
    os.environ.update({"NO_PROXY": "127.0.0.1,localhost", "no_proxy": "127.0.0.1,localhost",
                       "NETRC": str(work / "netrc")})
    stub = None
    patcher = tracing.Patcher()
    try:
        if args.workload == "live-stub":
            import stub as stub_module

            stub = Stub(workloads.FAIL_EVERY)
            os.environ["PROMPTSHAP_API_KEY"] = stub_module.API_KEY
        workload = make_workload(args.workload, args.seed, sizes, work, stub)
        boundary = SetupBoundary(patcher)
        runner = Runner(workload, work, args.seconds, stub)
        metrics = runner.traced(boundary) if args.trace else runner.untraced(boundary)
    finally:
        patcher.restore()
        if stub is not None:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    units = LAYER_UNITS if args.trace else E2E_UNITS
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "samples": {kind: len(xs) for kind, xs in runner.samples.items()},
        "api_calls": {kind: _median(xs) for kind, xs in runner.api_calls.items() if xs},
        "error_rate": runner.failed / runner.attempted,
        "problems": runner.problems[:MAX_PROBLEMS_SHOWN],
    }
    if not args.trace:
        detail.update({
            "calibration_s": runner.calibration_s,
            f"{runner.wl.primary}_s": runner.median_s("primary"),
            f"{runner.wl.followup}_s": runner.median_s("followup"),
        })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
