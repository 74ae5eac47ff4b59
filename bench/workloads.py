"""The four workloads of the benchmark of record.

Each workload takes its sizes as keyword arguments (the tests run them
tiny), measures for ``seconds``, checks every output it gets back, and
returns a :class:`Result`.  Given a :class:`~spans.Tracer`, a workload
runs one traced set-up, then measures an untraced half and a traced half
of ``seconds``; the untraced half is the baseline for the tracing
overhead.  Without one, the set-up repeats ``setups`` times so that
``setup_s`` can be a median.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import repro
from repro.core.degradation import PAPER_CRITERIA
from repro.core.sizing import size_architecture
from repro.faults.campaign import FaultCampaignConfig, run_fault_trial
from repro.service import ServiceClient, WearHub, WearLedger, tenant_population
from repro.sim.rng import substream

from spans import read_jsonl

__all__ = ["WORKLOADS", "BenchError", "Phase", "Result", "serve", "hub",
           "faults", "recover"]

#: Weibull parameters of every service tenant: with the default n=6,
#: k=2 and 3 Shamir copies, each tenant holds about 3e4 accesses, so no
#: tenant exhausts during a run.
POPULATION = {"alpha": 1e4, "beta": 8.0}

#: The ``faults-campaign`` design, ``size_architecture`` arguments:
#: n=53, k=6, 20 copies.
DESIGN = {"alpha": 10.0, "beta": 8.0, "access_bound": 200,
          "k_fraction": 0.10, "criteria": PAPER_CRITERIA,
          "window": "fractional"}

#: The fault mix of the ``faults-campaign`` workload.
FAULTS = {"misfire_rate": 0.01, "corruption_rate": 0.01,
          "timeout_rate": 0.005}

#: Substream indices of warm-up trials, disjoint from the measured ones.
WARMUP_INDEX = 1 << 40

#: Untimed trials after the ``faults-campaign`` set-up: the first second
#: after it ran up to twice as slow as the rest.
FAULTS_WARMUP_S = 1.0

#: Distinct measured trials of ``faults-campaign``.  A 10 s run passes
#: over them about fifteen times, so each trial's fastest run misses the
#: bursts in which the host runs slow.  Run back to back on four seeds,
#: the estimate ranged 1.6% at 50 trials against 7.6% at 100 trials run
#: eight times each.
TRIALS = 50

#: Connections of the ``serve-64`` closed loop.
CONNECTIONS = 2

SERVE_MAIN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "serve_main.py")

clock = time.perf_counter


@dataclass
class Phase:
    """One measured stretch of a workload.

    ``log`` holds each op's ``(begin, end, work, item)``, times on the
    ``perf_counter`` clock and work in the units throughput is given in
    (requests, accesses, trials or WAL records).  ``item`` names the op
    when the workload runs the same ops again (a trial index, or the one
    recovery), and is None when each op is new.  A repeated phase
    divides its throughput by the ops' own time instead of the wall
    time, because the workload checks outputs between them.
    """

    start: float = 0.0
    end: float = 0.0
    work: int = 0
    log: list = field(default_factory=list)

    def record(self, begin: float, end: float, work: int,
               item=None) -> None:
        self.log.append((begin, end, work, item))
        self.work += work

    @property
    def ops(self) -> int:
        return len(self.log)

    @property
    def repeated(self) -> bool:
        return bool(self.log) and self.log[0][3] is not None

    @property
    def intervals(self) -> list[tuple[float, float]]:
        return [(begin, end) for begin, end, *_ in self.log]

    @property
    def latencies_s(self) -> list[float]:
        return [end - begin for begin, end, *_ in self.log]

    @property
    def elapsed_s(self) -> float:
        if self.repeated:
            return sum(self.latencies_s)
        return self.end - self.start

    @property
    def throughput(self) -> float:
        return self.work / self.elapsed_s


@dataclass
class Checks:
    """Outputs checked and those found wrong."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, correct: bool, describe) -> None:
        self.attempted += 1
        if not correct:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(describe())


@dataclass
class Result:
    setup_s: list
    measured: Phase
    peak_rss_mib: float
    checks: Checks
    traced: Phase | None = None
    setup_window: tuple | None = None
    spans: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class BenchError(RuntimeError):
    """The workload could not run; no measurement was taken."""


def _own_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(seconds: float, op) -> Phase:
    """Call ``op(phase)`` back to back for ``seconds`` (at least once)."""
    phase = Phase(start=clock())
    deadline = phase.start + seconds
    calls = 0
    while calls == 0 or clock() < deadline:
        op(phase)
        calls += 1
    phase.end = clock()
    if not phase.ops:
        raise BenchError("no operation completed")
    return phase


def _measure(seconds: float, op, tracer, result: Result) -> None:
    if tracer is None:
        result.measured = _timed(seconds, op)
        return
    tracer.restore()
    result.measured = _timed(seconds / 2, op)
    tracer.install()
    try:
        result.traced = _timed(seconds / 2, op)
    finally:
        tracer.restore()
    result.spans = tracer.spans


def _secret_check(checks: Checks, secrets: dict, name: str,
                  response: dict) -> None:
    checks.record(response.get("status") == "ok"
                  and response.get("secret") == secrets[name],
                  lambda: f"tenant {name}: {response}")


def _keyed_round(seed: int, index: int, names: list) -> list[tuple]:
    """``(tenant, rid, trace)`` triples with round-unique keys."""
    return [(name, f"{seed}-{index}-{j}", f"tr-{seed}-{index}-{j}")
            for j, name in enumerate(names)]


def _provision_all(service: WearHub, population: list) -> None:
    for payload in population:
        response = service.provision(payload)
        if response["status"] != "ok":
            raise BenchError(f"provision failed: {response}")


# ----------------------------------------------------------------------
# hub-10k


def hub(seed: int, seconds: float, workdir: str, *, tenants: int = 10_000,
        batch: int = 64, warmup_s: float = 1.0, tracer=None) -> Result:
    """Full rounds of ``batch`` distinct tenants through ``WearHub``.

    Set-up provisions every tenant through ``WearHub.provision`` over a
    fresh ``WearLedger``.  It runs once, even untraced: at 1e4 tenants it
    takes tens of seconds and is steady by itself.
    """
    population = tenant_population(tenants, seed, **POPULATION)
    secrets = {p["tenant"]: p["secret"] for p in population}
    names = list(secrets)
    checks = Checks()
    if tracer is not None:
        tracer.install()
    started = clock()
    ledger = WearLedger(os.path.join(workdir, "hub-ledger"))
    try:
        service = WearHub(ledger)
        service.recover()
        _provision_all(service, population)
        setup = clock() - started
        result = Result([setup], Phase(), 0.0, checks,
                        setup_window=(started, started + setup))
        if tracer is not None:
            tracer.restore()

        rng = random.Random(seed)
        rounds = itertools.count()

        def serve_round(phase: Phase) -> None:
            chosen = rng.sample(names, batch)
            items = _keyed_round(seed, next(rounds), chosen)
            begin = clock()
            responses = service.serve_round(items)
            phase.record(begin, clock(), batch)
            for name in chosen:
                _secret_check(checks, secrets, name, responses[name])

        _timed(warmup_s, serve_round)
        _measure(seconds, serve_round, tracer, result)
    finally:
        ledger.close()
    result.peak_rss_mib = _own_peak_rss_mib()
    return result


# ----------------------------------------------------------------------
# faults-campaign


def faults(seed: int, seconds: float, workdir: str | None = None, *,
           trials: int = TRIALS, warmup_trials: int = 3, setups: int = 5,
           tracer=None) -> Result:
    """``run_fault_trial`` calls, as ``run_fault_campaign`` makes them.

    Set-up is the :data:`DESIGN` solve plus ``warmup_trials`` trials on
    substreams disjoint from the measured ones.  Trials keep running
    untimed on those substreams for :data:`FAULTS_WARMUP_S` more.  The
    measured part passes over trials ``0 .. trials - 1`` again and again
    until its time is up; a trial repeats exactly, from its substream.
    """
    config = FaultCampaignConfig(**FAULTS)
    checks = Checks()
    totals = {"calls": 0, "successes": 0, "retries": 0}

    def trial(index: int, phase: Phase | None) -> dict | None:
        begin = clock()
        try:
            record = run_fault_trial(design, config, substream(seed, index))
        except Exception as exc:  # a trial that raises is a failed output
            checks.record(False, lambda: f"trial raised {exc!r}")
            return None
        if phase is not None:
            phase.record(begin, clock(), 1, index)
        checks.record(not record["violated"],
                      lambda: f"trial served {record['served']} > "
                              f"ceiling {record['ceiling']}")
        return record

    if tracer is not None:
        tracer.install()
        setups = 1
    times = []
    for _ in range(setups):
        started = clock()
        design = size_architecture(**DESIGN)
        for w in range(warmup_trials):
            trial(WARMUP_INDEX + w, None)
        times.append(clock() - started)
    result = Result(times, Phase(), 0.0, checks,
                    setup_window=(started, started + times[-1]))
    if tracer is not None:
        tracer.restore()

    warmups = itertools.count(WARMUP_INDEX + warmup_trials)
    _timed(FAULTS_WARMUP_S, lambda phase: trial(next(warmups), phase))
    indices = itertools.cycle(range(trials))

    def measured_trial(phase: Phase) -> None:
        record = trial(next(indices), phase)
        if record is not None:
            for key in totals:
                totals[key] += record[key]

    _measure(seconds, measured_trial, tracer, result)
    trials = result.measured.ops + (result.traced.ops if result.traced
                                    else 0)
    result.extra = {
        "availability": (totals["successes"] / totals["calls"]
                         if totals["calls"] else 1.0),
        "retries_per_trial": totals["retries"] / trials,
    }
    result.peak_rss_mib = _own_peak_rss_mib()
    return result


# ----------------------------------------------------------------------
# recover-1k


def _build_ledger(directory: str, population: list, rounds: int,
                  batch: int, seed: int):
    """Provision, serve keyed rounds, and close without a snapshot."""
    ledger = WearLedger(directory)
    try:
        service = WearHub(ledger)
        service.recover()
        _provision_all(service, population)
        rng = random.Random(seed)
        names = [p["tenant"] for p in population]
        history = []
        for i in range(rounds):
            items = _keyed_round(seed, i, rng.sample(names, batch))
            for response in service.serve_round(items).values():
                if response["status"] != "ok":
                    raise BenchError(f"ledger build round failed: "
                                     f"{response}")
            history.append(items)
    finally:
        ledger.close()
    return service, history


def _status_view(service: WearHub) -> dict:
    """Each tenant's attempts, served, wear cycles and remaining capacity.

    ``wear_gauges`` reports the same values as ``status`` but queries
    each pool once instead of once per tenant.
    """
    return {name: (g["attempts"], g["served"], g["wear_cycles"],
                   g["remaining_capacity"])
            for name, g in service.wear_gauges().items()}


def recover(seed: int, seconds: float, workdir: str, *, tenants: int = 1000,
            rounds: int = 60, batch: int = 64, setups: int = 3,
            sample_rids: int = 32, tracer=None) -> Result:
    """Restart after a crash: ``WearLedger(dir)`` + ``WearHub.recover()``.

    Set-up builds the ledger that a SIGKILL under ``--snapshot-every 0``
    leaves behind.  Keyed access records replay stepped, one engine row
    per record, so this exercises the single-row path and WAL parsing.
    Sixty rounds keep a recovery near half a second, so a 10 s run
    holds about fifteen; ``bench/README.md`` gives the spreads measured
    at other sizes.
    """
    population = tenant_population(tenants, seed, **POPULATION)
    checks = Checks()
    if tracer is not None:
        tracer.install()
        setups = 1
    times = []
    for s in range(setups):
        directory = os.path.join(workdir, f"recover-{s}")
        started = clock()
        built, history = _build_ledger(directory, population, rounds, batch,
                                       seed)
        times.append(clock() - started)
    result = Result(times, Phase(), 0.0, checks,
                    setup_window=(started, started + times[-1]))
    if tracer is not None:
        tracer.restore()

    expected = _status_view(built)
    # Only the newest ``response_retention`` keyed responses survive.
    recent = history[-(built.response_retention // batch):]
    picker = random.Random(seed)
    rids = []
    for _ in range(sample_rids):
        name, rid, _ = picker.choice(picker.choice(recent))
        rids.append((name, rid, built.recorded_response(name, rid)))
    del built

    def restart(phase: Phase) -> None:
        # A restarted process starts with no garbage from the last one.
        gc.collect()
        begin = clock()
        ledger = WearLedger(directory)
        service = WearHub(ledger)
        records = service.recover()
        ledger.close()
        phase.record(begin, clock(), records, "recovery")
        checks.record(_status_view(service) == expected,
                      lambda: "recovered tenant status differs from the "
                              "pre-crash hub")
        for name, rid, response in rids:
            checks.record(response is not None
                          and service.recorded_response(name, rid)
                          == response,
                          lambda: f"retained response {rid} of {name} "
                                  f"replays differently")

    restart(Phase())
    _measure(seconds, restart, tracer, result)
    result.peak_rss_mib = _own_peak_rss_mib()
    return result


# ----------------------------------------------------------------------
# serve-64


def _child_env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([src, path]) if path else src)


class _Server:
    """One ``repro serve`` child with every deployment default."""

    def __init__(self, workdir: str, index: int,
                 spans_path: str | None = None) -> None:
        self.ready_file = os.path.join(workdir, f"ready-{index}.json")
        command = [sys.executable, SERVE_MAIN,
                   os.path.join(workdir, f"ledger-{index}"), self.ready_file]
        if spans_path is not None:
            command += ["--spans", spans_path]
        self.process = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                        env=_child_env())

    async def address(self, timeout_s: float = 120.0) -> tuple[str, int]:
        """Poll the ready file, failing fast if the child dies first."""
        deadline = clock() + timeout_s
        while not os.path.exists(self.ready_file):
            if self.process.poll() is not None:
                raise BenchError(f"server exited with code "
                                 f"{self.process.returncode} before ready")
            if clock() > deadline:
                raise BenchError("server did not become ready")
            await asyncio.sleep(0.002)
        with open(self.ready_file, encoding="utf-8") as handle:
            ready = json.load(handle)
        return ready["host"], int(ready["port"])

    def wait(self, timeout_s: float = 60.0) -> None:
        """Wait for the drained server to exit cleanly."""
        try:
            code = self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            raise BenchError("server did not exit after drain") from None
        if code != 0:
            raise BenchError(f"server exited with code {code}")

    def stop(self) -> None:
        """Terminate the child if it still runs, and reap it."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


async def _launch(workdir: str, index: int, population: list,
                  spans_path: str | None):
    """Spawn a server and provision the population; returns the server,
    its address and the set-up window."""
    started = clock()
    server = _Server(workdir, index, spans_path)
    try:
        host, port = await server.address()
        admin = await ServiceClient(host, port).connect()
        try:
            for payload in population:
                response = await admin.provision(**payload)
                if response["status"] != "ok":
                    raise BenchError(f"provision failed: {response}")
        finally:
            await admin.close()
    except BaseException:
        server.stop()
        raise
    return server, host, port, (started, clock())


async def _drain(host: str, port: int) -> None:
    client = await ServiceClient(host, port).connect()
    try:
        response = await client.drain()
    finally:
        await client.close()
    if response.get("status") != "ok":
        raise BenchError(f"drain failed: {response}")


async def _drive(host: str, port: int, secrets: dict, seed: int,
                 seconds: float, warmup_s: float,
                 checks: Checks) -> tuple[Phase, float]:
    """Closed loop over :data:`CONNECTIONS`, then drain; returns the
    measured phase and the server's peak RSS in MiB."""
    names = sorted(secrets)
    clients = [await ServiceClient(host, port).connect()
               for _ in range(CONNECTIONS)]
    streams = [(random.Random(seed * 1000 + c), itertools.count())
               for c in range(CONNECTIONS)]

    async def worker(c: int, deadline: float, phase: Phase | None) -> None:
        rng, counter = streams[c]
        client = clients[c]
        while clock() < deadline:
            name = rng.choice(names)
            rid = f"{seed}-{c}-{next(counter)}"
            begin = clock()
            response = await client.access(name, rid=rid, trace=f"tr-{rid}")
            if phase is not None:
                phase.record(begin, clock(), 1)
            _secret_check(checks, secrets, name, response)

    try:
        warm_until = clock() + warmup_s
        await asyncio.gather(*(worker(c, warm_until, None)
                               for c in range(CONNECTIONS)))
        phase = Phase(start=clock())
        await asyncio.gather(*(worker(c, phase.start + seconds, phase)
                               for c in range(CONNECTIONS)))
        phase.end = clock()
        metrics = await clients[0].metrics()
    finally:
        for client in clients:
            await client.close()
    await _drain(host, port)
    return phase, metrics["shard"]["peak_rss_bytes"] / 2**20


def serve(seed: int, seconds: float, workdir: str, *, tenants: int = 64,
          warmup_s: float = 1.0, setups: int = 3, tracer=None) -> Result:
    """``repro serve`` over TCP, driven in a closed loop.

    Set-up is spawn-to-ready plus provisioning the tenants.  The traced
    half runs against a second server whose child wraps the layers and
    writes its spans after drain; ``tracer`` only marks the run as
    traced, since no layer of interest runs in this process.
    """
    population = tenant_population(tenants, seed, **POPULATION)
    secrets = {p["tenant"]: p["secret"] for p in population}
    checks = Checks()

    async def session(index: int, length: float, spans_path=None):
        server, host, port, window = await _launch(workdir, index,
                                                   population, spans_path)
        try:
            phase, rss = await _drive(host, port, secrets, seed, length,
                                      warmup_s, checks)
            server.wait()
        finally:
            server.stop()
        return phase, rss, window

    async def run() -> Result:
        if tracer is not None:
            phase, rss, _ = await session(0, seconds / 2)
            spans_path = os.path.join(workdir, "server.spans.jsonl")
            traced, _, window = await session(1, seconds / 2, spans_path)
            return Result([window[1] - window[0]], phase, rss, checks,
                          traced=traced, setup_window=window,
                          spans=read_jsonl(spans_path),
                          extra={"server_spans": spans_path})
        times = []
        for index in range(setups - 1):
            server, host, port, window = await _launch(workdir, index,
                                                       population, None)
            times.append(window[1] - window[0])
            try:
                await _drain(host, port)
                server.wait()
            finally:
                server.stop()
        phase, rss, window = await session(setups - 1, seconds)
        times.append(window[1] - window[0])
        return Result(times, phase, rss, checks)

    return asyncio.run(run())


#: Workload name -> function, in the order a full pass runs them.
WORKLOADS = {
    "serve-64": serve,
    "hub-10k": hub,
    "faults-campaign": faults,
    "recover-1k": recover,
}
