"""Graph500 end-to-end benchmark: one run as a user runs it, timed by stage.

One *iteration* is the whole Graph500 protocol through the program's
public functions:

    generate_kronecker -> build_csr -> sample_roots        (setup)
    -> one batched repro.run sweep over every root          (search)
    -> validate_sssp / validate_bfs for every root          (validate)
    -> per-root modeled TEPS and their harmonic mean        (report)

The benchmark times each call from outside with its own spans
(:class:`Spans`); nothing inside the program is changed or patched.
A run of one workload covers :data:`INSTANCES` Graph500 instances: graphs
and root samples of their own, whose seeds :func:`instance_seeds`
derives from the run's seed.  One instance's work differs from
another's by up to ~20% (supersteps, edges scanned), so a run that
timed a single instance would carry that difference from seed to seed;
a *round*, one iteration of every instance, carries much less of it.
The run is

1. an untimed warm-up iteration of the first instance, which pays what
   only a process's first pass pays: lazy imports and the allocator's
   growth to full-size blocks;
2. timed rounds for as long as they fit in ``seconds``.

After an instance's first iteration the sequential ``engine="shared"``
oracle answers the same roots, untimed.  Every iteration's answers are
validated and compared with the oracle's root by root (sha256 of
dist+parent for SSSP, of the levels for BFS, whose parents the validator
checks); a root that fails validation, differs from the oracle or raises
counts as failed.  Every iteration's exact counts (fabric traffic,
engine counters, modeled time) must equal those of its instance's first
iteration bit for bit: a divergence is reported as nondeterminism,
never averaged away.

The host's speed drifts by up to ~40% over minutes, far more than the
program's own run-to-run variation, so every time the benchmark reports
is in *reference seconds*: wall time scaled by how much slower than on
the reference host a fixed numpy probe (:func:`host_probe`) ran, in the
median over the probes run before every iteration of the run.

With ``trace=True`` the timed rounds alternate between passing no
tracer and passing a :class:`~repro.obs.tracer.Tracer` to ``repro.run``;
the traced ones give the per-layer metrics (the tracer's events folded
by :class:`~repro.analysis.attribution.PhaseAttribution` into executor
buckets), and the traced-minus-untraced search time is the tracing
overhead.  A round's figure is the mean over its iterations (for a
rate, its total over its total), so it stays the figure of one
iteration; every metric is the median over whole timed rounds, of which
a run makes at least :data:`MIN_ROUNDS`.  A metric that a failure left
without a value reads NaN, and the run is then incorrect.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

import repro
from repro.analysis.attribution import PhaseAttribution
from repro.bfs.validation import validate_bfs
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.graph500.roots import sample_roots
from repro.graph500.teps import lane_teps, teps_summary
from repro.graph500.validation import validate_sssp
from repro.obs.tracer import Tracer

__all__ = [
    "E2E_METRICS",
    "LAYER_METRICS",
    "WORKLOADS",
    "RunResult",
    "Workload",
    "instance_seeds",
    "run_workload",
]


@dataclass(frozen=True)
class Workload:
    """One Graph500 configuration; ``kernel`` is what ``repro.run`` computes."""

    name: str
    why: str
    scale: int
    ranks: int
    roots: int
    kernel: str  # a batched kernel: "sssp_batch" or "bfs64"
    edgefactor: int = 16
    executor: str = "serial"

    @property
    def is_bfs(self) -> bool:
        return self.kernel == "bfs64"

    @property
    def validator(self):
        return validate_bfs if self.is_bfs else validate_sssp

    def params(self) -> dict:
        params = asdict(self)
        del params["why"]
        return params


#: Graphs, each with its own roots, in one round of a run.
INSTANCES = 3


def instance_seeds(seed: int) -> list[int]:
    """The seeds of a run's instances, distinct for distinct run seeds."""
    return [seed * INSTANCES + k for k in range(INSTANCES)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sssp-batch64-s13",
            "Graph500 SSSP, 64 roots in one sssp_batch sweep at scale 13 on 4 ranks, "
            "3 graphs a round: the fastest path a Graph500 SSSP user has; kernel-dominated",
            scale=13, ranks=4, roots=64, kernel="sssp_batch",
        ),
        Workload(
            "bfs64-s16",
            "Graph500 BFS, 16 roots in one bfs64 sweep at scale 16 on 16 ranks, "
            "3 graphs a round: generation, CSR build and validation outweigh the search",
            scale=16, ranks=16, roots=16, kernel="bfs64",
        ),
    )
}

#: End-to-end metrics (``--trace 0``): name -> unit.
E2E_METRICS = {
    "e2e_s": "s",
    "setup_s": "s",
    "search_s": "s",
    "validate_s": "s",
    "wall_teps": "edges/s",
    "peak_rss_mb": "MB",
    "modeled_teps": "TEPS",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Modeled (simulated)
#: seconds carry ``sim_s`` so they are never mistaken for wall time.
LAYER_METRICS = {
    "graph.generate_s": "s",
    "graph.generate_medges_per_s": "Medges/s",
    "graph.build_csr_s": "s",
    "graph.edges": "count",
    "graph500.sample_roots_s": "s",
    "graph500.validate_root_p50_s": "s",
    "graph500.validate_root_p80_s": "s",
    "graph500.validate_medges_per_s": "Medges/s",
    "graph500.modeled_teps_hmean": "TEPS",
    "api.run_call_p50_s": "s",
    "engine.supersteps": "count",
    "engine.epochs": "count",
    "engine.edges_relaxed": "count",
    "engine.relax_efficiency": "ratio",
    "simmpi.bytes": "bytes",
    "simmpi.messages": "count",
    "simmpi.barriers": "count",
    "simmpi.allreduces": "count",
    "simmpi.comm_imbalance": "ratio",
    "simmpi.model_comm_s": "sim_s",
    "simmpi.model_compute_s": "sim_s",
    "simmpi.model_sync_s": "sim_s",
    "executor.compute_s": "s",
    "executor.barrier_wait_s": "s",
    "executor.dispatch_s": "s",
    "executor.transport_s": "s",
    "executor.driver_s": "s",
    "executor.coverage": "ratio",
    "oracle_s": "s",
    "obs.trace_overhead_s": "s",
    "obs.traced_e2e_s": "s",
    "obs.span_coverage": "ratio",
}


class Spans:
    """The benchmark's own span recorder: name, start, end and parent span."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.records),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


#: The median of :func:`host_probe` on the reference host (the 2-CPU Xeon
#: VM of the README).
PROBE_REF_S = 0.1


def _probe_arrays(n: int = 1 << 18) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(0)
    keys = rng.integers(0, n, size=n)
    rows = np.repeat(np.arange(n >> 4), 16)
    # The probe writes only into these, so what it times does not depend
    # on the state of the allocator the program left behind.
    buffers = np.empty(n), np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=bool)
    return (keys, rng.random(n), rows, *buffers)


_PROBE = _probe_arrays()


def host_probe() -> float:
    """Seconds that a fixed mix of the numpy work the program does (gather,
    add, sort, binary search, compare) takes on the host right now."""
    keys, values, rows, gathered, other, work, mask = _PROBE
    start = time.perf_counter()
    for _ in range(12):
        np.take(values, keys, out=gathered)
        np.take(values, rows, out=other)
        np.add(gathered, other, out=gathered)
        work[:] = keys
        work.sort()
        np.searchsorted(work, keys[: keys.size >> 6])
        np.greater(gathered, 1.0, out=mask)
        np.count_nonzero(mask)
    return time.perf_counter() - start


@dataclass
class Iteration:
    """One pass of the protocol: its spans, answers, counts and failures.

    Its times are reference seconds: wall seconds times :attr:`scale`.
    """

    seed: int
    traced: bool
    spans: Spans
    #: What :func:`host_probe` took just before the iteration.
    probe_s: float = float("nan")
    #: Wall seconds to reference seconds, the same for every iteration of
    #: a run; set once all of the run's probes are in.
    scale: float = 1.0
    roots: list[int] = field(default_factory=list)
    generated_edges: int = 0
    csr_edges: int = 0
    traversed: int = 0
    #: Exact figures that must repeat bit for bit on the same inputs.
    counts: dict = field(default_factory=dict)
    #: root -> reason; a root appears at most once.
    failures: dict = field(default_factory=dict)
    attribution: PhaseAttribution | None = None
    # Kept only until the answers are checked (see release()).
    graph: object = None
    run: object = None
    answers: dict = field(default_factory=dict)

    def wall_seconds(self, name: str) -> float:
        return self.spans.total(name)

    def seconds(self, name: str) -> float:
        return self.spans.total(name) * self.scale

    def durations(self, name: str) -> list[float]:
        return [d * self.scale for d in self.spans.durations(name)]

    def bucket(self, name: str) -> float:
        """An executor bucket of the traced sweep, in reference seconds."""
        return self.attribution.buckets[name] * self.scale

    def fail(self, root: int, reason: str) -> None:
        self.failures.setdefault(root, reason)

    def release(self) -> None:
        self.graph = self.run = None
        self.answers = {}


def _error(what: str) -> str:
    """Print the current traceback to stderr and return a one-line reason."""
    traceback.print_exc(file=sys.stderr)
    exc = sys.exc_info()[1]
    return f"{what} raised {type(exc).__name__}: {exc}"


def answer_digest(answer) -> str:
    """sha256 of a root's answer: dist and parent (SSSP) or levels (BFS)."""
    h = hashlib.sha256()
    if hasattr(answer, "dist"):
        h.update(np.ascontiguousarray(answer.dist).tobytes())
        h.update(np.ascontiguousarray(answer.parent).tobytes())
    else:
        h.update(np.ascontiguousarray(answer.level).tobytes())
    return h.hexdigest()


def run_setup(w: Workload, seed: int, spans: Spans):
    """Graph500 set-up: the edge list, its CSR graph and the sampled roots."""
    with spans.span("setup"):
        with spans.span("graph.generate"):
            edges = generate_kronecker(w.scale, edgefactor=w.edgefactor, seed=seed)
        with spans.span("graph.build_csr"):
            graph = build_csr(edges)
        with spans.span("graph500.sample_roots"):
            roots = [int(r) for r in sample_roots(graph, w.roots, seed=seed)]
    return edges, graph, roots


def run_iteration(w: Workload, seed: int, traced: bool = False) -> Iteration:
    """Run the protocol once; the caller checks answers and drops the graph."""
    spans = Spans()
    it = Iteration(seed=seed, traced=traced, spans=spans, probe_s=host_probe())
    tracer = Tracer() if traced else None
    run = None
    with spans.span("e2e"):
        edges, graph, roots = run_setup(w, seed, spans)
        with spans.span("search"):
            try:
                with spans.span("api.run"):
                    run = repro.run(
                        graph,
                        roots,
                        kernel=w.kernel,
                        num_ranks=w.ranks,
                        executor=w.executor,
                        tracer=tracer,
                    )
            except Exception:
                reason = _error("repro.run")
                for root in roots:
                    it.fail(root, reason)
        if run is not None:
            run_validation(w, graph, run, roots, spans, it)
        with spans.span("report"):
            hmean = run_report(graph, run, roots, it)
    it.roots = roots
    it.generated_edges = int(edges.num_edges)
    it.csr_edges = int(graph.num_edges)
    it.graph = graph
    it.run = run
    if run is not None:
        try:
            it.counts = _exact_counts(run, it.traversed, hmean)
        except Exception:
            reason = _error("the sweep's report")
            for root in roots:
                it.fail(root, reason)
    if tracer is not None:
        it.attribution = PhaseAttribution.from_records(tracer.events)
    return it


def run_report(graph, run, roots: list[int], it: Iteration) -> float:
    """Each answered root's traversed edges and modeled TEPS; their harmonic
    mean, or NaN when no root has a positive TEPS to average."""
    teps = []
    for root, answer in it.answers.items():
        try:
            traversed = answer.traversed_edges(graph)
            if traversed <= 0:
                # sample_roots only picks roots with an edge to traverse.
                it.fail(root, "traversed no edges")
                continue
            it.traversed += traversed
            teps.append(lane_teps(traversed, run.modeled_time, len(roots)))
        except Exception:
            it.fail(root, _error("the TEPS report"))
    return float(teps_summary(np.array(teps)).hmean) if teps else float("nan")


def run_validation(w: Workload, graph, run, roots: list[int], spans: Spans, it: Iteration):
    """Extract each root's lane from the sweep and run the Graph500 validator."""
    with spans.span("validate"):
        for lane, root in enumerate(roots):
            try:
                with spans.span("graph500.validate_root"):
                    answer = run.result.lane(lane)
                    report = w.validator(graph, answer)
                it.answers[root] = answer
                if not report.ok:
                    it.fail(root, "validation: " + "; ".join(report.failures))
            except Exception:
                it.fail(root, _error("validation"))


def _exact_counts(run, traversed: int, hmean: float) -> dict:
    """Fabric, engine and modeled-time figures of one sweep."""
    rep = run.report()
    comm, model, ctr = rep["comm"], rep["time_breakdown"], rep["counters"]
    return {
        "simmpi.bytes": comm["total_bytes"],
        "simmpi.messages": comm["messages"],
        "simmpi.barriers": comm["barriers"],
        "simmpi.allreduces": comm["allreduces"],
        "simmpi.comm_imbalance": comm["comm_imbalance"],
        "simmpi.model_comm_s": model["comm"],
        "simmpi.model_compute_s": model["compute"],
        "simmpi.model_sync_s": model["sync"],
        "engine.supersteps": ctr["supersteps"],
        # sssp_batch counts bucket epochs, bfs64 counts levels.
        "engine.epochs": ctr.get("epochs", ctr.get("levels")),
        "engine.edges_relaxed": ctr["edges_scanned"],
        "engine.relax_efficiency": traversed / ctr["edges_scanned"],
        "traversed": traversed,
        "modeled_s": rep["modeled_time"],
        "modeled_teps": traversed / rep["modeled_time"],
        "graph500.modeled_teps_hmean": hmean,
    }


def oracle_digests(w: Workload, graph, roots: list[int]) -> dict[int, str | None]:
    """Each root's answer digest from the sequential ``engine="shared"`` run;
    ``None`` where the oracle raised, which fails that root everywhere."""
    kernel = "bfs" if w.is_bfs else "sssp"
    digests = {}
    for root in roots:
        try:
            digests[root] = answer_digest(
                repro.run(graph, root, kernel=kernel, engine="shared").result
            )
        except Exception:
            _error("the engine='shared' oracle")
            digests[root] = None
    return digests


def check_answers(it: Iteration, roots: list[int], oracle: dict[int, str | None]) -> None:
    """Fail every root whose answer is missing or differs from the oracle."""
    if it.roots != roots:
        for root in it.roots:
            it.fail(root, "root sample differs from the gate iteration's")
        return
    for root in it.roots:
        answer = it.answers.get(root)
        if answer is None:
            it.fail(root, "no answer")
        elif oracle[root] is None:
            it.fail(root, "the engine='shared' oracle raised")
        elif answer_digest(answer) != oracle[root]:
            it.fail(root, "answer differs from the engine='shared' oracle")


@dataclass
class RunResult:
    """What one benchmark run measured, before it is printed."""

    workload: Workload
    seed: int
    instance_seeds: list[int]
    trace: bool
    attempted: int
    failures: list[dict]
    nondeterministic: list[str]
    metrics: dict[str, float]
    samples: dict[str, list[float]]

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.nondeterministic


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _ratio(num: float, den: float) -> float:
    """``num / den``, or NaN when a failure left ``den`` at zero."""
    return num / den if den > 0 else float("nan")


def _same(a, b) -> bool:
    """Bit-exact equality, with NaN equal to itself."""
    return a == b or (a != a and b != b)


#: The spans directly under ``e2e``; together they cover it.
STAGES = ("setup", "search", "validate", "report")
#: The fewest timed rounds a run takes its medians over, however short
#: ``seconds`` is.
MIN_ROUNDS = 3

#: One timed iteration of every instance, in instance order.
Round = list[Iteration]


def _mean(rnd: Round, value) -> float:
    """A round's figure for one iteration: the mean over its instances."""
    return statistics.fmean(value(it) for it in rnd)


def _rate(rnd: Round, num, den) -> float:
    """A round's rate: its total ``num`` over its total ``den``."""
    return _ratio(sum(num(it) for it in rnd), sum(den(it) for it in rnd))


def _stage_mean(rnd: Round, stage: str) -> float:
    return _mean(rnd, lambda it: it.seconds(stage))


def combine_counts(counts: list[dict]) -> dict:
    """The instances' exact figures as those of one iteration: the mean of
    each, except that aggregate TEPS and relax efficiency are total over
    total, and the harmonic-mean TEPS is the harmonic mean of the
    instances' (that over all their roots).  Empty if an instance has none."""
    if not all(counts):
        return {}
    mixed = {key: statistics.fmean(c[key] for c in counts) for key in counts[0]}

    def total(key: str) -> float:
        return sum(c[key] for c in counts)

    mixed["modeled_teps"] = total("traversed") / total("modeled_s")
    mixed["engine.relax_efficiency"] = total("traversed") / total("engine.edges_relaxed")
    mixed["graph500.modeled_teps_hmean"] = len(counts) / sum(
        1 / c["graph500.modeled_teps_hmean"] for c in counts
    )
    return mixed


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    """A warm-up, then timed rounds for ``seconds``; fold them into metrics."""
    failures: list[dict] = []
    nondeterministic: set[str] = set()
    attempted = 0
    #: Each instance's first iteration, whose roots and exact counts the
    #: later ones must repeat, and its oracle's answer digests.
    first: dict[int, Iteration] = {}
    oracles: dict[int, dict[int, str | None]] = {}
    oracle_wall_s = []

    def account(it: Iteration, label: str) -> None:
        nonlocal attempted
        attempted += len(it.roots)
        for root, reason in sorted(it.failures.items()):
            failures.append(
                {"iteration": label, "instance_seed": it.seed, "root": root, "reason": reason}
            )
        ref = first[it.seed]
        nondeterministic.update(
            key for key, value in it.counts.items() if not _same(value, ref.counts.get(key))
        )
        it.release()

    def check(it: Iteration, label: str) -> None:
        if it.seed not in first:
            # The oracle answers an instance once, after its first
            # iteration and outside every timed span.
            first[it.seed] = it
            start = time.perf_counter()
            oracles[it.seed] = oracle_digests(w, it.graph, it.roots)
            oracle_wall_s.append(time.perf_counter() - start)
        check_answers(it, first[it.seed].roots, oracles[it.seed])
        account(it, label)

    seeds = instance_seeds(seed)
    warm_up = run_iteration(w, seeds[0])
    check(warm_up, "warm-up")

    rounds: list[Round] = []
    spent = 0.0
    # Another round only while it should end within ``seconds``.
    while len(rounds) < MIN_ROUNDS or spent * (len(rounds) + 1) / len(rounds) <= seconds:
        # Under tracing, alternate untraced and traced rounds, so the
        # overhead compares like with like.
        traced = trace and len(rounds) % 2 == 1
        rnd = []
        for s in seeds:
            gc.collect()
            it = run_iteration(w, s, traced=traced)
            check(it, f"timed-{len(rounds)}")
            rnd.append(it)
        spent += sum(it.wall_seconds("e2e") for it in rnd)
        rounds.append(rnd)

    probed = [warm_up] + [it for rnd in rounds for it in rnd]
    scale = PROBE_REF_S / _median([it.probe_s for it in probed])
    for it in probed:
        it.scale = scale
    oracle_s = [t * scale for t in oracle_wall_s]

    plain = [rnd for rnd in rounds if not rnd[0].traced]
    samples = {
        f"{stage}_s": [_stage_mean(rnd, stage) for rnd in plain]
        for stage in ("e2e", "setup", "search", "validate")
    }
    samples["wall_teps"] = [
        _rate(rnd, lambda it: it.traversed, lambda it: it.seconds("search")) for rnd in plain
    ]
    # The raw figures behind the reference seconds, for the provenance.
    samples["wall_e2e_s"] = [_mean(rnd, lambda it: it.wall_seconds("e2e")) for rnd in plain]
    samples["probe_s"] = [it.probe_s for it in probed]
    counts = combine_counts([first[s].counts for s in seeds])
    if trace:
        traced = [rnd for rnd in rounds if rnd[0].traced]
        samples["obs.traced_search_s"] = [_stage_mean(rnd, "search") for rnd in traced]
        metrics = _layer_metrics(traced, samples, counts, oracle_s)
        table = LAYER_METRICS
    else:
        metrics = {name: _median(values) for name, values in samples.items()}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["modeled_teps"] = counts.get("modeled_teps", float("nan"))
        table = E2E_METRICS
    return RunResult(
        workload=w,
        seed=seed,
        instance_seeds=seeds,
        trace=trace,
        attempted=attempted,
        failures=failures,
        nondeterministic=sorted(nondeterministic),
        metrics={name: float(metrics.get(name, float("nan"))) for name in table},
        samples=samples,
    )


def _layer_metrics(
    traced: list[Round], samples: dict, counts: dict, oracle_s: list[float]
) -> dict:
    """Per-layer metrics: medians over the traced rounds."""

    def med(value) -> float:
        return _median([_mean(rnd, value) for rnd in traced])

    def med_rate(num, den) -> float:
        return _median([_rate(rnd, num, den) for rnd in traced])

    its = [it for rnd in traced for it in rnd]
    validate_roots = [d for it in its for d in it.durations("graph500.validate_root")]
    run_calls = [d for it in its for d in it.durations("api.run")]
    metrics = {
        "graph.generate_s": med(lambda it: it.seconds("graph.generate")),
        "graph.generate_medges_per_s": med_rate(
            lambda it: it.generated_edges / 1e6, lambda it: it.seconds("graph.generate")
        ),
        "graph.build_csr_s": med(lambda it: it.seconds("graph.build_csr")),
        "graph.edges": _mean(traced[0], lambda it: it.csr_edges),
        "graph500.sample_roots_s": med(lambda it: it.seconds("graph500.sample_roots")),
        "graph500.validate_root_p50_s": _percentile(validate_roots, 50),
        "graph500.validate_root_p80_s": _percentile(validate_roots, 80),
        "graph500.validate_medges_per_s": med_rate(
            lambda it: len(it.roots) * it.csr_edges / 1e6, lambda it: it.seconds("validate")
        ),
        "api.run_call_p50_s": _median(run_calls),
        "executor.compute_s": med(lambda it: it.bucket("compute")),
        "executor.barrier_wait_s": med(lambda it: it.bucket("barrier_wait")),
        "executor.dispatch_s": med(lambda it: it.bucket("dispatch")),
        "executor.transport_s": med(lambda it: it.bucket("transport")),
        "executor.driver_s": med(lambda it: it.attribution.driver_s * it.scale),
        "executor.coverage": med(lambda it: it.attribution.coverage),
        "oracle_s": statistics.fmean(oracle_s),
        "obs.trace_overhead_s": _median(samples["obs.traced_search_s"])
        - _median(samples["search_s"]),
        "obs.traced_e2e_s": med(lambda it: it.seconds("e2e")),
        "obs.span_coverage": med_rate(
            lambda it: sum(it.seconds(s) for s in STAGES), lambda it: it.seconds("e2e")
        ),
    }
    metrics.update((name, counts[name]) for name in LAYER_METRICS if name in counts)
    return metrics
