"""End-to-end and per-layer benchmark of the adreg registration pipeline.

Run from the repository root:

    python3 bench/run.py --workload register_small --seed 1 --seconds 30 --trace 0

Each workload is a closed loop in one process: one operation (a registered
pair or a training step) starts when the previous one has finished. The
program is the seeded, untrained ``RegistrationModel``; inputs are synthetic
pairs made from ``--seed``. Set-up (model construction, input generation and
one warm-up operation) runs SETUP_REPEATS times and is timed apart from the
loop. A fixed Reference computation runs between the timed intervals, and
the end-to-end times are rescaled by its median time, so that drift in the
speed of a shared machine moves them less. With ``--trace 0`` the loop is
timed untraced and the end-to-end metrics are printed; with ``--trace 1``
every operation runs once untraced and once traced, and the per-layer
metrics and the tracing overhead are printed.
Every metric is printed by name with its unit; the last stdout line is one
JSON object. Every returned transform and loss is checked, and the exit code
is 1 when a check fails. The full record, spans included, is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# adreg comes before numpy: its import sets BLAS to one thread unless the
# caller chose otherwise, and BLAS reads that when numpy loads it.
import adreg  # noqa: E402

if Path(adreg.__file__).resolve().parent != SRC / "adreg":
    raise ImportError(f"adreg was imported from {adreg.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
from adreg import training  # noqa: E402
from adreg.coarse import DegeneracyError  # noqa: E402
from adreg.diffusion import NumericalError  # noqa: E402
from adreg.io import RunConfig  # noqa: E402

import tracing  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# Operation failures that are counted and survived; anything else aborts.
FAILURES = (DegeneracyError, NumericalError, ValueError)
ORTHONORMAL_TOL = 1e-9
# Registration recall: KITTI's 2 m / 5 degrees, translation scaled from the
# ~50 m KITTI range to the +-15 m synthetic scenes.
RECALL_RTE_M = 0.6
RECALL_RRE_DEG = 5.0
# Timed metrics are rescaled to the speed at which one Reference run takes
# this long, because the speed of a shared machine drifts by 10-20% from
# one minute to the next; the wall-clock figures are printed beside them.
REFERENCE_NOMINAL_S = 0.04
# Reference runs after an interval fill this share of its length, so the
# machine is sampled in proportion to the time spent measuring it.
REFERENCE_SHARE = 0.1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"op_s_p50": "s", "ops_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
ACCURACY_UNITS = {"recall": "share", "rte_m_p50": "m", "rre_deg_p50": "deg",
                  "train_loss": "loss"}
PER_LAYER_UNITS = {**tracing.UNITS, "trace.overhead_s": "s"}
# The names of the two loop metrics, per kind of operation.
OP_NAMES = {"register": ("pair_s_p50", "pairs_per_s"),
            "train": ("step_s_p50", "steps_per_s")}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "register" or "train"
    scale: float        # RunConfig.backbone_scale
    points: int         # raw points per cloud
    warm_points: int    # raw points per cloud of the warm-up pair
    pool: int           # distinct pairs made at set-up; the loop cycles them
    fixed_ops: int      # the loop runs at least these; accuracy and digest use them


WORKLOADS = {w.name: w for w in (
    Workload("register_full", "register", 1.0, 60_000, 2048, 6, 2),
    Workload("register_small", "register", 0.25, 512, 512, 64, 16),
    Workload("train_step", "train", 0.25, 512, 512, 32, 8),
)}


@dataclass
class Op:
    seconds: float
    error: str | None = None
    transform: object = None   # RigidTransform of a registration
    truth: object = None       # its ground truth
    loss: float | None = None  # training loss of a step


@dataclass
class State:
    model: training.RegistrationModel
    pool: list
    optimizer: object = None
    rng: np.random.Generator | None = None


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    violations: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    info: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.violations


class Reference:
    """A fixed mix of the work the pipeline does (BLAS products, elementwise
    maps, pairwise distances with a sort, a Python loop) whose time tracks
    how fast the machine runs at the moment."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(4096, 64))
        self.w = rng.normal(size=(64, 64))
        self.p = rng.normal(size=(1024, 3))
        self._run()  # the first run pays one-time costs

    def _run(self):
        y = np.maximum(self.x @ self.w, 0.0)
        (y - y.mean(axis=0)) / (y.std(axis=0) + 1e-5)
        d2 = ((self.p[:256, None, :] - self.p[None, :, :]) ** 2).sum(axis=-1)
        np.argsort(d2, axis=1, kind="stable")
        total = 0.0
        for i in range(10_000):
            total += i * 0.5

    def seconds(self, after: float = 0.0) -> float:
        """Mean seconds per run, over as many runs as fill REFERENCE_SHARE of
        ``after``, the interval just measured (at least one run)."""
        runs = 0
        start = time.perf_counter()
        while True:
            self._run()
            runs += 1
            elapsed = time.perf_counter() - start
            if elapsed >= REFERENCE_SHARE * after:
                return elapsed / runs


def make_pairs(wl: Workload, cfg: RunConfig, seed: int, stream: int, n: int,
               points: int) -> list:
    rng = np.random.default_rng([seed, stream])
    pairs = [training.gen_synthetic_pair(rng, points, cfg.max_rot_deg, cfg.max_trans,
                                         cfg.jitter, cfg.outlier_clusters)
             for _ in range(n)]
    if wl.kind == "train":
        pairs = [training._preprocess_pair(p, cfg, i) for i, p in enumerate(pairs)]
    return pairs


def set_up(wl: Workload, seed: int) -> State:
    """Model, input pool, and one warm-up operation on a pair of its own."""
    model = training.RegistrationModel(RunConfig(backbone_scale=wl.scale))
    cfg = model.config
    state = State(model, make_pairs(wl, cfg, seed, 1, wl.pool, wl.points))
    if wl.kind == "train":
        state.optimizer = model.make_optimizer()
        state.rng = np.random.default_rng([seed, 3])
    warm = make_pairs(wl, cfg, seed, 2, 1, wl.warm_points)[0]
    run_op(wl, state, warm)
    return state


def run_op(wl: Workload, state: State, pair) -> Op:
    """One registration or one training step, timed; counted failures are
    returned as the error's type name."""
    model = state.model
    start = time.perf_counter()
    try:
        if wl.kind == "register":
            result = training.register_pair(model, pair.source, pair.target)
            return Op(time.perf_counter() - start, transform=result.transform,
                      truth=pair.transform)
        state.optimizer.zero_grad()
        ctx, src_out, tgt_out = training.make_step_context(model, pair, state.rng)
        total, _ = training.training_loss(model, pair, ctx, train=True,
                                          outputs=(src_out, tgt_out))
        if np.isfinite(total):
            state.optimizer.step()
        return Op(time.perf_counter() - start, loss=float(total))
    except FAILURES as exc:
        return Op(time.perf_counter() - start, error=type(exc).__name__)


def check(op: Op) -> str | None:
    """Why an operation's output is invalid, or None."""
    if op.error is not None:
        return None
    if op.loss is not None:
        return None if np.isfinite(op.loss) else f"non-finite loss {op.loss}"
    rot, trans = op.transform.rotation, op.transform.translation
    if not (np.isfinite(rot).all() and np.isfinite(trans).all()):
        return "non-finite transform"
    if np.abs(rot.T @ rot - np.eye(3)).max() > ORTHONORMAL_TOL:
        return "rotation not orthonormal within 1e-9"
    if abs(np.linalg.det(rot) - 1.0) > ORTHONORMAL_TOL:
        return "rotation determinant is not +1"
    return None


def errors(op: Op) -> tuple[float, float]:
    """Translation (m) and rotation (degrees) error against the truth."""
    rte = float(np.linalg.norm(op.transform.translation - op.truth.translation))
    cos = (np.trace(op.truth.rotation.T @ op.transform.rotation) - 1.0) / 2.0
    return rte, float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def digest(ops: list[Op]) -> str:
    """Fingerprint of the outputs: bit-identical outputs, equal digests."""
    h = hashlib.sha256()
    for op in ops:
        if op.error is not None:
            h.update(op.error.encode())
        elif op.loss is not None:
            h.update(np.float64(op.loss).tobytes())
        else:
            h.update(op.transform.rotation.tobytes())
            h.update(op.transform.translation.tobytes())
    return h.hexdigest()


def accuracy(wl: Workload, ops: list[Op]) -> dict:
    """Deterministic accuracy record over the loop's first fixed_ops ops."""
    done = [op for op in ops if op.error is None]
    if wl.kind == "train":
        losses = [op.loss for op in done]
        return {"train_loss": float(np.mean(losses)) if losses else float("nan")}
    errs = [errors(op) for op in done]
    hits = sum(rte < RECALL_RTE_M and rre < RECALL_RRE_DEG for rte, rre in errs)
    return {"recall": hits / len(ops),
            "rte_m_p50": statistics.median(e[0] for e in errs) if errs else float("nan"),
            "rre_deg_p50": statistics.median(e[1] for e in errs) if errs else float("nan")}


def environment() -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
           "python": sys.version.split()[0]}
    env.update({var: os.environ.get(var) for var in BLAS_VARS})
    return env


def tally(report: Report, wl: Workload, plain: list[Op], traced: list[Op]) -> None:
    """Count attempts and failures by reason, and check every output."""
    ops = plain + traced
    reasons: dict[str, int] = {}
    for n, op in enumerate(ops):
        if op.error is not None:
            reasons[op.error] = reasons.get(op.error, 0) + 1
        problem = check(op)
        if problem is not None:
            report.violations.append(f"op {n}: {problem}")
    if wl.kind == "register":
        # Registration is deterministic, so tracing must not change it.
        for n, (a, b) in enumerate(zip(plain, traced)):
            if digest([a]) != digest([b]):
                report.violations.append(f"op {n}: traced output differs")
    report.attempted = len(ops)
    report.failed = sum(reasons.values())
    report.info["fail_share"] = report.failed / report.attempted
    report.info["fail_reasons"] = reasons


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> Report:
    """Set up, run the closed loop for at least ``seconds``, and measure."""
    report = Report(wl.name, seed, trace, info={"environment": environment()})
    reference = Reference()
    refs = [reference.seconds()]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = set_up(wl, seed)
        setup_times.append(time.perf_counter() - start)
        refs.append(reference.seconds(after=setup_times[-1]))

    tracer = tracing.Tracer(state.model) if trace else None
    plain: list[Op] = []
    traced: list[Op] = []
    loop_start = time.perf_counter()
    i = 0
    while i < wl.fixed_ops or time.perf_counter() - loop_start < seconds:
        pair = state.pool[i % len(state.pool)]
        plain.append(run_op(wl, state, pair))
        refs.append(reference.seconds(after=plain[-1].seconds))
        if tracer is not None:
            tracer.op_id = i
            with tracer:
                traced.append(run_op(wl, state, pair))
        i += 1

    tally(report, wl, plain, traced)
    fixed = plain[:wl.fixed_ops]
    report.info.update(accuracy(wl, fixed))
    report.info["digest"] = digest(fixed)
    report.info["ops"] = len(plain)
    report.info["setup_times_s"] = setup_times
    report.info["op_times_s"] = [op.seconds for op in plain]

    op_s_p50 = statistics.median(op.seconds for op in plain)
    completed = sum(op.error is None for op in plain)
    report.info["wall_op_s_p50"] = op_s_p50
    report.info["wall_ops_per_s"] = completed / sum(op.seconds for op in plain)
    report.info["wall_setup_s"] = statistics.median(setup_times)
    report.info["reference_s"] = refs
    if not trace:
        # The run's median reference time stands for the machine's speed.
        scale = REFERENCE_NOMINAL_S / statistics.median(refs)
        op_s = [op.seconds * scale for op in plain]
        values = {"op_s_p50": statistics.median(op_s),
                  "ops_per_s": completed / sum(op_s),
                  "setup_s": statistics.median(setup_times) * scale,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        report.metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    else:
        traced_p50 = statistics.median(op.seconds for op in traced)
        values = tracing.layer_metrics(tracer.spans, len(traced))
        values["trace.overhead_s"] = traced_p50 - op_s_p50
        report.metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in values.items()}
        report.info["traced_op_s_p50"] = traced_p50
        report.info["missing_layers"] = tracer.missing
        report.spans = tracer.spans
    return report


def summary_lines(wl: Workload, report: Report) -> list[str]:
    """Human-readable record: environment, every metric with its unit, and
    the accuracy, failure and digest record."""
    env = report.info["environment"]
    lines = [f"workload {wl.name} seed {report.seed} trace {int(report.trace)} "
             f"ops {report.info['ops']}",
             "environment " + " ".join(f"{k}={v}" for k, v in env.items())]
    for name, (value, unit) in report.metrics.items():
        lines.append(f"{name} {value!r} {unit}")
    info = report.info
    p50_name, rate_name = OP_NAMES[wl.kind]
    extra = [(p50_name, info["wall_op_s_p50"], "s"),
             (rate_name, info["wall_ops_per_s"], "1/s"),
             ("setup_s_wall", info["wall_setup_s"], "s")]
    if report.trace:
        extra.append(("traced_op_s_p50_wall", info["traced_op_s_p50"], "s"))
    extra += [(key, info[key], unit) for key, unit in ACCURACY_UNITS.items()
              if key in info]
    lines += [f"{name} {value!r} {unit}" for name, value, unit in extra]
    if report.trace and info["missing_layers"]:
        lines.append("missing_layers " + " ".join(info["missing_layers"]))
    lines.append(f"fail_share {info['fail_share']!r} share "
                 f"{json.dumps(info['fail_reasons'], sort_keys=True)}")
    lines.append(f"digest {info['digest']} over {wl.fixed_ops} ops")
    lines.append(f"correct {report.correct}"
                 + "".join(f"\nviolation {v}" for v in report.violations))
    return lines


def result_json(report: Report) -> dict:
    return {"correct": report.correct, "attempted": report.attempted,
            "failed": report.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()}}


def write_record(report: Report) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{report.workload}-seed{report.seed}-trace{int(report.trace)}.json"
    record = {"result": result_json(report), "info": report.info,
              "violations": report.violations,
              "spans": [[s.name, s.start, s.end, s.parent, s.op_id, s.counts]
                        for s in report.spans]}
    path.write_text(json.dumps(record))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    report = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    for line in summary_lines(wl, report):
        print(line)
    print(f"record {write_record(report).relative_to(ROOT)}")
    print(json.dumps(result_json(report)), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
