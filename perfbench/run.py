"""mlrank benchmark: one named workload, closed loop, one process.

    python3 perfbench/run.py --workload feature-rank --seed 0 --seconds 20 --trace 0

Set-up builds the workload's inputs (several times; ``setup_s`` is the
median).  Then the workload's command sequence, run through
``mlrank.cli.main``, repeats in whole rounds until ``--seconds`` have
passed; each command starts when the previous one has finished.  With
``--trace 0`` the last stdout line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a run whose module boundaries
are wrapped (see ``tracing.py``).  Both check every output: the first
round's against an independent recomputation (``reference.py``) and the
method's properties, every later round's byte for byte against the
first.  An operation is one CLI command; it fails if it exits non-zero
or an output check fails.  Outputs go to ``perfbench-out/<workload>/``
at the repository root.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the numbers must not depend on what else holds a core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "perfbench-out")
CHECKPOINTS = os.path.join(HERE, "checkpoints")
SETUP_REPEATS = 3

# The acceptance canvas config (tests/test_acceptance.py CANVAS_CFG).
CANVAS = {
    "canvas_size": 64, "glyph_size": 18, "setup": "S", "scale_range": [1.0, 2.5],
    "digit_count_range": [3, 4],
}
FEATURE = {"num_classes": 6, "dim": 24, "factor_range": [0.5, 3.0], "noise": 0.05}
FEATURE_TRAIN = {
    "epochs": 2, "batch_size": 32, "learning_rate": 5e-3, "weight_decay": 1e-5,
    "lr_decay_per_epoch": 1.0, "hidden": [64, 64],
}
CANVAS_N_TRAIN = 2000
CANVAS_N_HELDOUT = 500
CANVAS_TRAIN = {
    "method": "gmlr", "mode": "strong", "epochs": 8, "batch_size": 32, "learning_rate": 2e-3,
    "weight_decay": 1e-5, "lr_decay_per_epoch": 0.98, "hidden": [64, 64],
}
# The probe models' training data is the first 4000 of seed 101; the
# held-out slice starts at 4000 plus a seed-chosen multiple of 500.
PROBE_FEATURE_SEED = 101
PROBE_HELDOUT = 4000
PROBE_OFFSETS = 8
PROBE_N = 4000 + 500 * (PROBE_OFFSETS - 1) + PROBE_HELDOUT
PROBE_CALIB_SEEDS = tuple(range(301, 321))
PROBE_ADJUST_SEEDS = tuple(range(302, 310))


class ProgramMissing(Exception):
    pass


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mlrank", "cli.py")):
        raise ProgramMissing(f"no mlrank source under {src}")
    sys.path.insert(0, src)
    import mlrank.cli

    if not os.path.abspath(mlrank.cli.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"mlrank was imported from {mlrank.cli.__file__}, not {src}")
    return mlrank.cli


def write_json(path, doc) -> str:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
    return path


def slice_jsonl(src, dst, start, stop) -> None:
    """Copy the header and instances [start, stop) of a dataset file."""
    with open(src, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    with open(dst, "w", encoding="ascii") as fh:
        fh.write(lines[0])
        fh.writelines(lines[1 + start : 1 + stop])


@dataclass
class Op:
    """One CLI command.  ``name`` is also its output directory under the
    round's directory; ``check`` takes the directory the round's outputs
    sit in when they are checked and returns the problems found."""

    name: str
    argv: list[str]
    check: Callable[[str], list[str]]

    @property
    def command(self) -> str:
        return self.argv[0]


def quiet_main(cli, argv) -> tuple[object, str]:
    """Runs one command; returns (exit code or exception, its output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            code = repr(exc)
    return code, buf.getvalue()


def setup_command(cli, argv) -> None:
    code, text = quiet_main(cli, argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} failed ({code}): {text}")


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    def __init__(self, cli, seed):
        self.cli = cli
        self.seed = seed


class FeatureRank(Workload):
    """Every method x mode trains on the first 4000 feature instances and
    is evaluated on the last 1000."""

    name = "feature-rank"
    runs = [(m, mode) for m in ("gmlr", "crpc", "lsep") for mode in ("strong", "weak")]

    def setup(self, d) -> None:
        cfg = write_json(os.path.join(d, "generate.json"), {"kind": "feature", "feature": FEATURE})
        setup_command(
            self.cli, ["generate", "--config", cfg, "--n", "5000", "--seed", str(101 + self.seed),
                       "--out", os.path.join(d, "gen")],
        )
        full = os.path.join(d, "gen", "dataset.jsonl")
        slice_jsonl(full, os.path.join(d, "train.jsonl"), 0, 4000)
        slice_jsonl(full, os.path.join(d, "test.jsonl"), 4000, 5000)
        for method, mode in self.runs:
            write_json(
                os.path.join(d, f"train_{method}_{mode}.json"),
                {"dataset": os.path.join(d, "train.jsonl"), "method": method, "mode": mode,
                 **FEATURE_TRAIN},
            )

    def ops(self, inputs, rd) -> list[Op]:
        _, features, ranks = reference.read_jsonl(os.path.join(inputs, "test.jsonl"))
        ops = []
        for method, mode in self.runs:
            tag = f"{method}_{mode}"
            stages = [(1, FEATURE_TRAIN["epochs"])]
            if method == "lsep":
                stages.append((2, FEATURE_TRAIN["epochs"]))
            ops.append(Op(
                f"train_{tag}",
                ["train", "--config", os.path.join(inputs, f"train_{tag}.json"),
                 "--seed", str(7 + self.seed), "--out", os.path.join(rd, f"train_{tag}")],
                lambda d, tag=tag, stages=stages: reference.check_loss_log(
                    os.path.join(d, f"train_{tag}", "loss_log.csv"), stages),
            ))
            ops.append(Op(
                f"eval_{tag}",
                ["eval", "--checkpoint", os.path.join(rd, f"train_{tag}", "checkpoint.json"),
                 "--dataset", os.path.join(inputs, "test.jsonl"), "--out", os.path.join(rd, f"eval_{tag}")],
                lambda d, tag=tag: check_eval(
                    d, f"eval_{tag}", os.path.join(d, f"train_{tag}", "checkpoint.json"), features, ranks)[0],
            ))
        return ops

    def checkpoints(self, d) -> list[str]:
        return [os.path.join(d, f"train_{m}_{mode}", "checkpoint.json") for m, mode in self.runs]


class CanvasTrain(Workload):
    """Generate a training set, train gmlr strong behind the front end,
    evaluate on a fresh held-out set generated in set-up."""

    name = "canvas-train"

    def setup(self, d) -> None:
        cfg = write_json(os.path.join(d, "generate.json"), {"kind": "canvas", "canvas": CANVAS})
        setup_command(
            self.cli, ["generate", "--config", cfg, "--n", str(CANVAS_N_HELDOUT),
                       "--seed", str(5001 + 2 * self.seed), "--out", os.path.join(d, "heldout")],
        )

    def ops(self, inputs, rd) -> list[Op]:
        heldout = os.path.join(inputs, "heldout", "dataset.jsonl")
        _, features, ranks = reference.read_jsonl(heldout)
        all_negative_hl = 100.0 * float((ranks > 0).mean())
        train_cfg = write_json(
            os.path.join(inputs, "train.json"),
            {"dataset": os.path.join(rd, "gen", "dataset.jsonl"), **CANVAS_TRAIN},
        )

        def check_eval_canvas(d):
            problems, got = check_eval(d, "eval", os.path.join(d, "train", "checkpoint.json"), features, ranks)
            if got and not got["hl"] < all_negative_hl:
                problems.append(
                    f"fresh-canvas Hamming loss {got['hl']:.2f} is not below the all-negative {all_negative_hl:.2f}"
                )
            return problems

        return [
            Op("gen",
               ["generate", "--config", os.path.join(inputs, "generate.json"), "--n", str(CANVAS_N_TRAIN),
                "--seed", str(5000 + 2 * self.seed), "--out", os.path.join(rd, "gen")],
               lambda d: reference.check_canvas_jsonl(
                   os.path.join(d, "gen", "dataset.jsonl"), CANVAS_N_TRAIN, 10, 64 * 64, CANVAS["digit_count_range"])),
            Op("train",
               ["train", "--config", train_cfg, "--seed", str(11 + self.seed), "--out", os.path.join(rd, "train")],
               lambda d: reference.check_loss_log(
                   os.path.join(d, "train", "loss_log.csv"), [(1, CANVAS_TRAIN["epochs"])])),
            Op("eval",
               ["eval", "--checkpoint", os.path.join(rd, "train", "checkpoint.json"), "--dataset", heldout,
                "--out", os.path.join(rd, "eval")],
               check_eval_canvas),
        ]

    def checkpoints(self, d) -> list[str]:
        return [os.path.join(d, "train", "checkpoint.json")]


class Probe(Workload):
    """Inference only, on committed checkpoints: eval of three feature
    models on a held-out slice, the adjusting and calibration
    experiments on the canvas model, and extract-sig."""

    name = "probe"
    methods = ("gmlr", "crpc", "lsep")

    def __init__(self, cli, seed):
        super().__init__(cli, seed)
        self.start = 4000 + 500 * (seed % PROBE_OFFSETS)
        self.calib_seed = PROBE_CALIB_SEEDS[seed % len(PROBE_CALIB_SEEDS)]
        self.adjust_seed = PROBE_ADJUST_SEEDS[seed % len(PROBE_ADJUST_SEEDS)]
        self.class_index = seed % FEATURE["num_classes"]

    def setup(self, d) -> None:
        cfg = write_json(os.path.join(d, "generate.json"), {"kind": "feature", "feature": FEATURE})
        setup_command(
            self.cli, ["generate", "--config", cfg, "--n", str(PROBE_N), "--seed", str(PROBE_FEATURE_SEED),
                       "--out", os.path.join(d, "gen")],
        )
        slice_jsonl(os.path.join(d, "gen", "dataset.jsonl"), os.path.join(d, "heldout.jsonl"),
                    self.start, self.start + PROBE_HELDOUT)
        write_json(os.path.join(d, "probe.json"), {"canvas": CANVAS, "n_sequences": 50, "steps": 50, "n": 50})

    def ops(self, inputs, rd) -> list[Op]:
        from mlrank.synthgen import (
            CALIBRATION_SCALES,
            CanvasConfig,
            generate_adjust_sequences,
            generate_calibration_set,
        )

        heldout = os.path.join(inputs, "heldout.jsonl")
        _, features, ranks = reference.read_jsonl(heldout)
        canvas_ckpt = os.path.join(CHECKPOINTS, "canvas_gmlr_strong.json")
        canvas_kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in CANVAS.items()}

        def feature_ckpt(method):
            return os.path.join(CHECKPOINTS, f"feature_{method}_strong.json")

        def check_adjust(d):
            seqs = generate_adjust_sequences(CanvasConfig(seed=self.adjust_seed, **canvas_kwargs), 50, 50)
            return reference.check_adjust_csv(
                os.path.join(d, "adjust", "adjust.csv"), reference.Model(canvas_ckpt), seqs)

        def check_calib(d):
            samples = generate_calibration_set(CanvasConfig(seed=self.calib_seed, **canvas_kwargs), 50)
            return reference.check_calibration_csv(
                os.path.join(d, "calib", "calibration.csv"), reference.Model(canvas_ckpt), samples,
                CALIBRATION_SCALES)

        ops = [
            Op(f"eval_{m}",
               ["eval", "--checkpoint", feature_ckpt(m), "--dataset", heldout, "--out", os.path.join(rd, f"eval_{m}")],
               lambda d, m=m: check_eval(d, f"eval_{m}", feature_ckpt(m), features, ranks,
                                         criterion_08=m == "gmlr")[0])
            for m in self.methods
        ]
        ops += [
            Op("adjust",
               ["adjust-exp", "--config", os.path.join(inputs, "probe.json"), "--checkpoint", canvas_ckpt,
                "--seed", str(self.adjust_seed), "--out", os.path.join(rd, "adjust")],
               check_adjust),
            Op("calib",
               ["calib-exp", "--config", os.path.join(inputs, "probe.json"), "--checkpoint", canvas_ckpt,
                "--seed", str(self.calib_seed), "--out", os.path.join(rd, "calib")],
               check_calib),
            Op("sig",
               ["extract-sig", "--checkpoint", feature_ckpt("gmlr"), "--dataset", heldout,
                "--class-index", str(self.class_index), "--n-checkpoints", "10", "--out", os.path.join(rd, "sig")],
               lambda d: reference.check_significance_csv(
                   os.path.join(d, "sig", "significance.csv"), reference.Model(feature_ckpt("gmlr")), features,
                   self.class_index, 10)),
        ]
        return ops

    def checkpoints(self, d) -> list[str]:
        return [os.path.join(CHECKPOINTS, f) for f in sorted(os.listdir(CHECKPOINTS)) if f.endswith(".json")]


def check_eval(d, name, checkpoint, features, ranks, criterion_08=False):
    """metrics.csv against the recomputation; strong gmlr must also meet
    acceptance criterion 08 (F1 >= 97, HL <= 3)."""
    problems, got = reference.check_metrics_csv(
        os.path.join(d, name, "metrics.csv"), reference.Model(checkpoint), features, ranks)
    if criterion_08 and got and not (got["f1"] >= 97.0 and got["hl"] <= 3.0):
        problems.append(f"{name}: criterion 08 fails: F1={got['f1']:.2f} HL={got['hl']:.2f}")
    return problems, got


WORKLOADS = {w.name: w for w in (FeatureRank, CanvasTrain, Probe)}


# ---------------------------------------------------------------------------
# Measuring
#
# The shared 2-core box's speed drifts: a fixed interpreter loop ran 1.4
# to 3 times slower for minutes at a time, with no steal time reported,
# so raw times of runs minutes apart differ by more than any useful
# bound.  Every timed call is therefore bracketed by a short reference
# loop, and its time is taken at reference speed: multiplied by
# REFERENCE_S over the mean of the reference loop's times right before
# and right after it.  The metrics report these; record.json keeps the
# raw times and the speed factors.

REFERENCE_S = 0.0075  # the reference loop's time on the quiet box
_REFERENCE_ARRAY = None
_REFERENCE_JSON = json.dumps([i * 0.001 for i in range(3000)])


def reference_seconds() -> float:
    """Fastest of three runs of a fixed mix of the work mlrank does:
    interpreter loops, small-array NumPy calls, an 8 MB array sweep and
    JSON parsing.  Its time is the box's current speed."""
    import numpy as np

    global _REFERENCE_ARRAY
    if _REFERENCE_ARRAY is None:
        _REFERENCE_ARRAY = np.ones(1 << 20)
    a = np.arange(8.0)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(1000):
            s += float(np.sum(a * i))
        for i in range(15000):
            s += i * 0.5
        s += float(_REFERENCE_ARRAY.sum()) + float((_REFERENCE_ARRAY * 0.5).sum())
        s += sum(json.loads(_REFERENCE_JSON))
        best = min(best, time.perf_counter() - t0)
    return best


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Meter:
    """Times calls as (wall s, CPU s, speed), speed being REFERENCE_S
    over the reference loop's mean time around the call."""

    def __init__(self):
        self.ref = reference_seconds()

    def time(self, fn, *args):
        before = self.ref
        c0, t0 = cpu_seconds(), time.perf_counter()
        result = fn(*args)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        self.ref = reference_seconds()
        return result, (wall, cpu, 2 * REFERENCE_S / (before + self.ref))


def at_reference(samples, index) -> list[float]:
    return [sample[index] * sample[2] for sample in samples]


def sequence_median(rounds, index) -> float:
    """Sum over the command sequence of each command's median over the
    rounds, at reference speed: a burst of load during one command of one
    round does not move it."""
    return sum(statistics.median(at_reference(per_op, index)) for per_op in zip(*rounds))


def tree_digest(path) -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(root, f)
            h.update(os.path.relpath(p, path).encode())
            with open(p, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", "r") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    return {
        "machine": platform.machine(),
        "processor": model,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    cli = import_program()

    out = os.path.join(OUT, workload_name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    workload = WORKLOADS[workload_name](cli, seed)
    meter = Meter()

    setups = []
    for i in range(SETUP_REPEATS):
        d = os.path.join(out, f"setup{i}")
        os.makedirs(d)
        setups.append(meter.time(workload.setup, d)[1])
        if i:
            shutil.rmtree(os.path.join(out, f"setup{i - 1}"))
    inputs = os.path.join(out, f"setup{SETUP_REPEATS - 1}")

    rd = os.path.join(out, "round")
    first = os.path.join(out, "first")
    ops = workload.ops(inputs, rd)
    tracer = tracing.Tracer() if traced else None
    rounds, layer_rounds, span_rounds = [], [], []
    failed: dict[str, list[str]] = {op.name: [] for op in ops}  # one entry per failed round
    incorrect: set[str] = set()
    digests: dict[str, str] = {}
    if tracer:
        tracer.install()
    started = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - started < seconds:
            shutil.rmtree(rd, ignore_errors=True)
            os.makedirs(rd)
            meter.ref = reference_seconds()
            outcomes, samples = [], []
            for op in ops:
                idx = tracer.open(f"cli.{op.command}") if tracer else None
                outcome, sample = meter.time(quiet_main, cli, op.argv)
                if tracer:
                    tracer.close(idx)
                outcomes.append(outcome)
                samples.append(sample)
            rounds.append(samples)
            if tracer:
                spans = tracer.take()
                layer_rounds.append(tracing.layer_values(spans))
                span_rounds.append(spans)
            for op, (code, text) in zip(ops, outcomes):
                if code != 0:
                    failed[op.name].append(f"round {len(rounds)}: exit {code}: {text.strip()[-500:]}")
                    continue
                digest = tree_digest(os.path.join(rd, op.name))
                if op.name not in digests:
                    digests[op.name] = digest
                elif digest != digests[op.name]:
                    failed[op.name].append(f"round {len(rounds)}: output differs from its first output")
                    incorrect.add(op.name)
            if len(rounds) == 1:
                os.rename(rd, first)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Round 1's outputs against the recomputation and the properties.  A
    # later round whose output matched round 1 byte for byte shares its
    # verdict.
    for op in ops:
        if op.name not in digests:  # it never exited 0
            continue
        try:
            problems = op.check(first)
        except Exception as exc:  # an unreadable output is a wrong output
            problems = [f"check raised {exc!r}"]
        if problems:
            incorrect.add(op.name)
            failed[op.name].extend(["; ".join(problems)] * (len(rounds) - len(failed[op.name])))

    result = {
        "correct": not incorrect,
        "attempted": len(rounds) * len(ops),
        "failed": sum(len(v) for v in failed.values()),
    }
    if traced:
        absent = set(tracing.absent_metrics(tracer.absent))
        metrics = {}
        for name, (unit, _, _) in tracing.PER_LAYER.items():
            if name == "model.subnormal_params":
                value = sum(reference.subnormal_count(reference.Model(p)) for p in workload.checkpoints(first)
                            if os.path.exists(p))
            else:
                value = statistics.median(r[name] for r in layer_rounds)
            metrics[name] = {"value": 0 if name in absent else value, "unit": unit}
        with open(os.path.join(out, "trace_spans.csv"), "w", encoding="ascii") as fh:
            fh.write("round,name,start,end,parent\n")
            for i, spans in enumerate(span_rounds, start=1):
                spans.write(fh, i)
        print(f"absent targets: {tracer.absent}; absent metrics: {sorted(absent)}")
        print(f"traced rounds: {len(rounds)}; traced wall_s {sequence_median(rounds, 0)!r}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(at_reference(setups, 0)), "unit": "s"},
            "wall_s": {"value": sequence_median(rounds, 0), "unit": "s"},
            "cpu_s": {"value": sequence_median(rounds, 1), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result["metrics"] = metrics
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "ops": [op.name for op in ops], "setup": setups, "rounds": rounds,
        "sample_fields": ["wall_s", "cpu_s", "speed"],
        "failures": {k: v for k, v in failed.items() if v}, "environment": environment(), "result": result,
    }
    write_json(os.path.join(out, "record.json"), record)
    for name, lines in failed.items():
        for line in lines[:3]:
            print(f"FAILED {name}: {line}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = run(args.workload, args.seed % 1_000_000, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
