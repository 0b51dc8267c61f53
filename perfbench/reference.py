"""Independent recomputation of the CLI's outputs.

The forward pass here reads the checkpoint JSON directly and shares no
code with ``mlrank.model``: each convolution is a sum over kernel taps
of strided slices (the program builds patch matrices), the affine stack
is plain NumPy, and the crpc vote tally loops over pairs.  The metrics
are brute-force loops over class pairs in the style of
``tests/oracles.py``, tie-aware, with the same skip rules as
``mlrank.metrics``.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

METRIC_COLUMNS = ("tau_b", "s_rho", "gamma", "hl", "m1", "f1")


class Model:
    def __init__(self, path):
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        self.head = doc["head"]
        self.k = int(doc["num_classes"])
        self.weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
        self.biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
        fe = doc.get("front_end")
        self.image_shape = tuple(fe["image_shape"]) if fe else None
        self.convs = [tuple(c) for c in fe["convs"]] if fe else []

    def outputs(self, x) -> np.ndarray:
        """Raw head outputs for a (n, d) feature matrix."""
        h = np.asarray(x, dtype=float)
        n = h.shape[0]
        layer = 0
        if self.image_shape is not None:
            h = h.reshape(n, *self.image_shape)
            for kernel, stride, out in self.convs:
                h = np.maximum(_conv(h, self.weights[layer], self.biases[layer], kernel, stride, out), 0.0)
                layer += 1
            flat = h.reshape(n, -1, h.shape[-1])
            h = np.concatenate([flat.max(axis=1), flat.mean(axis=1)], axis=1)
        last = len(self.weights) - 1
        for i in range(layer, last + 1):
            h = h @ self.weights[i] + self.biases[i]
            if i < last:
                h = np.maximum(h, 0.0)
        return h

    def predict(self, x):
        """(scores, positive mask, sigma or None) per row."""
        out = self.outputs(x)
        k = self.k
        if self.head == "gmlr":
            mu = out[:, :k]
            return mu, mu >= 0.0, np.exp(0.5 * out[:, k:])
        if self.head == "lsep":
            return out[:, :k], out[:, :k] > out[:, k:], None
        tally = np.zeros((out.shape[0], k + 1))
        for slot, (u, v) in enumerate(itertools.combinations(range(k + 1), 2)):
            tally[:, u] += 1.0 / (1.0 + np.exp(-out[:, slot]))
            tally[:, v] += 1.0 / (1.0 + np.exp(out[:, slot]))
        return tally[:, :k], tally[:, :k] > tally[:, k:], None


def _conv(h, w, b, kernel, stride, out):
    n, height, width, channels = h.shape
    ho = (height - kernel) // stride + 1
    wo = (width - kernel) // stride + 1
    taps = w.reshape(kernel, kernel, channels, out)
    z = np.broadcast_to(b, (n, ho, wo, out)).copy()
    for a in range(kernel):
        for c in range(kernel):
            window = h[:, a : a + stride * (ho - 1) + 1 : stride, c : c + stride * (wo - 1) + 1 : stride, :]
            z += window @ taps[a, c]
    return z


def read_jsonl(path):
    """(header, features, ranks) of a dataset JSONL file."""
    with open(path, "r", encoding="ascii") as fh:
        header = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh]
    features = np.asarray([r["features"] for r in rows], dtype=float)
    ranks = np.asarray([r["ranks"] for r in rows], dtype=np.int64)
    return header, features, ranks


def read_csv(path):
    with open(path, "r", encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Brute-force metrics


def _pairs(gt, scores):
    nc = nd = n1 = n2 = 0
    k = len(gt)
    for i in range(k):
        for j in range(i + 1, k):
            dg = gt[i] - gt[j]
            dp = scores[i] - scores[j]
            if dp == 0:
                n1 += 1
            if dg == 0:
                n2 += 1
            if dg * dp > 0:
                nc += 1
            elif dg != 0 and dp != 0:
                nd += 1
    return nc, nd, n1, n2


def _fractional(values):
    return [sum(1 for w in values if w < v) + (sum(1 for w in values if w == v) + 1) / 2.0 for v in values]


def instance_metrics(gt, scores, mask):
    """Dict of the six metrics for one instance; undefined ones absent."""
    k = len(gt)
    gt_pos = [g > 0 for g in gt]
    out = {}
    nc, nd, n1, n2 = _pairs(gt, scores)
    if k >= 2 and len(set(gt)) > 1 and len(set(scores)) > 1:
        n0 = k * (k - 1) // 2
        out["tau_b"] = (nc - nd) / math.sqrt((n0 - n1) * (n0 - n2))
        d2 = sum((a - b) ** 2 for a, b in zip(_fractional(scores), _fractional(gt)))
        out["s_rho"] = 1.0 - 6.0 * d2 / (k * (k * k - 1))
    if nc + nd:
        out["gamma"] = (nc - nd) / (nc + nd)
    if any(gt_pos):
        top = max(range(k), key=lambda c: (scores[c], -c))
        out["m1"] = 0.0 if gt_pos[top] else 1.0
    out["hl"] = sum(1 for g, p in zip(gt_pos, mask) if g != p) / k
    tp = sum(1 for g, p in zip(gt_pos, mask) if g and p)
    wrong = sum(1 for g, p in zip(gt_pos, mask) if g != p)
    out["f1"] = 1.0 if tp + wrong == 0 else tp / (tp + 0.5 * wrong)
    return out


def dataset_metrics(ranks, scores, masks) -> dict:
    """The ``metrics.csv`` row on the x100 scale, as numbers."""
    per = {c: [] for c in METRIC_COLUMNS}
    for gt, sc, mk in zip(ranks.tolist(), scores.tolist(), masks.tolist()):
        for name, value in instance_metrics(gt, sc, mk).items():
            per[name].append(value)
    n = len(ranks)
    row = {"n_instances": n}
    for c in METRIC_COLUMNS:
        row[c] = 100.0 * math.fsum(per[c]) / len(per[c]) if per[c] else math.nan
    for c in ("tau_b", "s_rho", "gamma", "m1"):
        row[f"skipped_{c}"] = n - len(per[c])
    return row


def spearman(xs, ys) -> float:
    k = len(xs)
    d2 = sum((a - b) ** 2 for a, b in zip(_fractional(list(ys)), _fractional(list(xs))))
    return 1.0 - 6.0 * d2 / (k * (k * k - 1))


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.


def check_metrics_csv(path, model: Model, features, ranks) -> tuple[list[str], dict]:
    rows = read_csv(path)
    if len(rows) != 1:
        return [f"{path}: expected one row, found {len(rows)}"], {}
    got = rows[0]
    scores, masks, _ = model.predict(features)
    want = dataset_metrics(ranks, scores, masks)
    problems = []
    for key, value in want.items():
        if key not in got:
            problems.append(f"{path}: column {key} missing")
        elif key in METRIC_COLUMNS:
            if not close(float(got[key]), value):
                problems.append(f"{path}: {key} is {got[key]}, recomputed {value!r}")
        elif int(got[key]) != value:
            problems.append(f"{path}: {key} is {got[key]}, recomputed {value}")
    return problems, {k: float(v) for k, v in got.items()}


def check_loss_log(path, stages) -> list[str]:
    """Every stage logs ``epochs`` finite rows, and its last-epoch loss
    lies below its first."""
    rows = read_csv(path)
    problems = []
    for stage, epochs in stages:
        losses = [float(r["loss"]) for r in rows if int(r["stage"]) == stage]
        if len(losses) != epochs or not all(math.isfinite(v) for v in losses):
            problems.append(f"{path}: stage {stage} logged {losses}, expected {epochs} finite epochs")
        elif not losses[-1] < losses[0]:
            problems.append(f"{path}: stage {stage} loss did not fall ({losses[0]} -> {losses[-1]})")
    return problems


def check_adjust_csv(path, model: Model, sequences) -> list[str]:
    """Recomputes every step's mean scores over the sequences, then checks
    the adjusting-significance pattern (acceptance criterion 07)."""
    rows = read_csv(path)
    columns = ("mean_score_low_digit", "mean_score_middle_digit", "mean_score_high_digit")
    means = np.asarray([[float(r[c]) for c in columns] for r in rows])
    steps = len(sequences[0].samples)
    problems = []
    if means.shape != (steps, 3) or [int(r["step"]) for r in rows] != list(range(1, steps + 1)):
        return [f"{path}: expected {steps} step rows"]
    digits = np.asarray([seq.digits for seq in sequences])
    for step in range(steps):
        scores, _, _ = model.predict(np.stack([seq.samples[step].pixels for seq in sequences]))
        want = np.take_along_axis(scores, digits, axis=1).mean(axis=0)
        for role in range(3):
            if not close(means[step, role], float(want[role])):
                problems.append(
                    f"{path}: step {step + 1} role {role} is {float(means[step, role])!r}, "
                    f"recomputed {float(want[role])!r}")
    xs = list(range(1, steps + 1))
    rho_low = spearman(xs, means[:, 0].tolist())
    rho_high = spearman(xs, means[:, 2].tolist())
    ranges = means.max(axis=0) - means.min(axis=0)
    mid_frac = ranges[1] / ((ranges[0] + ranges[2]) / 2)
    if not (rho_low >= 0.9 and rho_high <= -0.9 and mid_frac <= 0.25):
        problems.append(
            f"{path}: criterion 07 pattern fails: rho_low={rho_low:.3f} rho_high={rho_high:.3f} "
            f"middle range fraction={mid_frac:.3f}"
        )
    return problems


def check_calibration_csv(path, model: Model, samples, levels) -> list[str]:
    """Recomputes every level's mean, std and mean sigma, then checks the
    level means rise strictly (acceptance criterion 06)."""
    rows = read_csv(path)
    if [float(r["level"]) for r in rows] != list(levels):
        return [f"{path}: levels {[r['level'] for r in rows]} are not {list(levels)}"]
    pixels = np.stack([s.pixels for s in samples])
    scores, _, sigma = model.predict(pixels)
    collected = {lv: [] for lv in levels}
    sigmas = {lv: [] for lv in levels}
    for i, sample in enumerate(samples):
        for pf in sample.factors:
            collected[pf.scale].append(scores[i, pf.digit])
            if sigma is not None:
                sigmas[pf.scale].append(sigma[i, pf.digit])
    problems = []
    means = []
    for row, lv in zip(rows, levels):
        vals = np.asarray(collected[lv])
        want = {
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)),
            "mean_pred_sigma": float(np.mean(sigmas[lv])) if sigmas[lv] else math.nan,
        }
        for key, value in want.items():
            if not close(float(row[key]), value):
                problems.append(f"{path}: level {lv} {key} is {row[key]}, recomputed {value!r}")
        means.append(float(row["mean"]))
    if not all(a < b for a, b in zip(means, means[1:])):
        problems.append(f"{path}: criterion 06 fails: level means {means} do not rise strictly")
    return problems


def check_significance_csv(path, model: Model, features, class_index, n_checkpoints) -> list[str]:
    rows = read_csv(path)
    scores = model.predict(features)[0][:, class_index]
    ordered = np.sort(scores)
    n = len(scores)
    want_positions = [math.floor(i * (n - 1) / (n_checkpoints - 1)) for i in range(n_checkpoints)]
    problems = []
    if [int(r["sorted_position"]) for r in rows] != want_positions:
        return [f"{path}: positions {[r['sorted_position'] for r in rows]} are not {want_positions}"]
    for r in rows:
        pos, idx, score = int(r["sorted_position"]), int(r["dataset_index"]), float(r["score"])
        if not (close(score, float(scores[idx])) and close(score, float(ordered[pos]))):
            problems.append(
                f"{path}: position {pos} names instance {idx} with score {score!r}; "
                f"recomputed {float(scores[idx])!r}, sorted value {float(ordered[pos])!r}"
            )
    return problems


def check_canvas_jsonl(path, n, k, d, digit_range) -> list[str]:
    """Shape, pixel range and dense ranks of a generated canvas dataset."""
    header, features, ranks = read_jsonl(path)
    problems = []
    if (header.get("k"), header.get("d")) != (k, d) or features.shape != (n, d) or ranks.shape != (n, k):
        return [f"{path}: header {header.get('k')}x{header.get('d')}, data {features.shape}, expected {n}x{d}"]
    if features.min() < 0.0 or features.max() > 1.0:
        problems.append(f"{path}: pixel values outside [0, 1]")
    lo, hi = digit_range
    for i, row in enumerate(ranks):
        m = int(np.count_nonzero(row))
        if not lo <= m <= hi or sorted(row[row > 0].tolist()) != list(range(1, m + 1)):
            problems.append(f"{path}: instance {i} has ranks {row.tolist()}")
            break
    return problems


def subnormal_count(model: Model) -> int:
    tiny = np.finfo(float).tiny
    return sum(
        int(np.count_nonzero((np.abs(a) > 0) & (np.abs(a) < tiny))) for a in model.weights + model.biases
    )
