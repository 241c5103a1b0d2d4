"""Seeded workload inputs and the independent reference answers they are checked against.

Everything here is a function of the workload sizes and the seed alone, and it
writes the program's documented file formats directly, without calling the
program, so a change to promptshap cannot change what the benchmark feeds it
or what it expects back.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

LETTERS = "ABCDE"

# Sizes are fixed by workload name; ``--smoke`` swaps in the small set, which
# only the self-test uses.
SIZES = {
    "exact-vote": {"prompts": 12, "instances": 400, "labels": 4},
    "mc-cached": {"prompts": 12, "instances": 100, "labels": 4, "permutations": 20_000},
    "live-stub": {"helpful": 5, "misleading": 3, "questions": 12},
    "learn-gp": {"prompts": 200, "new_prompts": 100, "dim": 768, "latent": 4},
}
SMOKE_SIZES = {
    "exact-vote": {"prompts": 6, "instances": 40, "labels": 4},
    "mc-cached": {"prompts": 6, "instances": 30, "labels": 4, "permutations": 300},
    "live-stub": {"helpful": 3, "misleading": 2, "questions": 6},
    "learn-gp": {"prompts": 40, "new_prompts": 12, "dim": 16, "latent": 3},
}

# Holdout and new-prompt Pearson correlations on the learnable field sit above
# 0.99 for every seed tried; anything under this floor means the model broke.
PEARSON_FLOOR = 0.9


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def write_jsonl(path, rows) -> None:
    _write_lines(path, (json.dumps(row, sort_keys=True) for row in rows))


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# prediction-matrix workloads


def matrix_inputs(seed: int, sizes: dict, probabilistic: bool) -> dict:
    """Seeded prediction matrix with per-prompt accuracy around 60%.

    Returns the arrays the reference utilities need; ``write_matrix_files``
    turns them into the CSV files the program reads.
    """
    rng = np.random.default_rng(seed)
    n, v, k = sizes["prompts"], sizes["instances"], sizes["labels"]
    golds = rng.integers(0, k, size=v)
    accuracy = rng.uniform(0.45, 0.75, size=n)
    right = rng.random((n, v)) < accuracy[:, None]
    data = {
        "prompt_ids": [f"p{i:02d}" for i in range(n)],
        "instance_ids": [f"q{j:04d}" for j in range(v)],
        "golds": [int(g) for g in golds],
        "labels": k,
    }
    if probabilistic:
        logits = rng.normal(size=(n, v, k))
        rows, cols = np.nonzero(right)
        logits[rows, cols, golds[cols]] += 2.0
        prob = np.exp(logits)
        prob /= prob.sum(axis=2, keepdims=True)
        data["prob"] = prob.tolist()
    else:
        wrong = (golds[None, :] + rng.integers(1, k, size=(n, v))) % k
        data["hard"] = np.where(right, golds[None, :], wrong).tolist()
    return data


def write_matrix_files(data: dict, matrix_path, validation_path) -> None:
    header = ",".join(["prompt_id", *data["instance_ids"]])
    if "hard" in data:
        cells = [[str(x) for x in row] for row in data["hard"]]
    else:
        cells = [['"' + json.dumps(vec) + '"' for vec in row] for row in data["prob"]]
    _write_lines(matrix_path, [header] + [
        ",".join([pid, *row]) for pid, row in zip(data["prompt_ids"], cells)
    ])
    _write_lines(validation_path, [f"#num_labels={data['labels']}", "instance_id,gold_label"] + [
        f"{iid},{gold}" for iid, gold in zip(data["instance_ids"], data["golds"])
    ])


def reference_matrix_utility(data: dict, mask: int) -> float:
    """Plurality vote (first-place ties abstain) or probability-average argmax
    (lowest label on ties), written per instance in plain Python."""
    members = [i for i in range(len(data["prompt_ids"])) if mask >> i & 1]
    if not members:
        return 0.0
    labels = range(data["labels"])
    correct = 0
    for j, gold in enumerate(data["golds"]):
        if "hard" in data:
            counts = [0] * data["labels"]
            for i in members:
                counts[data["hard"][i][j]] += 1
            top = max(counts)
            winner = counts.index(top) if counts.count(top) == 1 else None
        else:
            sums = [math.fsum(data["prob"][i][j][label] for i in members) for label in labels]
            winner = sums.index(max(sums))
        correct += winner == gold
    return correct / len(data["golds"])


# ---------------------------------------------------------------------------
# live augmentation workload


def live_inputs(seed: int, sizes: dict) -> dict:
    """Manifest of [HELPFUL]/[MISLEADING] prompts in seeded order, and questions
    of stepped difficulty [k=0..Q-1] with seeded gold letters."""
    rng = np.random.default_rng(seed)
    kinds = ["HELPFUL"] * sizes["helpful"] + ["MISLEADING"] * sizes["misleading"]
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    # distinct texts, so every coalition sends distinct requests
    words = rng.choice(np.arange(1000, 10000), size=len(kinds), replace=False)
    manifest = [
        {"id": f"x{i}", "text": f"Worked example {int(w)}, step by step. [{kind}]",
         "rationale": kind == "HELPFUL"}
        for i, (kind, w) in enumerate(zip(kinds, words))
    ]
    golds = [LETTERS[int(g)] for g in rng.integers(0, 4, size=sizes["questions"])]
    questions = [
        {"id": f"v{k}", "question": f"Question [k={k}] pick [gold={gold}]", "gold": gold}
        for k, gold in enumerate(golds)
    ]
    return {"kinds": kinds, "manifest": manifest, "questions": questions}


def reference_live_utility(data: dict, mask: int) -> float:
    """The stub's reply rule in closed form: a question of difficulty k is
    answered correctly iff helpful - misleading > (k mod 3) - 1."""
    h = sum(1 for i, kind in enumerate(data["kinds"]) if mask >> i & 1 and kind == "HELPFUL")
    m = sum(1 for i, kind in enumerate(data["kinds"]) if mask >> i & 1 and kind == "MISLEADING")
    ks = range(len(data["questions"]))
    return sum(1 for k in ks if h - m > k % 3 - 1) / len(data["questions"])


def reference_shapley(n: int, utility) -> list[float]:
    """Exact Shapley values in rational arithmetic, from the textbook sum."""
    table = [Fraction(utility(mask)) for mask in range(1 << n)]
    values = []
    for i in range(n):
        bit = 1 << i
        total = Fraction(0)
        for mask in range(1 << n):
            if not mask & bit:
                weight = Fraction(1, n * math.comb(n - 1, mask.bit_count()))
                total += weight * (table[mask | bit] - table[mask])
        values.append(float(total))
    return values


def expected_chat_requests(distinct: int, fail_every: int) -> int:
    """Requests sent when every ``fail_every``-th one is refused once and retried."""
    total = distinct
    while total != distinct + total // fail_every:
        total = distinct + total // fail_every
    return total


# ---------------------------------------------------------------------------
# value-learning workload


def learn_inputs(seed: int, sizes: dict) -> dict:
    """Embeddings on a low-rank subspace plus noise, with values from an affine
    field over the latent coordinates, so the value function is learnable."""
    rng = np.random.default_rng(seed)
    n, m, d, r = sizes["prompts"], sizes["new_prompts"], sizes["dim"], sizes["latent"]
    basis = rng.normal(size=(r, d))
    latent = rng.normal(size=(n + m, r))
    vectors = latent @ basis + 0.05 * rng.normal(size=(n + m, d))
    weights = rng.normal(size=r)
    values = 0.05 * (latent @ weights) + 0.01 * rng.normal()
    ids = [f"e{i:04d}" for i in range(n)] + [f"n{i:04d}" for i in range(m)]
    return {"ids": ids, "vectors": vectors.tolist(), "values": values.tolist(), "n": n}


def write_learn_files(data: dict, paths: dict) -> None:
    n = data["n"]
    rows = [{"id": pid, "vector": vec} for pid, vec in zip(data["ids"], data["vectors"])]
    write_jsonl(paths["embeddings"], rows[:n])
    write_jsonl(paths["new_embeddings"], rows[n:])
    write_jsonl(paths["new_manifest"], [
        {"id": pid, "text": f"New prompt {pid}."} for pid in data["ids"][n:]
    ])
    _write_json(paths["values"], {
        "method": "exact",
        "players": [
            {"id": pid, "value": v, "stderr": 0.0}
            for pid, v in zip(data["ids"][:n], data["values"][:n])
        ],
    })


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64) - np.mean(a)
    b = np.asarray(b, dtype=np.float64) - np.mean(b)
    return float(a @ b / math.sqrt(float(a @ a) * float(b @ b)))
