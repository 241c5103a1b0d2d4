"""Shared fixtures: deterministic games, the n! permutation reference for exact
Shapley values, scalar references for SplitMix64 and the Monte Carlo engine,
the adversarial ensemble fixture, writers for the JSON Lines, embedding,
validation and prediction matrix input files, model documents with encoded
arrays, and an in-process stub HTTP server so every live-API code path runs offline."""

from __future__ import annotations

import base64
import csv
import hashlib
import json
import math
import re
import sys
import threading
from fractions import Fraction
from itertools import permutations
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from promptshap import game as game_module
from promptshap.coalition import Coalition, hex_keys
from promptshap.config import ApiConfig
from promptshap.ensemble import Mode, PredictionMatrix, ValidationSet
from promptshap.errors import CapacityError, PromptShapError, UtilityOracleError
from promptshap.game import GameSpec, Method, ShapleyResult
from promptshap.rng import SplitMix64

STUB_KEY = "test-key-123"
LETTERS = "ABCDE"


# ---------------------------------------------------------------------------
# deterministic games


def utility_of(batch, mask: int, n: int) -> float:
    """The utility a mask-level batch oracle gives one coalition."""
    [value] = batch([mask], n)
    return value


def hex_key(mask: int, n: int) -> str:
    """The cache key of one mask over ``n`` players."""
    [key] = hex_keys([mask], n)
    return key


def glove_utility(coalition) -> float:
    members = set(coalition.indices())
    return 1.0 if 0 in members and (1 in members or 2 in members) else 0.0


@pytest.fixture
def glove_game() -> GameSpec:
    return GameSpec(n=3, utility=glove_utility)


def random_table_game(n: int, seed: int) -> GameSpec:
    """Utility read from a seeded table over all 2^n masks, values in [0, 1)."""
    rng = SplitMix64(seed)
    table = [rng.uniform() for _ in range(1 << n)]

    def utility(coalition) -> float:
        return table[coalition.mask]

    return GameSpec(n=n, utility=utility, u_empty=table[0])


def shapley_subset_rational(n: int, utility) -> list[Fraction]:
    """The subset formula in exact arithmetic: each player's marginals over the
    coalitions without it, weighted 1/(n*C(n-1,|S|)) as Fractions."""
    table = [Fraction(utility(Coalition(mask, n))) for mask in range(1 << n)]
    values = [Fraction(0)] * n
    for i in range(n):
        for mask in range(1 << n):
            if not mask >> i & 1:
                weight = Fraction(1, n * math.comb(n - 1, mask.bit_count()))
                values[i] += weight * (table[mask | 1 << i] - table[mask])
    return values


def shapley_permutation_rational(n: int, utility, cap: int = 8) -> list[Fraction]:
    """Brute-force average of per-permutation marginals over all n! orderings:
    an independent reference for the library's subset-weighted enumeration."""
    if n > cap:
        raise CapacityError(f"n={n} exceeds the n! brute-force cap {cap}")
    totals = [Fraction(0)] * n
    for perm in permutations(range(n)):
        mask = 0
        prev = Fraction(utility(Coalition(0, n)))
        for p in perm:
            mask |= 1 << p
            cur = Fraction(utility(Coalition(mask, n)))
            totals[p] += cur - prev
            prev = cur
    count = math.factorial(n)
    return [t / count for t in totals]


class ReferenceSplitMix64:
    """SplitMix64 one output at a time in Python integers: the published
    algorithm, against which the block-mixed generator is checked."""

    MASK64 = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        while True:
            r = self.next_u64() >> (64 - k)
            if r < n:
                return r

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randbelow(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def reference_marginals(game: GameSpec, permutations: int, truncation_tol: float = 0.0,
                        seed: int = 0) -> tuple[np.ndarray, float, float]:
    """Permutation sampling with checked coalitions and the scalar generator:
    the (T, n) numpy table of marginals, U(full) and U(empty)."""

    def evaluate(coalition):
        try:
            return utility_of(game.batch, coalition.mask, coalition.n)
        except PromptShapError as exc:
            exc.details.setdefault("coalition", hex_key(coalition.mask, coalition.n))
            raise
        except Exception as exc:
            raise UtilityOracleError(str(exc), coalition=hex_key(coalition.mask, coalition.n)) from exc

    n = game.n
    u_full = evaluate(Coalition((1 << n) - 1, n))
    u_empty = evaluate(Coalition(0, n))
    truncate = truncation_tol > 0
    rng = ReferenceSplitMix64(seed)
    perm = list(range(n))
    marginals = np.zeros((permutations, n), dtype=np.float64)
    for t in range(permutations):
        rng.shuffle(perm)
        mask = 0
        prev = u_empty
        done = truncate and abs(prev - u_full) <= truncation_tol
        for p in perm:
            if done:
                break
            mask |= 1 << p
            cur = evaluate(Coalition(mask, n))
            marginals[t, p] = cur - prev
            prev = cur
            if truncate and abs(cur - u_full) <= truncation_tol:
                done = True
    return marginals, u_full, u_empty


def position_major(asked: list, n: int) -> list:
    """The distinct coalitions of ``asked``, the evaluations of a truncated
    ``reference_marginals`` run (U(full), U(empty), then each scan's prefixes,
    row by row), in the order the engine asks for them: U(full), U(empty),
    then per chunk of ``_CHUNK`` scans, position by position, rows ascending.
    Each scan's prefixes start at its first player, a mask of one bit."""
    rows: list[list[int]] = []
    for mask in asked[2:]:
        if mask.bit_count() == 1:
            rows.append([])
        rows[-1].append(mask)
    chunk = game_module._CHUNK
    ordered = [row[k] for start in range(0, len(rows), chunk) for k in range(n)
               for row in rows[start:start + chunk] if k < len(row)]
    return list(dict.fromkeys([(1 << n) - 1, 0, *ordered]))


def reference_stderr(column, mean: float, square=lambda x: x ** 2) -> float:
    """The standard error of ``mean``, the mean of ``column``, from squared
    deviations made by ``square``: a float's ``** 2`` by default. Where a
    nonzero deviation squares below the least normal float, the same formula
    on the column and the mean scaled by 2**-e, e the exponent of the largest
    |x|, scaled back by 2**e."""
    column = [float(x) for x in column]
    if len(column) == 1:
        return 0.0
    e = 0
    if any(x != mean and square(x - mean) < sys.float_info.min for x in column):
        e = math.frexp(max(map(abs, column)))[1]
    scaled = math.ldexp(mean, -e)
    var = math.fsum(square(math.ldexp(x, -e) - scaled) for x in column) / (len(column) - 1)
    return math.ldexp(math.sqrt(var / len(column)), e)


def reference_shapley_montecarlo(game: GameSpec, permutations: int,
                                 truncation_tol: float = 0.0, seed: int = 0) -> ShapleyResult:
    """``reference_marginals`` and each player's mean and standard error: the
    engine's output, bit for bit."""
    marginals, u_full, u_empty = reference_marginals(game, permutations, truncation_tol, seed)
    values = [math.fsum(column) / permutations for column in marginals.T]
    stderr = [reference_stderr(column, mean) for column, mean in zip(marginals.T, values)]
    return ShapleyResult(values=tuple(values), stderr=tuple(stderr), method=Method.MONTE_CARLO,
                         samples=permutations, seed=seed, u_full=u_full, u_empty=u_empty)


def make_adversarial_fixture():
    """Six prompts over four instances: c0-c2 always right, x0-x2 always wrong.

    Majority vote with the abstain tie rule gives utility 1 whenever correct
    prompts outnumber adversarial ones and 0 otherwise, including the full
    3-vs-3 set.
    """
    golds = (0, 1, 0, 1)
    instance_ids = tuple(f"q{i}" for i in range(len(golds)))
    validation = ValidationSet(instances=tuple(zip(instance_ids, golds)), num_labels=2)
    rows = [list(golds)] * 3 + [[1 - g for g in golds]] * 3
    matrix = PredictionMatrix(
        prompt_ids=("c0", "c1", "c2", "x0", "x1", "x2"),
        instance_ids=instance_ids,
        mode=Mode.HARD_LABEL,
        num_labels=2,
        hard=np.array(rows, dtype=np.int64),
    )
    return matrix, validation


@pytest.fixture
def adversarial_fixture():
    return make_adversarial_fixture()


# ---------------------------------------------------------------------------
# input file writers


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")


def save_embeddings(embeddings, path) -> None:
    """An embeddings file ``promptshap.learning.load_embeddings`` reads back."""
    write_jsonl(path, [
        {"id": pid, "vector": [float(x) for x in vec]}
        for pid, vec in zip(embeddings.prompt_ids, embeddings.vectors)
    ])


def write_validation(validation: ValidationSet, path) -> None:
    """A validation file ``promptshap.ensemble.load_validation`` reads back."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"#num_labels={validation.num_labels}\n")
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "gold_label"])
        for iid, gold in validation.instances:
            writer.writerow([iid, gold])


def write_matrix(matrix: PredictionMatrix, path) -> None:
    """A matrix file ``promptshap.ensemble.load_matrix`` reads back."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prompt_id", *matrix.instance_ids])
        for r, pid in enumerate(matrix.prompt_ids):
            if matrix.mode is Mode.HARD_LABEL:
                writer.writerow([pid, *(int(x) for x in matrix.hard[r])])
            else:
                writer.writerow(
                    [pid, *(json.dumps([float(x) for x in vec]) for vec in matrix.prob[r])]
                )


def encoded_array(values) -> dict:
    """An array parameter of a model file: its shape and the base64
    (RFC 4648) of its little-endian float64 bytes."""
    array = np.asarray(values, "<f8")
    return {"shape": list(array.shape), "f8le": base64.b64encode(array.tobytes()).decode("ascii")}


def model_doc(kind: str, d, parameters: dict) -> dict:
    """A model document for ``promptshap.learning.load_model``: each list
    among ``parameters`` is stored as an encoded array, any other value as
    it is."""
    return {
        "schema_version": 2, "kind": kind, "d": d, "metadata": {},
        "parameters": {name: encoded_array(value) if isinstance(value, list) else value
                       for name, value in parameters.items()},
    }


# ---------------------------------------------------------------------------
# stub OpenAI-compatible server
#
# Chat answers are a deterministic function of the prompt content: with
# h = count of "[HELPFUL]" markers, m = count of "[MISLEADING]" markers, and
# k parsed from the question's "[k=N]" tag, the reply is correct iff
# h - m > (k mod 3) - 1, else the next letter after gold (cyclic A-E).
# Embeddings are sha256-derived, so identical texts embed identically.


class StubState:
    def __init__(self):
        self.chat_requests = 0
        self.embed_requests = 0
        self.fail_next = 0          # serve this many chat failures before succeeding
        self.fail_next_embed = 0    # the same for embeddings
        self.fail_status = 500      # status of an injected failure
        self.retry_after = None     # Retry-After value sent with every non-200 reply, if set
        self.malformed_chat = False
        self.short_embedding_row = False
        self.embedding_dim = 8


class _StubHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _send(self, code: int, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(code)
        if code != 200 and self.server.state.retry_after is not None:
            self.send_header("Retry-After", self.server.state.retry_after)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        state = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError:
            self._send(400, {"error": {"message": "bad json"}})
            return
        if self.headers.get("Authorization", "") != f"Bearer {STUB_KEY}":
            self._send(401, {"error": {"message": "invalid api key"}})
            return
        if self.path == "/v1/chat/completions":
            state.chat_requests += 1
            if state.fail_next > 0:
                state.fail_next -= 1
                self._send(state.fail_status, {"error": {"message": "transient failure"}})
                return
            if state.malformed_chat:
                self._send(200, {"unexpected": "shape"})
                return
            content = body["messages"][-1]["content"]
            helpful = content.count("[HELPFUL]")
            misleading = content.count("[MISLEADING]")
            k_tags = re.findall(r"\[k=(\d+)\]", content)
            k = int(k_tags[-1]) if k_tags else 0
            gold_tags = re.findall(r"\[gold=([A-E])\]", content)
            gold = gold_tags[-1] if gold_tags else "A"
            if helpful - misleading > (k % 3) - 1:
                answer = gold
            else:
                answer = LETTERS[(LETTERS.index(gold) + 1) % len(LETTERS)]
            self._send(200, {
                "choices": [
                    {"message": {"role": "assistant", "content": f"The answer is ({answer})."}}
                ]
            })
        elif self.path == "/v1/embeddings":
            state.embed_requests += 1
            if state.fail_next_embed > 0:
                state.fail_next_embed -= 1
                self._send(state.fail_status, {"error": {"message": "transient failure"}})
                return
            data = []
            for idx, text in enumerate(body["input"]):
                digest = hashlib.sha256(text.encode("utf-8")).digest()
                vec = [round(b / 255.0 - 0.5, 6) for b in digest[: state.embedding_dim]]
                if state.short_embedding_row and idx == 0:
                    vec = vec[:-1]
                data.append({"object": "embedding", "index": idx, "embedding": vec})
            self._send(200, {"object": "list", "data": data})
        else:
            self._send(404, {"error": {"message": "no such route"}})


@pytest.fixture(scope="session")
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.state = StubState()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def stub(stub_server, monkeypatch):
    """Fresh stub state and a valid credential in the environment."""
    stub_server.state = StubState()
    monkeypatch.setenv("PROMPTSHAP_API_KEY", STUB_KEY)
    return stub_server


@pytest.fixture
def stub_api(stub) -> ApiConfig:
    host, port = stub.server_address
    return ApiConfig(
        base_url=f"http://{host}:{port}",
        model="stub-chat",
        embeddings_model="stub-embed",
        backoff_base=0.01,
        timeout=10.0,
    )


def stub_manifest_rows():
    """Five prompts for the augmentation pipeline: three helpful, two misleading."""
    return [
        {"id": "h0", "text": "Worked example one. [HELPFUL]", "rationale": True},
        {"id": "h1", "text": "Worked example two. [HELPFUL]", "rationale": True},
        {"id": "h2", "text": "Worked example three. [HELPFUL]", "rationale": False},
        {"id": "m0", "text": "Confusing example one. [MISLEADING]", "rationale": False},
        {"id": "m1", "text": "Confusing example two. [MISLEADING]", "rationale": False},
    ]


def stub_question_rows():
    """Six questions of stepped difficulty [k=0..5]; gold letters cycle A-D."""
    return [
        {"id": f"v{k}", "question": f"Question [k={k}] pick [gold={LETTERS[k % 4]}]",
         "gold": LETTERS[k % 4]}
        for k in range(6)
    ]
