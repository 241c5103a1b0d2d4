"""HTTP client for live coalition utilities and prompt embeddings.

Talks to an OpenAI-compatible endpoint (``POST /v1/chat/completions`` and
``POST /v1/embeddings``). The credential is read from the environment
variable ``PROMPTSHAP_API_KEY`` only, never from configuration files, and
its absence is reported before any network traffic.

Coalitions are sets, but few-shot order changes model output, so exemplars
are always serialized in ascending manifest-index order. That makes the
utility a well-defined set function and lets the response cache key on a
digest of the exact payload fields.

Both endpoints go through one POST path, ``_post_json``. It sends the JSON
body with the bearer credential and classifies the reply: 401/403 raise
``CredentialError`` at once; 429, 500, 502, 503, 504 and transport failures
(refused or dropped connections, timeouts) are retried up to
``api.attempts`` times, waiting ``backoff_base * 2**k`` seconds before retry
k+1, or longer when a 429 carries a numeric ``Retry-After``; any other
status raises ``ProtocolError``; running out of attempts raises
``TransportError`` with the last status and error. Every wait is capped at
``config.MAX_WAIT_S`` (an hour): a longer backoff or ``Retry-After`` waits
that long and then retries. Requests go through one
``urllib.request`` opener built on first use, so proxy and ``no_proxy``
settings are read from the environment once per process.

``embed`` only talks HTTP; precomputed embedding files are read with
``learning.load_embeddings``.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import math
import os
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cache import ResponseCache
from .coalition import Coalition
from .config import MAX_WAIT_S, ApiConfig, Task
from .errors import (
    ConsistencyError,
    CredentialError,
    PreconditionError,
    ProtocolError,
    TransportError,
)
from .jsonio import read_jsonl, reading

API_KEY_ENV = "PROMPTSHAP_API_KEY"

_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class PromptEntry:
    prompt_id: str
    text: str


@dataclass(frozen=True)
class PromptManifest:
    prompts: tuple[PromptEntry, ...]

    def __post_init__(self):
        ids = [p.prompt_id for p in self.prompts]
        if len(set(ids)) != len(ids):
            raise ConsistencyError("manifest prompt ids must be unique")
        for p in self.prompts:
            if not p.text:
                raise ConsistencyError(f"manifest prompt {p.prompt_id!r} has empty text")

    @property
    def n(self) -> int:
        return len(self.prompts)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(p.prompt_id for p in self.prompts)

    @property
    def texts(self) -> tuple[str, ...]:
        return tuple(p.text for p in self.prompts)


def load_manifest(path: str) -> PromptManifest:
    entries = read_jsonl(path, lambda row: PromptEntry(
        prompt_id=str(row["id"]), text=str(row["text"])
    ))
    with reading(path):
        if not entries:
            raise ValueError("manifest has no prompt rows")
        return PromptManifest(prompts=tuple(entries))


@dataclass(frozen=True)
class Question:
    question_id: str
    question: str
    gold: str


def load_questions(path: str) -> tuple[Question, ...]:
    out = tuple(read_jsonl(path, lambda r: Question(
        question_id=str(r["id"]), question=str(r["question"]), gold=str(r["gold"])
    )))
    with reading(path):
        if not out:
            raise ValueError("question set has no rows")
        if len({q.question_id for q in out}) != len(out):
            raise ValueError("question ids must be unique")
    return out


@dataclass(frozen=True)
class CompletionRequest:
    question: str
    model: str
    exemplars: tuple[str, ...] = ()
    temperature: float = 0.0
    max_tokens: int = 256


def build_completion_request(manifest: PromptManifest, coalition: Coalition,
                             question: str, api: ApiConfig) -> CompletionRequest:
    if coalition.n != manifest.n:
        raise ConsistencyError(
            f"coalition is over {coalition.n} players but the manifest has {manifest.n}"
        )
    # ascending manifest index: the canonical exemplar order
    exemplars = tuple(manifest.prompts[i].text for i in coalition.indices())
    return CompletionRequest(
        question=question,
        model=api.model,
        exemplars=exemplars,
        temperature=api.temperature,
        max_tokens=api.max_tokens,
    )


def request_digest(req: CompletionRequest) -> str:
    payload = json.dumps(
        {
            "exemplars": list(req.exemplars),
            "max_tokens": req.max_tokens,
            "model": req.model,
            "question": req.question,
            "temperature": req.temperature,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _get_api_key() -> str:
    key = os.environ.get(API_KEY_ENV, "")
    if not key:
        raise CredentialError(
            f"set the {API_KEY_ENV} environment variable to use the live API",
            env_var=API_KEY_ENV,
        )
    return key


@functools.cache
def _opener() -> urllib.request.OpenerDirector:
    return urllib.request.build_opener()


def _send(request: urllib.request.Request, timeout: float):
    """One POST: (status, headers, body), an HTTP error status returned, not raised."""
    try:
        resp = _opener().open(request, timeout=timeout)
    except urllib.error.HTTPError as exc:  # an OSError too, so caught before the caller's handler
        resp = exc
    with resp:
        return resp.code, resp.headers, resp.read()


def _retry_after(headers) -> float:
    """Seconds a ``Retry-After`` header asks for; 0 unless it is a finite number."""
    try:
        seconds = float(headers.get("Retry-After", ""))
    except ValueError:
        return 0.0
    return seconds if math.isfinite(seconds) else 0.0


def _post_json(path: str, body: dict, api: ApiConfig):
    """POST ``body`` to ``api.base_url + path`` with retries; the decoded 200 reply."""
    key = _get_api_key()
    if not api.base_url:
        raise PreconditionError("api.base_url is not configured")
    headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
    try:  # a non-finite number in the body, or a base_url that is not a URL
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        request = urllib.request.Request(api.base_url.rstrip("/") + path, data, headers)
    except ValueError as exc:
        raise PreconditionError(f"cannot build the request to {path}: {exc}") from exc
    last_status = None
    last_error = None
    wait = 0.0
    backoff = api.backoff_base   # doubled after every retry; a float saturates at inf
    for attempt in range(api.attempts):
        if attempt:
            time.sleep(min(max(backoff, wait), MAX_WAIT_S))
            backoff *= 2
        try:
            status, reply_headers, payload = _send(request, api.timeout)
        except (OSError, http.client.HTTPException) as exc:
            last_status, last_error, wait = None, str(exc), 0.0
            continue
        if status in (401, 403):
            raise CredentialError(
                f"endpoint rejected the credential (HTTP {status})", status=status
            )
        if status in _RETRYABLE_STATUS:
            last_status = status
            last_error = payload[:200].decode("utf-8", "replace")
            wait = _retry_after(reply_headers) if status == 429 else 0.0
            continue
        if status != 200:
            raise ProtocolError(f"unexpected HTTP {status} from {path}", status=status)
        try:
            return json.loads(payload)
        except ValueError as exc:
            raise ProtocolError(f"{path} replied with a non-JSON body: {exc}") from exc
    raise TransportError(
        f"POST {path} failed after {api.attempts} attempts",
        last_status=last_status,
        last_error=last_error,
    )


def complete(req: CompletionRequest, cache: ResponseCache, api: ApiConfig) -> str:
    digest = request_digest(req)
    hit = cache.get(digest)
    if hit is not None:
        return hit
    content = "\n\n".join([*req.exemplars, req.question])
    body = {
        "model": req.model,
        "messages": [{"role": "user", "content": content}],
        "temperature": req.temperature,
        "max_tokens": req.max_tokens,
    }
    doc = _post_json("/v1/chat/completions", body, api)
    try:
        text = doc["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed chat completion body: {exc}") from exc
    if not isinstance(text, str):
        raise ProtocolError("chat completion content is not a string")
    cache.put(digest, text)
    return text


_MC_PATTERN = re.compile(r"\b([A-Ea-e])\b")
_DATE_PATTERN = re.compile(r"\b(\d{2}/\d{2}/\d{4})\b")
_NUMERIC_PATTERN = re.compile(r"-?\d+(?:\.\d+)?")
_THOUSANDS = re.compile(r"(?<=\d),(?=\d)")


def extract_answer(text: str, task: Task) -> Optional[str]:
    """Pull the final answer out of free-form model text; None if unparseable."""
    if task is Task.MULTIPLE_CHOICE:
        matches = _MC_PATTERN.findall(text)
        return matches[-1].upper() if matches else None
    if task is Task.DATE:
        matches = _DATE_PATTERN.findall(text)
        return matches[-1] if matches else None
    matches = _NUMERIC_PATTERN.findall(_THOUSANDS.sub("", text))
    return matches[-1] if matches else None


def augmentation_utility(manifest: PromptManifest, questions: Sequence[Question],
                         task: Task, cache: ResponseCache, api: ApiConfig):
    """Coalition -> mean answer accuracy over the question set.

    The empty coalition runs zero-shot, so this oracle defines its own U(empty).
    A transport error aborts the whole coalition evaluation; partial accuracies
    never escape.
    """
    if not questions:
        raise PreconditionError("augmentation utility needs at least one question")

    def oracle(coalition: Coalition) -> float:
        correct = 0
        for q in questions:
            req = build_completion_request(manifest, coalition, q.question, api)
            text = complete(req, cache, api)
            answer = extract_answer(text, task)
            if answer is not None and answer == q.gold:
                correct += 1
        return correct / len(questions)

    return oracle


def embed(texts: Sequence[str], api: ApiConfig) -> np.ndarray:
    """One vector per input text, order preserved; each distinct text is
    embedded once over HTTP and duplicates share the result."""
    texts = list(texts)
    if not texts:
        return np.zeros((0, 0), dtype=np.float64)
    unique = list(dict.fromkeys(texts))
    doc = _post_json("/v1/embeddings", {"model": api.embeddings_model, "input": unique}, api)
    try:
        rows = [None] * len(unique)
        for item in doc["data"]:
            index = item["index"]
            if type(index) is not int or not 0 <= index < len(unique):
                raise ValueError(f"index {index!r} is not an integer in 0..{len(unique) - 1}")
            rows[index] = [float(v) for v in item["embedding"]]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed embeddings body: {exc}") from exc
    if any(r is None for r in rows):
        raise ProtocolError("embeddings response is missing rows")
    dims = {len(r) for r in rows}
    if len(dims) != 1:
        raise ProtocolError(f"inconsistent embedding dimensions: {sorted(dims)}")
    by_text = dict(zip(unique, rows))
    return np.array([by_text[t] for t in texts], dtype=np.float64)
