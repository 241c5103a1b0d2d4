"""Offline OpenAI-compatible endpoint for the live-stub workload.

Run as its own process (``python3 perfbench/stub.py FAIL_EVERY``) so it never
competes with the client for the client's interpreter lock. It serves one
connection at a time on 127.0.0.1, prints its port on the first line of
stdout, and exits when its stdin closes.

Chat replies follow a deterministic rule: with h = count of "[HELPFUL]"
markers, m = count of "[MISLEADING]" markers and k from the question's
"[k=N]" tag, the reply names the gold letter iff h - m > (k mod 3) - 1, and
the next letter (cyclic A-E) otherwise. Every FAIL_EVERY-th chat request is
answered with HTTP 500 once. ``POST /_reset`` zeroes the counters and
``GET /_stats`` reports them with the handler's own service time.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

API_KEY = "perfbench-key"
LETTERS = "ABCDE"
_K_TAG = re.compile(r"\[k=(\d+)\]")
_GOLD_TAG = re.compile(r"\[gold=([A-E])\]")


class Counters:
    def __init__(self):
        self.chat_requests = 0
        self.injected_failures = 0
        self.service_s = 0.0


def reply_letter(content: str) -> str:
    helpful = content.count("[HELPFUL]")
    misleading = content.count("[MISLEADING]")
    k_tags = _K_TAG.findall(content)
    k = int(k_tags[-1]) if k_tags else 0
    gold_tags = _GOLD_TAG.findall(content)
    gold = gold_tags[-1] if gold_tags else "A"
    if helpful - misleading > (k % 3) - 1:
        return gold
    return LETTERS[(LETTERS.index(gold) + 1) % len(LETTERS)]


class Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _send(self, code: int, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        counters = self.server.counters
        if self.path == "/_stats":
            self._send(200, vars(counters))
        else:
            self._send(404, {"error": {"message": "no such route"}})

    def do_POST(self):
        start = time.perf_counter()
        counters = self.server.counters
        try:
            self._post(counters)
        finally:
            counters.service_s += time.perf_counter() - start

    def _post(self, counters: Counters) -> None:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        if self.path == "/_reset":
            self.server.counters = Counters()
            self._send(200, {})
            return
        if self.headers.get("Authorization", "") != f"Bearer {API_KEY}":
            self._send(401, {"error": {"message": "invalid api key"}})
            return
        if self.path != "/v1/chat/completions":
            self._send(404, {"error": {"message": "no such route"}})
            return
        counters.chat_requests += 1
        if counters.chat_requests % self.server.fail_every == 0:
            counters.injected_failures += 1
            self._send(500, {"error": {"message": "injected transient failure"}})
            return
        body = json.loads(raw)
        answer = reply_letter(body["messages"][-1]["content"])
        self._send(200, {
            "choices": [
                {"message": {"role": "assistant", "content": f"The answer is ({answer})."}}
            ]
        })


def main(argv) -> int:
    server = HTTPServer(("127.0.0.1", 0), Handler)
    server.counters = Counters()
    server.fail_every = int(argv[1])
    # the parent closing our stdin (or dying) is the signal to stop
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
