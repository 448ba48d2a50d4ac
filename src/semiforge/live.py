"""The live completion client: the one module that talks to the network.

``LiveClient`` POSTs a prompt to a chat-completion endpoint with the
standard library's urllib, with exponential backoff, and requires the
SEMIFORGE_API_KEY environment variable (checked before any network
traffic). A ``generation.ReplayClient`` given one asks it only for a
prompt its store lacks. Retry warnings log under this module's name,
``semiforge.live``.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time

from .dataset import NonEmpty, check_fields
from .errors import SemiforgeError
from .generation import Completion

logger = logging.getLogger(__name__)

API_KEY_ENV = "SEMIFORGE_API_KEY"


class LiveClient:
    """POST to a chat-completion endpoint with retry and backoff.

    Network errors such as a refused connection, a timeout or a body cut
    short, and rate-limit (429) and server (5xx) responses, are retried
    with exponential backoff, honoring a Retry-After header that gives a
    finite number of seconds, up to MAX_WAIT_S.
    A malformed request (a URL without an http or https scheme, a host
    and a port above 0, or with a space, a key that is not printable)
    and any status but 200, a redirect included, fail at once.
    """

    RETRYABLE = frozenset({429, 500, 502, 503, 504})
    ATTEMPTS = 4
    BACKOFF_S = 0.5  # the wait after the first failed attempt; it doubles after each
    MAX_WAIT_S = 600.0  # the longest Retry-After honored; time.sleep raises from threading.TIMEOUT_MAX up
    TIMEOUT_S = 120.0
    # The sampling every prompt is sent with.
    TEMPERATURE = 0.7
    TOP_P = 0.95
    MAX_TOKENS = 2048

    def __init__(self, endpoint: str, model_id: str):
        self.endpoint = endpoint
        self.model_id = model_id

    def complete(self, prompt: str) -> Completion:
        import http.client
        import urllib.error
        import urllib.parse
        import urllib.request

        key = os.environ.get(API_KEY_ENV)
        if not key:
            raise SemiforgeError(f"set {API_KEY_ENV} before using the live client")
        if not key.isprintable():  # http.client would quote the whole key in its error
            raise SemiforgeError(f"{API_KEY_ENV} contains a character that is not printable")
        payload = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.TEMPERATURE,
            "top_p": self.TOP_P,
            "max_tokens": self.MAX_TOKENS,
        }
        data = json.dumps(payload).encode("utf-8")
        headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

        class RefuseRedirects(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args):
                return None  # so a 3xx raises HTTPError, and the key goes to no other URL

        opener = urllib.request.build_opener(RefuseRedirects)
        last_error = "no attempts made"
        for attempt in range(1, self.ATTEMPTS + 1):
            wait = self.BACKOFF_S * (2 ** (attempt - 1))
            try:
                # The opener would retry "http://", "foo://x/y" and port 0 as network failures.
                url = urllib.parse.urlsplit(self.endpoint)  # its port raises ValueError above 65535
                if url.scheme not in ("http", "https") or not url.hostname or url.port == 0:
                    raise ValueError("the URL needs an http or https scheme, a host and a port above 0")
                post = urllib.request.Request(self.endpoint, data=data, headers=headers)
                with opener.open(post, timeout=self.TIMEOUT_S) as response:
                    status, body = response.status, response.read()
            except urllib.error.HTTPError as exc:  # a status outside 2xx, a redirect included
                exc.close()
                if exc.code not in self.RETRYABLE:
                    raise SemiforgeError(f"endpoint returned HTTP {exc.code}") from exc
                last_error = f"HTTP {exc.code}"
                retry_after = _parse_retry_after(exc.headers.get("Retry-After"))
                if retry_after is not None:
                    wait = min(retry_after, self.MAX_WAIT_S)
                logger.warning("completion attempt %d got %s", attempt, last_error)
            except (ValueError, http.client.InvalidURL) as exc:  # a malformed URL, a path with a space
                raise SemiforgeError(f"bad request to {self.endpoint!r}: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                last_error = str(exc)
                logger.warning("completion attempt %d failed: %s", attempt, exc)
            else:
                if status != 200:
                    raise SemiforgeError(f"endpoint returned HTTP {status}")
                return _completion_from_body(body)
            if attempt < self.ATTEMPTS:
                time.sleep(wait)
        raise SemiforgeError(f"giving up after {self.ATTEMPTS} attempts ({last_error})")


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds to wait, or None (use the backoff) when ``value`` is absent or not a finite number."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return max(0.0, seconds) if math.isfinite(seconds) else None


def _completion_from_body(body: bytes) -> Completion:
    try:
        data = check_fields(json.loads(body), {"choices": NonEmpty[dict], "usage": dict | None}, ("choices",))
        choice = check_fields(data["choices"][0], {"message": dict, "finish_reason": str | None}, ("message",))
        return Completion(
            text=check_fields(choice["message"], {"content": str})["content"],
            finish_reason=choice.get("finish_reason") or "stop",
            usage=data.get("usage") or {},
        )
    except ValueError as exc:  # a body that is not JSON or not UTF-8 included
        raise SemiforgeError(f"malformed completion response: {exc}") from exc
