"""Client interface for an external prompt-rephrasing service.

The service itself (an LLM) is out of scope; this module only speaks the
wire format: POST {"prompt", "n", "wrapper"} and read back
{"rephrasings": [...]}. The API key is read from the environment and
never logged.
"""

from __future__ import annotations

import dataclasses
import json
import os
from urllib.parse import urlsplit

from ..errors import MixeditError, read_json_config
from ..prompt import Prompt, Provenance

DEFAULT_WRAPPER = (
    "This prompt is an instruction to a sound editing system. As a human "
    "user, rephrase the prompt {n} times, as natural as possible. Be "
    "creative in words and sentence structures. Use either imperative or "
    "interrogative instructions. Keep your language simple for daily use."
)


class Disabled(MixeditError):
    pass


class NetworkError(MixeditError):
    pass


class MalformedResponse(MixeditError):
    pass


class BadRephraseConfig(MixeditError):
    pass


@dataclasses.dataclass
class RephraseConfig:
    endpoint: str | None = None
    n: int = 5
    timeout_s: float = 10.0
    wrapper: str = DEFAULT_WRAPPER
    api_key_env: str = "MIXEDIT_REPHRASE_API_KEY"
    max_concurrency: int = 4  # honored by batch callers

    @classmethod
    def from_file(cls, path) -> "RephraseConfig":
        """Read a config; a key that is not a field, a value of the wrong
        JSON type, an endpoint that is not an http(s) URL, a timeout
        outside (0, 86400] seconds or a wrapper that ``format(n=...)``
        rejects raises BadRephraseConfig."""
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        config = cls(**read_json_config(path, defaults, BadRephraseConfig,
                                        nullable={"endpoint": ""}))
        if config.endpoint is not None:
            try:
                url = urlsplit(config.endpoint)
                ok = url.scheme in ("http", "https") and bool(url.hostname)
            except ValueError:  # a malformed IPv6 host
                ok = False
            if not ok:
                raise BadRephraseConfig(
                    f"{path}: endpoint must be an http(s) URL, "
                    f"got {config.endpoint!r}")
        if not 0 < config.timeout_s <= 86400:  # NaN fails too
            raise BadRephraseConfig(
                f"{path}: timeout_s must be in (0, 86400] seconds, "
                f"got {config.timeout_s!r}")
        try:
            config.wrapper.format(n=config.n)
        except (LookupError, ValueError, AttributeError, TypeError) as err:
            raise BadRephraseConfig(
                f"{path}: wrapper does not format with n: {err!r}") from err
        return config


def rephrase(prompt: Prompt, config: RephraseConfig) -> list[Prompt]:
    """Request rephrased variants of a prompt from the configured service."""
    if not config.endpoint:
        raise Disabled("no rephrase endpoint configured")
    # Imported here: urllib.request pulls in http.client, ssl and email,
    # which every other user of the dataset package would pay for.
    import http.client
    import urllib.error
    import urllib.request

    payload = json.dumps({
        "prompt": prompt.text,
        "n": config.n,
        "wrapper": config.wrapper.format(n=config.n),
    }).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(config.api_key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(config.endpoint, data=payload,
                                     headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=config.timeout_s) as resp:
            body = resp.read()
    except (urllib.error.URLError, TimeoutError, OSError,
            http.client.HTTPException) as err:  # also a garbled reply
        raise NetworkError(f"rephrase request failed: {err}") from err
    try:
        doc = json.loads(body)
    except (ValueError, RecursionError) as err:  # also bad UTF-8, deep nesting
        raise MalformedResponse("response is not JSON") from err
    texts = doc.get("rephrasings") if isinstance(doc, dict) else None
    if not isinstance(texts, list) or not texts:
        raise MalformedResponse("response lacks a rephrasings list")
    out = []
    for t in texts:
        if not isinstance(t, str) or not t.strip():
            raise MalformedResponse("empty rephrasing in response")
        text = t.strip()
        if not text.endswith((".", "?")):
            text += "."
        out.append(Prompt(text, Provenance.EXTERNAL_REPHRASE))
    return out

