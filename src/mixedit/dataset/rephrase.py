"""Client interface for an external prompt-rephrasing service.

The service itself (an LLM) is out of scope; this module only speaks the
wire format: POST {"prompt", "n", "wrapper"} and read back
{"rephrasings": [...]}. The API key is read from the environment and
never logged.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..errors import MixeditError
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


@dataclass
class RephraseConfig:
    endpoint: str | None = None
    n: int = 5
    timeout_s: float = 10.0
    wrapper: str = DEFAULT_WRAPPER
    api_key_env: str = "MIXEDIT_REPHRASE_API_KEY"
    max_concurrency: int = 4  # honored by batch callers

    @classmethod
    def from_file(cls, path) -> "RephraseConfig":
        try:
            return cls(**json.loads(Path(path).read_text("utf-8")))
        except (OSError, ValueError, TypeError) as err:
            # ValueError covers bad JSON or UTF-8; TypeError covers a
            # document that is not an object and unknown keys.
            raise BadRephraseConfig(f"{path}: {err}") from err


def rephrase(prompt: Prompt, config: RephraseConfig) -> list[Prompt]:
    """Request rephrased variants of a prompt from the configured service."""
    if not config.endpoint:
        raise Disabled("no rephrase endpoint configured")
    # Imported here: urllib.request pulls in http.client, ssl and email,
    # which every other user of the dataset package would pay for.
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
    except (urllib.error.URLError, TimeoutError, OSError) as err:
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

