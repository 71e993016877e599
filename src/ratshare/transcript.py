"""The transcript dump: one JSON line per recorded message.

A line is `json.dumps(record, separators=(",", ":"))` of the record
`{trial, iteration, epoch, step, kind, sender, receiver, payload}`, in
that key order and byte for byte, but formatted directly: `write` builds
the `trial`/`iteration`/`epoch` head once per iteration, takes the
`step`/`kind` part from a table built once per `(step, kind)`, and
encodes a payload once for the run of messages that carry it (a
broadcast's recipients).  Int payloads are written with `str` and `None`
as `null`; every other payload goes through one shared JSON encoder as
its record: a share as `{epoch, holder, x, y, tag}`, a subshare as
`{epoch, parent, index, value, tag}` (tags in hex), a tuple as a list of
records.

`dump_bytes_per_iteration` is what sizes a dump before it is written.
"""

from __future__ import annotations

import json

from .analysis import iteration_distribution
from .protocol import MessageKind, RunOutcome, Step
from .shamir import Share, Subshare

# Longest dump lines with 7-digit trial, iteration and epoch numbers
# (trials stay below the CLI's 10**7; the default cap is 10**6): a coin
# piece or masked bit, a restart request, and a broadcast share with a
# 10-digit y.
BIT_LINE_BYTES, RESTART_LINE_BYTES, SHARE_LINE_BYTES = 118, 126, 244


def dump_bytes_per_iteration(alpha: float) -> float:
    """At least what an honest iteration writes to a dump, on average.

    Each iteration sends six coin pieces and three masked bits.  When
    exactly one coin is 1, its owner broadcasts to the other two and all
    three ask for a restart; when all three are 1, all broadcast and the
    run ends; otherwise all three ask for a restart.  An iteration's coins
    do not depend on whether it is reached, so a run's bytes per iteration
    average to this expectation.  At alpha 0.5 it is 1.76 KB (measured:
    about 1.55 KB).
    """
    dist = iteration_distribution(alpha)
    broadcasters = dist.p_lone_send + 3 * dist.p_success
    return (
        9 * BIT_LINE_BYTES
        + 3 * (1 - dist.p_success) * RESTART_LINE_BYTES
        + 2 * broadcasters * SHARE_LINE_BYTES
    )


def _payload_record(payload) -> object:
    """The JSON value of a payload: shares and subshares as objects, tuples as lists."""
    if isinstance(payload, Share):
        return {
            "epoch": payload.epoch,
            "holder": payload.holder,
            "x": payload.x.value,
            "y": payload.y.value,
            "tag": payload.tag.hex(),
        }
    if isinstance(payload, Subshare):
        return {
            "epoch": payload.epoch,
            "parent": payload.parent_holder,
            "index": payload.index,
            "value": payload.value.value,
            "tag": payload.tag.hex(),
        }
    if isinstance(payload, tuple):
        return [_payload_record(item) for item in payload]
    return payload


# `json.dumps(..., separators=...)` builds an encoder per call; dump lines
# share this one.
_encode = json.JSONEncoder(separators=(",", ":")).encode

# The `"step":..,"kind":..,` part of a dump line, per (step, kind).
_STEP_KIND = {
    (step, kind): f'"step":{int(step)},"kind":{_encode(kind.value)},'
    for step in Step
    for kind in MessageKind
}


def _line_head(trial: int, iteration: int, epoch: int) -> str:
    return f'{{"trial":{trial},"iteration":{iteration},"epoch":{epoch},'


def _payload_json(payload) -> str:
    if type(payload) is int:
        return str(payload)
    if payload is None:
        return "null"
    return _encode(_payload_record(payload))


def _jsonl_line(msg, head: str, payload_json: str) -> str:
    """One dump line, from `_line_head` of the message's trial, iteration and
    epoch and `_payload_json` of its payload."""
    return (
        f'{head}{_STEP_KIND[msg.step, msg.kind]}"sender":{msg.sender},'
        f'"receiver":{msg.receiver},"payload":{payload_json}}}\n'
    )


def write(fh, trial: int, outcome: RunOutcome) -> None:
    """Write the messages of one recorded run, in sending order, with one `fh.write`."""
    lines = []
    for transcript in outcome.transcripts:
        head = _line_head(trial, transcript.iteration, transcript.epoch)
        # A broadcast sends one payload object to every recipient in a row.
        payload = text = None
        for msg in transcript.messages:
            if text is None or msg.payload is not payload:
                payload, text = msg.payload, _payload_json(msg.payload)
            lines.append(_jsonl_line(msg, head, text))
    fh.write("".join(lines))
