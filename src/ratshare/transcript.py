"""The transcript dump: one JSON line per recorded message.

A line is `json.dumps(record, separators=(",", ":"))` of the record
`{trial, iteration, epoch, step, kind, sender, receiver, payload}`, in
that key order and byte for byte, but formatted directly: `write` builds
the `trial`/`iteration`/`epoch` head once per iteration, takes the
`step`/`kind` part from a table built once per `(step, kind)`, and
encodes a payload once for the run of messages that carry it (a
broadcast's recipients).  A coin piece, masked bit or restart request,
whose payload is an exact int or `None`, is its head followed by a tail
that `_jsonl_line` formats once per (sender, receiver, step, kind,
payload) and a bounded cache keeps; a bool is never an exact int, so `1`
and `True` never share a tail.  An int payload is written with `str`, `None`
as `null`, and a `Share` whose holder, epoch and y value are exact ints
and whose tag is `bytes` (every share the issuer makes) as one f-string
of its record `{epoch, holder, x, y, tag}` (x repeats the holder, its
evaluation point; the tag in hex).  Every other payload goes through one
shared JSON encoder as its record: a share with any other field, a
subshare as `{epoch, parent, index, value, tag}` (tag in hex), a tuple
as a list of records, and a bool, float or str as itself.

`LINE_BYTES` is the widest line of each message kind; a dump is sized
before it is written by weighting it with the expected message counts
of `montecarlo.expected_run`.
"""

from __future__ import annotations

import json

from .protocol import MessageKind, RunOutcome, Step
from .shamir import Share, Subshare

# Longest dump line of each message kind, with 7-digit trial, iteration
# and epoch numbers (trials stay below the CLI's 10**7; the default cap is
# 10**6): a coin piece or masked bit, a restart request, and a broadcast
# share with a 10-digit y.
LINE_BYTES = {MessageKind.COIN_PLUS: 118, MessageKind.COIN_MINUS: 118, MessageKind.MASKED_BIT: 118,
              MessageKind.RESTART_REQUEST: 126, MessageKind.SHARE_BROADCAST: 244}


def _payload_record(payload) -> object:
    """The JSON value of a payload: shares and subshares as objects, tuples as lists."""
    if isinstance(payload, Share):
        return {
            "epoch": payload.epoch,
            "holder": payload.holder,
            "x": payload.holder,
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

# The `"step":..,"kind":..,` part of a dump line, per step and kind
# value.  A `Step` hashes as its int, but a `MessageKind` only through
# the Python-level `Enum.__hash__`, so the table is keyed by the kind's
# value string instead.
_STEP_KIND = {
    (step, kind._value_): f'"step":{int(step)},"kind":{_encode(kind.value)},'
    for step in Step
    for kind in MessageKind
}


# The tails of lines whose payload is an exact int or None, by (sender,
# receiver, step, kind value, payload).  The three seated leaders of any
# exchange use 21 (coin pieces and masked bits of 0 or 1, and restart
# requests) and a few more when they stall.  The cache is emptied when it
# reaches this size, so no mix of messages grows it without bound.
_TAIL_CACHE_SIZE = 4096
_tails: dict[tuple, str] = {}


def _line_head(trial: int, iteration: int, epoch: int) -> str:
    return f'{{"trial":{trial},"iteration":{iteration},"epoch":{epoch},'


def _payload_json(payload) -> str:
    if type(payload) is int:
        return str(payload)
    if payload is None:
        return "null"
    if type(payload) is Share:
        holder, epoch, y, tag = payload.holder, payload.epoch, payload.y.value, payload.tag
        if type(holder) is int and type(epoch) is int and type(y) is int and type(tag) is bytes:
            return f'{{"epoch":{epoch},"holder":{holder},"x":{holder},"y":{y},"tag":"{tag.hex()}"}}'
    return _encode(_payload_record(payload))


def _jsonl_line(head: str, sender: int, receiver: int, step: Step, kind: MessageKind,
                payload_json: str) -> str:
    """One dump line, from `_line_head` of the message's trial, iteration and
    epoch, its fields and `_payload_json` of its payload."""
    return (
        f'{head}{_STEP_KIND[step, kind._value_]}"sender":{sender},'
        f'"receiver":{receiver},"payload":{payload_json}}}\n'
    )


def write(fh, trial: int, outcome: RunOutcome) -> None:
    """Write the messages of one recorded run, in sending order, with one `fh.write`."""
    lines = []
    append = lines.append
    tails = _tails
    for transcript in outcome.transcripts:
        head = _line_head(trial, transcript.iteration, transcript.epoch)
        # A broadcast sends one payload object to every recipient in a row.
        payload = text = None
        for sender, receiver, step, kind, item in transcript.messages:
            if item is None or type(item) is int:
                key = (sender, receiver, step, kind._value_, item)
                tail = tails.get(key)
                if tail is None:
                    if len(tails) >= _TAIL_CACHE_SIZE:
                        tails.clear()
                    tail = tails[key] = _jsonl_line("", sender, receiver, step, kind,
                                                    _payload_json(item))
                append(head + tail)
                continue
            if text is None or item is not payload:
                payload, text = item, _payload_json(item)
            append(_jsonl_line(head, sender, receiver, step, kind, text))
    fh.write("".join(lines))
