"""Shared grammar contract for every fault-plan parser.

Both :class:`FaultPlan` (pipeline faults, ``SCAN:KIND[=PARAM]``) and
:class:`ServingFaultPlan` (serving-tier chaos, ``AT:KIND=SHARD[@PARAM]``)
accept semicolon/comma-separated text plans from the CLI. This module
pins the shared contract once for both parsers:

* every documented valid-entry shape round-trips;
* a malformed entry raises :class:`ValidationError` naming the offending
  chunk verbatim, so the user can find it in a long plan string;
* the error lists every valid fault kind, so a typo'd kind is
  self-correcting without opening the docs.

The wire transport's frame-type validation rides along under the same
"errors enumerate valid options" rule.
"""

from __future__ import annotations

import pytest

from repro.resilience import FAULT_KINDS, FaultPlan, ServingFaultPlan
from repro.resilience.faults import SERVING_FAULT_KINDS
from repro.serving.transport import FRAME_TYPES, HEADER, MAGIC, encode_frame, parse_header
from repro.util import ValidationError

PARSERS = {
    "pipeline": lambda text: FaultPlan.parse(text, seed=0),
    "serving": ServingFaultPlan.parse,
}

#: (parser, one entry of every documented shape).
VALID = [
    ("pipeline", "0:kill-rank"),
    ("pipeline", "1:kill-rank=2"),
    ("pipeline", "2:scan-nan=0.1"),
    ("pipeline", "3:crash-after=mid-write"),
    ("pipeline", "0:kill-rank; 1:stall-rank, 2:stagnate-solver"),
    ("serving", "2:kill-shard=1"),
    ("serving", "0:slow-shard=0@0.25"),
    ("serving", "1:hang-worker=1"),
    ("serving", "3:partition@0.5"),
    ("serving", "0:drop-result=0; 1:reset-mid-frame, 2:dup-deliver"),
]

#: (parser, malformed text). Shapes shared by both grammars are listed
#: for both, so a fix to one parser can't silently regress the other.
MALFORMED = [
    ("pipeline", "no-colon"),
    ("pipeline", "x:kill-rank"),
    ("pipeline", "0:scan-nan=notafloat"),
    ("pipeline", "0:"),
    ("serving", "no-colon"),
    ("serving", "x:kill-shard"),
    ("serving", "0:kill-shard=notanint"),
    ("serving", "0:slow-shard=0@notafloat"),
    ("serving", "0:"),
]

#: (parser, text with an unknown kind, the bogus kind).
UNKNOWN_KIND = [
    ("pipeline", "0:meteor-strike", "meteor-strike"),
    ("pipeline", "1:kill-shard", "kill-shard"),  # serving kind, wrong plan
    ("pipeline", "1:poison-warm-start", "poison-warm-start"),  # retired kind
    ("serving", "0:meteor-strike=1", "meteor-strike"),
    ("serving", "1:kill-rank=1", "kill-rank"),  # pipeline kind, wrong plan
]

KINDS = {"pipeline": FAULT_KINDS, "serving": SERVING_FAULT_KINDS}


@pytest.mark.parametrize("parser,text", VALID)
def test_valid_entries_parse(parser, text):
    plan = PARSERS[parser](text)
    n_entries = len([c for c in text.replace(",", ";").split(";") if c.strip()])
    assert len(plan.specs) == n_entries


@pytest.mark.parametrize("parser,text", MALFORMED)
def test_malformed_entry_names_chunk_and_lists_kinds(parser, text):
    bad_chunk = text.replace(",", ";").split(";")[0].strip()
    with pytest.raises(ValidationError) as excinfo:
        PARSERS[parser](text)
    message = str(excinfo.value)
    assert repr(bad_chunk) in message, message
    for kind in KINDS[parser]:
        assert kind in message, f"{kind!r} missing from: {message}"


@pytest.mark.parametrize("parser,text,bogus", UNKNOWN_KIND)
def test_unknown_kind_names_chunk_and_lists_kinds(parser, text, bogus):
    with pytest.raises(ValidationError) as excinfo:
        PARSERS[parser](text)
    message = str(excinfo.value)
    assert repr(text) in message or bogus in message, message
    for kind in KINDS[parser]:
        assert kind in message, f"{kind!r} missing from: {message}"


def test_good_entry_before_bad_still_raises():
    with pytest.raises(ValidationError):
        FaultPlan.parse("0:kill-rank;1:meteor-strike", seed=0)
    with pytest.raises(ValidationError):
        ServingFaultPlan.parse("0:kill-shard=1;1:meteor-strike=0")


def test_crash_stage_errors_list_stages():
    with pytest.raises(ValidationError) as excinfo:
        FaultPlan.parse("0:crash-after=warp-core", seed=0)
    message = str(excinfo.value)
    for stage in ("begin", "solve", "commit", "mid-write"):
        assert stage in message, message


def test_frame_type_errors_list_valid_types():
    # Both ends of the wire: refusing to encode an unknown type, and
    # refusing to parse one, must each enumerate the valid types.
    with pytest.raises(ValidationError) as encode_err:
        encode_frame(99, {})
    bogus_header = HEADER.pack(MAGIC, 99, 0, 0)
    with pytest.raises(ValidationError) as parse_err:
        parse_header(bogus_header)
    for excinfo in (encode_err, parse_err):
        message = str(excinfo.value)
        assert "99" in message, message
        for ftype in FRAME_TYPES:
            assert str(ftype) in message, message
