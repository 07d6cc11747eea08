"""One canonical encoder: keys and journal records are byte-identical.

``repro.perf.keys.CANONICAL`` is the one spelling of sorted-key,
whitespace-free JSON.  The canonical text, a journal record's text and
CRC, a run key and a workflow stage key are pinned here against the
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` form each of
them used to spell out for itself, kept below as the oracle.
"""

import hashlib
import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable.journal import JournalRecord
from repro.perf.keys import (
    CanonicalisationError,
    canonical,
    canonical_json,
    content_key,
    run_key,
)
from repro.workflow.engine import stage_cache_key


def oracle_text(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def oracle_key(value):
    return hashlib.sha256(oracle_text(value).encode()).hexdigest()[:16]


scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=8))
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(values)
def test_the_canonical_text_and_key(value):
    assert canonical_json(value) == oracle_text(canonical(value))
    assert content_key(value) == oracle_key(canonical(value))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.floats(allow_nan=False), st.text(max_size=8),
       st.sampled_from(["SCHEDULED", "CHECKPOINT", "EVENT"]),
       st.dictionaries(st.text(max_size=6), values, max_size=4))
def test_a_journal_record_text_and_crc(seq, time, run_id, kind, payload):
    body = oracle_text({"seq": seq, "t": time, "run": run_id, "kind": kind,
                        "payload": payload})
    record = JournalRecord(seq, time, run_id, kind, payload)
    assert record.to_text() == f"{body}|crc={zlib.crc32(body.encode()):08x}"
    assert JournalRecord.parse(record.to_text()) is not None


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=8), values, st.text(max_size=8))
def test_a_run_key(model_id, parameters, forcing):
    assert run_key(model_id, parameters, forcing) == oracle_key(
        {"model": model_id, "params": canonical(parameters, "parameters"),
         "forcing": forcing})


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=8), st.dictionaries(st.text(max_size=6), values,
                                            max_size=4))
def test_a_stage_key(node_id, basis):
    assert stage_cache_key(basis, node_id) == oracle_key(canonical(basis))


def test_a_run_key_names_the_parameter_it_cannot_spell():
    with pytest.raises(CanonicalisationError, match=r"parameters\.seeds"):
        run_key("topmodel", {"seeds": {1, 2}})
    with pytest.raises(CanonicalisationError,
                       match=r"workflow cache key for stage 'n'\.x"):
        stage_cache_key({"x": object()}, "n")
