"""The shipped fixture corpus stays valid and byte-stable."""

import pathlib

from halfhandle.cli_io import (
    parse_datum,
    parse_script,
    serialize_datum,
    serialize_decomposition,
    serialize_script,
)
from halfhandle.morse_data import validate_datum
from halfhandle.moves import apply_record, apply_script
from halfhandle.normal_form import global_split, verify_decomposition

FIX = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_datum_fixtures_parse_validate_and_roundtrip():
    paths = sorted(FIX.glob("*.datum"))
    assert len(paths) >= 5
    for path in paths:
        text = path.read_text()
        d = parse_datum(text)
        assert validate_datum(d) == [], path.name
        assert serialize_datum(d) == text, path.name


def test_script_fixtures_parse_and_roundtrip():
    paths = sorted(FIX.glob("*.script"))
    assert len(paths) >= 2
    for path in paths:
        text = path.read_text()
        assert serialize_script(parse_script(text)) == text, path.name


def pipeline_files(stem):
    before = parse_datum((FIX / (stem + ".datum")).read_text())
    script = parse_script((FIX / (stem + ".script")).read_text())
    after = parse_datum((FIX / (stem + ".split.datum")).read_text())
    report = (FIX / (stem + ".report")).read_text()
    return before, script, after, report


def test_pipeline_fixtures_replay_and_rederive():
    for stem in ("two-surgeries", "monotone"):
        before, script, after, report = pipeline_files(stem)
        assert apply_script(before, script) == after
        out, dec, rerun = global_split(before)
        assert out == after
        assert rerun == script
        assert verify_decomposition(after, dec)
        assert serialize_decomposition(dec) == report


def test_script_replay_equals_the_record_fold():
    # apply_script replays each stretch of rearrangements as one run
    for stem in ("two-surgeries", "monotone"):
        before, script, after, _ = pipeline_files(stem)
        folded = before
        for record in script:
            folded = apply_record(folded, record)
        assert apply_script(before, script) == folded == after
        assert serialize_datum(folded) == (FIX / (stem + ".split.datum")).read_text()
