"""The loader's two paths against each other and against the set-based oracle.

A canonical file (every non-empty line four tab-separated runs of 1-18 ASCII
digits, ids nonzero) is parsed whole; its CRLF copy, and every variant below,
takes the line loop. Both must give the oracle's dataset, or the oracle's
ParseError on the same line."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclrec.dataset import ParseError, _canonical_ids, load_ml100k

from test_dataset_oracle import assert_same_dataset, load_ml100k_reference

FIELD = st.one_of(st.integers(1, 9), st.integers(1, 40), st.integers(1, 10 ** 18 - 1))


@st.composite
def canonical_lines(draw):
    """Lines of a canonical file: zero-padded fields of at most 18 digits,
    repeated pairs, blank lines; every line ends in a newline."""
    lines, pairs = [], []
    for _ in range(draw(st.integers(1, 25))):
        fields = [draw(FIELD), draw(FIELD), draw(st.integers(0, 5)),
                  draw(st.integers(0, 10 ** 18 - 1))]
        if pairs and draw(st.booleans()):  # a repeated pair
            fields[:2] = draw(st.sampled_from(pairs))
        pairs.append(fields[:2])
        pad = draw(st.integers(0, 2))
        lines.append("\t".join(str(f).zfill(min(18, len(str(f)) + pad)) for f in fields)
                     + "\n")
        if draw(st.integers(0, 5)) == 0:
            lines.append("\n")
    return lines


def line_of(error):
    match = re.search(r": line (\d+):", str(error))
    return int(match.group(1)) if match else None


def assert_loads_as_reference(path):
    """load_ml100k gives the oracle's dataset, or the oracle's error line."""
    try:
        want = load_ml100k_reference(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            load_ml100k(path)
        assert line_of(got.value) == line_of(exc)
        assert str(got.value).startswith(f"{path}: ")
        return None
    got = load_ml100k(path)
    assert_same_dataset(got, want)
    return got


@settings(derandomize=True, max_examples=150, deadline=None)
@given(lines=canonical_lines())
def test_canonical_file_matches_its_crlf_copy_and_the_reference(tmp_path_factory, lines):
    root = tmp_path_factory.mktemp("canonical")
    lf, crlf = root / "u.data", root / "crlf.data"
    lf.write_bytes("".join(lines).encode())
    crlf.write_bytes("".join(lines).replace("\n", "\r\n").encode())
    assert _canonical_ids(lf) is not None and _canonical_ids(crlf) is None
    assert_same_dataset(load_ml100k(crlf), assert_loads_as_reference(lf))


def replace_field(column, value):
    def edit(line):
        fields = line.rstrip("\n").split("\t")
        fields[column] = value
        return "\t".join(fields) + "\n"
    return edit


# name: (edit of one non-blank line, whether the edited file stays canonical)
VARIANTS = {
    "leading_space": (lambda line: " " + line, False),
    "plus_sign_id": (replace_field(0, "+7"), False),
    "underscore_id": (replace_field(1, "1_0"), False),
    "nineteen_digit_id": (replace_field(0, str(10 ** 18 + 7)), False),
    "zero_id": (replace_field(1, "0"), False),
    "three_fields": (lambda line: line.rsplit("\t", 1)[0] + "\n", False),
    "five_fields": (lambda line: line.rstrip("\n") + "\t9\n", False),
    "empty_id": (replace_field(1, ""), False),
    "line_cut_in_two": (lambda line: line.replace("\t", "\n", 2).replace("\n", "\t", 1), False),
    "timestamp_on_next_line": (lambda line: "\t\n".join(line.rsplit("\t", 1)), False),
    "non_ascii_byte": (replace_field(2, "é"), False),
    "non_digit_rating": (replace_field(2, "x"), False),
    "no_final_newline": (lambda line: line.rstrip("\n"), False),
    "whitespace_only_line": (lambda line: line + " \t \n", False),
    "blank_lines": (lambda line: "\n\n" + line + "\n", True),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(lines=canonical_lines(), data=st.data())
def test_variant_loads_or_fails_as_the_reference(tmp_path_factory, variant, lines, data):
    edit, canonical = VARIANTS[variant]
    rows = [k for k, line in enumerate(lines) if line != "\n"]
    k = rows[-1] if variant == "no_final_newline" else data.draw(st.sampled_from(rows))
    if variant == "no_final_newline":
        lines = lines[:k + 1]
    lines[k] = edit(lines[k])
    path = tmp_path_factory.mktemp(variant) / "u.data"
    path.write_bytes("".join(lines).encode("utf-8"))
    assert (_canonical_ids(path) is not None) == canonical
    assert_loads_as_reference(path)
