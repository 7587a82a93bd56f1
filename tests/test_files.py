"""Round-trips for the on-disk formats and their escaping scheme."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lvr import FileFormatError
from lvr.cli import main
from lvr.files import (
    escape_bytes,
    load_merges,
    load_table_model,
    load_tokenizer,
    load_vocabulary,
    save_merges,
    save_table_model,
    save_vocabulary,
    unescape_bytes,
)


@given(st.binary(max_size=64))
def test_escape_round_trip(data):
    assert unescape_bytes(escape_bytes(data)) == data


def test_escape_keeps_printable_text():
    assert escape_bytes(b"hello") == "hello"
    assert escape_bytes(b"a\tb") == "a\\x09b"
    assert escape_bytes(b"a\\b") == "a\\x5cb"
    # an escaped backslash, as written by hand, reads as one backslash
    assert unescape_bytes("a\\\\b") == b"a\\b"


def test_escape_single_bytes():
    # a lone byte is kept only as printable ASCII other than the backslash
    def expected(byte):
        kept = byte < 0x80 and chr(byte).isprintable() and byte != ord("\\")
        return chr(byte) if kept else f"\\x{byte:02x}"

    assert [escape_bytes(bytes([b])) for b in range(256)] == list(map(expected, range(256)))


@pytest.mark.parametrize(
    "data, expected",
    [
        ("é".encode(), "é"),
        ("€".encode(), "€"),
        ("😀".encode(), "😀"),
        ("café €\\".encode(), "café €\\x5c"),
        # U+0085 is valid UTF-8 but not printable: each byte is escaped
        ("\u0085".encode(), "\\xc2\\x85"),
        # an encoded surrogate, U+D800, is not valid UTF-8
        (b"\xed\xa0\x80", "\\xed\\xa0\\x80"),
        # overlong encodings of "/" and of NUL
        (b"\xc0\xaf", "\\xc0\\xaf"),
        (b"\xe0\x80\x80", "\\xe0\\x80\\x80"),
        # truncated sequences, alone and before a complete character
        (b"\xe2\x82", "\\xe2\\x82"),
        (b"\xf0\x9f\x98", "\\xf0\\x9f\\x98"),
        (b"\xe2\x82a", "\\xe2\\x82a"),
        (b"\xc3" + "é".encode(), "\\xc3é"),
        (b"\xf0\x9f" + "😀".encode(), "\\xf0\\x9f😀"),
        # a stray continuation byte, then a character
        (b"\x80\xe2\x82\xac", "\\x80€"),
    ],
)
def test_escape_multibyte_cases(data, expected):
    assert escape_bytes(data) == expected
    assert unescape_bytes(expected) == data


def test_vocabulary_round_trip(tmp_path, binary):
    path = tmp_path / "vocab.json"
    save_vocabulary(binary.tokenizer.vocab, path)
    loaded = load_vocabulary(path)
    assert loaded.surfaces == binary.tokenizer.vocab.surfaces


def test_alphabet_inferred_from_singles(tmp_path, binary):
    path = tmp_path / "vocab.json"
    save_vocabulary(binary.tokenizer.vocab, path)
    loaded = load_vocabulary(path)
    assert loaded.alphabet.symbols == {ord("0"), ord("1")}
    assert loaded.complete


def test_nul_single_marks_terminator(tmp_path):
    import json

    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(["\\x00", "a", "b"]))
    loaded = load_vocabulary(path)
    assert loaded.eos_id == 0


def test_malformed_vocab_rejected(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_vocabulary(path)


def test_merges_round_trip(tmp_path):
    vpath = tmp_path / "vocab.json"
    mpath = tmp_path / "merges.txt"
    vpath.write_text('["a", "b", "ab", "abb"]')
    vocab = load_vocabulary(vpath)
    merges = [(0, 1), (2, 1)]
    save_merges(vocab, merges, mpath)
    assert load_merges(vocab, mpath) == merges
    # blank lines are skipped and take no rank
    mpath.write_text("\n" + mpath.read_text().replace("\n", "\n\n"))
    assert load_merges(vocab, mpath) == merges
    tokenizer = load_tokenizer(vpath, mpath)
    assert tokenizer.decode(tokenizer.encode(b"abba")) == b"abba"


def test_table_model_round_trip(tmp_path, binary):
    vpath = tmp_path / "vocab.json"
    mpath = tmp_path / "model.json"
    save_vocabulary(binary.tokenizer.vocab, vpath)
    save_table_model(binary.model, mpath, vpath.name)
    loaded = load_table_model(mpath)
    np.testing.assert_allclose(
        loaded.next_token_dist(()), binary.model.next_token_dist(()), atol=1e-15
    )
    np.testing.assert_allclose(
        loaded.next_token_dist((2,)), binary.model.next_token_dist((2,)), atol=1e-15
    )


@pytest.mark.parametrize(
    "prefixes", [[[1], [True]], [[True], [1]], [[2], [1], [2]]],
    ids=["1-then-true", "true-then-1", "repeat"])
def test_table_model_with_a_repeated_prefix_refused(tmp_path, binary, prefixes):
    # equal prefixes would load as one key, the later row silently winning
    vpath = tmp_path / "vocab.json"
    mpath = tmp_path / "model.json"
    save_vocabulary(binary.tokenizer.vocab, vpath)
    save_table_model(binary.model, mpath, vpath.name)
    doc = json.loads(mpath.read_text())
    doc["entries"] = [{"prefix": p, "probs": [0.25] * 4} for p in prefixes]
    mpath.write_text(json.dumps(doc))
    last = len(prefixes) - 1
    with pytest.raises(FileFormatError) as err:
        load_table_model(mpath)
    assert str(err.value).startswith(f"{mpath}: entry {last} repeats the prefix")


def test_table_model_with_unrescaled_rows_refused(tmp_path, binary, capsys):
    # every row is renormalized over its valid continuations; a file asking
    # to keep rows as written would silently change meaning, so it is refused
    vpath = tmp_path / "vocab.json"
    mpath = tmp_path / "model.json"
    save_vocabulary(binary.tokenizer.vocab, vpath)
    save_table_model(binary.model, mpath, vpath.name)
    doc = json.loads(mpath.read_text())
    assert "renormalize" not in doc
    doc["renormalize"] = False
    mpath.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="renormalize"):
        load_table_model(mpath)
    assert main(["verify-lossless", "--model", str(mpath), "--subvocab", "bytes"]) == 2
    assert "renormalize" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["entry", "default"])
@pytest.mark.parametrize("row, bad", [
    (["0.25", "0.25", "0.25", "0.25"], "'0.25'"),
    ([True, False, False, False], "True"),
    ([0.5, 0.5, False, 0], "False"),
    ([[0.25], 0.25, 0.25, 0.25], "[0.25]"),
    ([None, 0.5, 0.25, 0.25], "None"),
])
def test_table_model_with_a_probability_not_a_number_refused(tmp_path, binary, where, row, bad):
    # numpy reads "0.25" as 0.25 and true as 1.0, so such a row would load
    # silently; each probability must be a JSON int or float
    vpath = tmp_path / "vocab.json"
    mpath = tmp_path / "model.json"
    save_vocabulary(binary.tokenizer.vocab, vpath)
    good = [0.25] * 4
    entries = [{"prefix": [], "probs": good}, {"prefix": [2], "probs": good}]
    default = good
    if where == "entry":
        entries[1]["probs"] = row
    else:
        default = row
    mpath.write_text(json.dumps({"vocab": vpath.name, "entries": entries, "default": default}))
    with pytest.raises(FileFormatError) as err:
        load_table_model(mpath)
    name = "entry 1" if where == "entry" else "default"
    assert str(err.value) == f"{mpath}: {name}: probability {bad} is not a JSON number"


@pytest.mark.parametrize("rows", [([1, 0, 0, 0], [0, 1, 0, 0]), ([1, 0.0, 0, 0], [0.5, 0.5, 0, 0])])
def test_table_model_with_integer_probabilities_loads(tmp_path, binary, rows):
    # a JSON int is a number: it loads as the float it names
    entry, default = rows
    vpath = tmp_path / "vocab.json"
    mpath = tmp_path / "model.json"
    save_vocabulary(binary.tokenizer.vocab, vpath)
    mpath.write_text(json.dumps({"vocab": vpath.name, "default": default,
                                 "entries": [{"prefix": [], "probs": entry}]}))
    loaded = load_table_model(mpath)
    assert loaded.entries[()].tolist() == [float(p) for p in entry]
    assert loaded.default.tolist() == [float(p) for p in default]


def test_table_model_with_a_row_not_an_array_refused(tmp_path, binary):
    vpath = tmp_path / "vocab.json"
    mpath = tmp_path / "model.json"
    save_vocabulary(binary.tokenizer.vocab, vpath)
    mpath.write_text(json.dumps({"vocab": vpath.name, "default": "0.25",
                                 "entries": []}))
    with pytest.raises(FileFormatError, match="default: expected a JSON array of probabilities"):
        load_table_model(mpath)
