"""On-disk formats: vocabulary JSON, merges text, and table-model JSON,
all read and written as UTF-8; a file that does not decode is refused with
:class:`FileFormatError` naming it.

Vocabulary file: a JSON array of token surfaces; the array index is the
token id.  Surfaces are strings in which backslashes, control characters,
and bytes that are not valid UTF-8 are hex-escaped as ``\\xNN``.

Merges file: one merge per line, ``LEFT_SURFACE<TAB>RIGHT_SURFACE``, with
the line number as the merge rank.

Table-model file: ``{"vocab": <path>, "entries": [{"prefix": [ids],
"probs": [floats]}], "default": [floats] | null}``, where each prefix id is
an integer id of the vocabulary; any other (``99`` over four tokens, ``-1``,
``2.7``, ``"3"``, ``true``, ``false``) is refused, and so is a prefix
equal to an earlier entry's (``[true]`` after ``[1]``).  A probability is a
JSON number: ``"0.25"`` and ``true`` are refused.  Each row is renormalized
over the continuations valid after its prefix; a file that sets
``"renormalize": false`` is refused.

The alphabet of a loaded vocabulary is inferred from its single-byte
surfaces (a usable vocabulary always contains them); a NUL (``\\x00``)
single-byte token, when present, is treated as the reserved terminator.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import FileFormatError
from .tokenization import Alphabet, BpeTokenizer, DeterministicTokenizer, GreedyTokenizer, Vocabulary

EOS_BYTE = 0x00

_ESCAPE_RE = re.compile(r"\\x([0-9a-fA-F]{2})|\\\\|(.)", re.DOTALL)


def escape_bytes(data: bytes) -> str:
    """Render arbitrary bytes as a printable string, ``\\xNN``-escaping
    anything that would not round-trip.  A byte that is not part of valid
    UTF-8 decodes to a lone surrogate U+DC80..U+DCFF and is escaped alone."""
    out: list[str] = []
    for ch in data.decode("utf-8", "surrogateescape"):
        if "\udc80" <= ch <= "\udcff":
            out.append(f"\\x{ord(ch) - 0xDC00:02x}")
        elif ch != "\\" and ch.isprintable():
            out.append(ch)
        else:
            out.extend(f"\\x{b:02x}" for b in ch.encode("utf-8"))
    return "".join(out)


def unescape_bytes(text: str) -> bytes:
    """Inverse of :func:`escape_bytes`."""
    out = bytearray()
    for match in _ESCAPE_RE.finditer(text):
        if match.group(1) is not None:
            out.append(int(match.group(1), 16))
        elif match.group(0) == "\\\\":
            out.append(ord("\\"))
        else:
            out.extend(match.group(2).encode("utf-8"))
    return bytes(out)


def _infer_alphabet(surfaces: list[bytes]) -> Alphabet:
    symbols = {b for s in surfaces for b in s}
    eos = EOS_BYTE if any(s == b"\x00" for s in surfaces) else None
    return Alphabet(frozenset(symbols), eos=eos)


def _write_text(dest: str | Path | TextIO, text: str) -> None:
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text, encoding="utf-8")
    else:
        dest.write(text)


def save_vocabulary(vocab: Vocabulary, dest: str | Path | TextIO) -> None:
    """Write a vocabulary file to a path or an open text file."""
    rows = [escape_bytes(s) for s in vocab.surfaces]
    _write_text(dest, json.dumps(rows, indent=0) + "\n")


def load_vocabulary(path: str | Path) -> Vocabulary:
    try:
        rows = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot parse vocabulary file {path}: {exc}") from exc
    if not isinstance(rows, list) or not all(isinstance(r, str) for r in rows):
        raise FileFormatError(f"{path}: expected a JSON array of strings")
    surfaces = [unescape_bytes(r) for r in rows]
    try:
        return Vocabulary(surfaces, _infer_alphabet(surfaces))
    except Exception as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_merges(vocab: Vocabulary, merges: list[tuple[int, int]], dest: str | Path | TextIO) -> None:
    """Write a merges file to a path or an open text file."""
    lines = [
        f"{escape_bytes(vocab.surface(a))}\t{escape_bytes(vocab.surface(b))}"
        for a, b in merges
    ]
    _write_text(dest, "\n".join(lines) + ("\n" if lines else ""))


def load_merges(vocab: Vocabulary, path: str | Path) -> list[tuple[int, int]]:
    merges: list[tuple[int, int]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read merges file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines()):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FileFormatError(f"{path}:{lineno + 1}: expected LEFT<TAB>RIGHT")
        try:
            merges.append(
                (vocab.id_of(unescape_bytes(parts[0])), vocab.id_of(unescape_bytes(parts[1])))
            )
        except Exception as exc:
            raise FileFormatError(f"{path}:{lineno + 1}: {exc}") from exc
    return merges


def load_tokenizer(vocab_path: str | Path, merges_path: str | Path | None = None) -> DeterministicTokenizer:
    """Greedy tokenizer from a vocabulary file, or BPE when a merges file is
    also given."""
    vocab = load_vocabulary(vocab_path)
    if merges_path is None:
        return GreedyTokenizer(vocab)
    return BpeTokenizer(vocab, load_merges(vocab, merges_path))


def save_table_model(model, path: str | Path, vocab_path: str | Path) -> None:
    doc = {
        "vocab": str(vocab_path),
        "entries": [
            {"prefix": list(prefix), "probs": [float(p) for p in probs]}
            for prefix, probs in model.entries.items()
        ],
        "default": [float(p) for p in model.default] if model.default is not None else None,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _probs(row, path, where: str) -> np.ndarray:
    """A row of probabilities, each an int or a float and never a ``bool``,
    which numpy would read as 1.0, as it reads ``"0.25"`` as 0.25."""
    if not isinstance(row, list):
        raise FileFormatError(f"{path}: {where}: expected a JSON array of probabilities")
    for p in row:
        if type(p) not in (int, float):
            raise FileFormatError(f"{path}: {where}: probability {p!r} is not a JSON number")
    return np.asarray(row, dtype=float)


def load_table_model(path: str | Path, merges_path: str | Path | None = None):
    """Load a table model; the vocabulary path inside the file is resolved
    relative to the file's directory."""
    from .model import TableModel

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot parse model file {path}: {exc}") from exc
    try:
        if doc.get("renormalize", True) is not True:
            raise FileFormatError(
                f'{path}: "renormalize": false is not supported; every row is '
                "renormalized over its valid continuations"
            )
        vocab_path = Path(path).parent / doc["vocab"]
        tokenizer = load_tokenizer(vocab_path, merges_path)
        entries = {}
        for i, row in enumerate(doc["entries"]):
            prefix = tuple(row["prefix"])
            # [1] and [true] compare equal, so one would overwrite the other
            if prefix in entries:
                raise FileFormatError(
                    f"{path}: entry {i} repeats the prefix of an earlier entry: {prefix}")
            entries[prefix] = _probs(row["probs"], path, f"entry {i}")
        default = _probs(doc["default"], path, "default") if doc.get("default") is not None else None
        return TableModel(tokenizer, entries, default=default)
    except FileFormatError:
        raise
    except Exception as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
