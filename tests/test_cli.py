"""CLI surface: subcommands, exit codes, traces, and file plumbing."""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import binary_instance, nan_at_root, restriction_dead_end

from lvr import (
    Alphabet,
    BpeTokenizer,
    GreedyTokenizer,
    NestedTokenizer,
    ReductionSession,
    TableModel,
    Vocabulary,
    byte_vocabulary,
    reduction,
)
from lvr.cli import main
from lvr.files import escape_bytes, save_table_model, save_vocabulary


@pytest.fixture
def binary_files(tmp_path):
    inst = binary_instance()
    vocab = tmp_path / "vocab.json"
    model = tmp_path / "model.json"
    subvocab = tmp_path / "sub.json"
    save_vocabulary(inst.tokenizer.vocab, vocab)
    save_vocabulary(inst.inner.vocab, subvocab)
    save_table_model(inst.model, model, vocab.name)
    return {"vocab": vocab, "model": model, "subvocab": subvocab, "dir": tmp_path}


class TestTokenize:
    def test_single_token_line(self, binary_files, capsys):
        code = main(["tokenize", "--vocab", str(binary_files["vocab"]), "--text", "001"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [f"3\t{b'001'.hex()}"]

    def test_empty_input(self, binary_files, capsys, monkeypatch):
        import io, sys

        monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": io.BytesIO(b"")})())
        code = main(["tokenize", "--vocab", str(binary_files["vocab"])])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_malformed_vocab_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["tokenize", "--vocab", str(bad), "--text", "0"])
        assert code == 2


_UNIFORM = [0.25] * 4


def _table_doc(entries, default=_UNIFORM):
    return json.dumps({"vocab": "vocab.json", "entries": entries, "default": default})


class TestFileFormatErrors:
    # case -> (the file's bytes, the command reading it as BAD, a fragment
    # of the error line besides the file's path)
    CASES = {
        "vocabulary not UTF-8": (
            b'["0", "1", "00", "0\xff1"]', ["tokenize", "--vocab", "BAD", "--text", "0"],
            "can't decode byte 0xff",
        ),
        "sub-vocabulary not UTF-8": (
            b'["0", "1", "\xff"]', ["reduce-generate", "--model", "MODEL", "--subvocab", "BAD"],
            "can't decode byte 0xff",
        ),
        "merges not UTF-8": (
            b"0\t\xff\n", ["tokenize", "--vocab", "VOCAB", "--merges", "BAD", "--text", "0"],
            "can't decode byte 0xff",
        ),
        "model not UTF-8": (
            _table_doc([]).encode().replace(b"vocab.json", b"vocab\xff.json"),
            ["reduce-generate", "--model", "BAD", "--subvocab", "SUB"],
            "can't decode byte 0xff",
        ),
        "vocabulary with a repeated surface": (
            b'["0", "1", "0"]', ["tokenize", "--vocab", "BAD", "--text", "0"],
            "duplicate token surface b'0'",
        ),
        "vocabulary not an array of strings": (
            b'["0", "1", 2]', ["tokenize", "--vocab", "BAD", "--text", "0"],
            "expected a JSON array of strings",
        ),
        "merges line without a tab": (
            b"0 0\n", ["tokenize", "--vocab", "VOCAB", "--merges", "BAD", "--text", "0"],
            "1: expected LEFT<TAB>RIGHT",
        ),
        "merges surface not in the vocabulary": (
            b"0\t0\n0\t2\n", ["tokenize", "--vocab", "VOCAB", "--merges", "BAD", "--text", "0"],
            "2: unknown token surface b'2'",
        ),
        "model without entries": (
            b'{"vocab": "vocab.json"}', ["verify-lossless", "--model", "BAD", "--subvocab", "SUB"],
            "'entries'",
        ),
        "default row of the wrong length": (
            _table_doc([], [0.5, 0.5]).encode(),
            ["verify-lossless", "--model", "BAD", "--subvocab", "SUB"],
            "default distribution: expected 4 probabilities",
        ),
        "table key with an unknown id": (
            _table_doc([{"prefix": [99], "probs": _UNIFORM}]).encode(),
            ["verify-lossless", "--model", "BAD", "--subvocab", "SUB"],
            "table entry (99,): token ids must be integers in [0, 4)",
        ),
        "table key with a negative id": (
            _table_doc([{"prefix": [2], "probs": _UNIFORM},
                        {"prefix": [-1, 2], "probs": _UNIFORM}]).encode(),
            ["verify-lossless", "--model", "BAD", "--subvocab", "SUB"],
            "table entry (-1, 2)",
        ),
        "table key with a fractional id": (
            _table_doc([{"prefix": [2.7], "probs": _UNIFORM}]).encode(),
            ["verify-lossless", "--model", "BAD", "--subvocab", "SUB"],
            "table entry (2.7,)",
        ),
        "table key with a boolean id": (
            _table_doc([{"prefix": [2], "probs": _UNIFORM},
                        {"prefix": [True], "probs": _UNIFORM}]).encode(),
            ["verify-lossless", "--model", "BAD", "--subvocab", "SUB"],
            "table entry (True,)",
        ),
        "table key repeated as a boolean id": (
            _table_doc([{"prefix": [1], "probs": _UNIFORM},
                        {"prefix": [True], "probs": _UNIFORM}]).encode(),
            ["verify-lossless", "--model", "BAD", "--subvocab", "SUB"],
            "entry 1 repeats the prefix",
        ),
        "table key with a string id": (
            _table_doc([{"prefix": ["3"], "probs": _UNIFORM}]).encode(),
            ["verify-lossless", "--model", "BAD", "--subvocab", "SUB"],
            "table entry ('3',)",
        ),
        # numpy would read each of these rows as numbers, and the check pass
        "table row of string probabilities": (
            _table_doc([{"prefix": [2], "probs": ["0.25"] * 4}]).encode(),
            ["verify-lossless", "--model", "BAD", "--subvocab", "SUB"],
            "entry 0: probability '0.25' is not a JSON number",
        ),
        "table row of boolean probabilities": (
            _table_doc([{"prefix": [2], "probs": [True, False, False, False]}]).encode(),
            ["verify-lossless", "--model", "BAD", "--subvocab", "SUB"],
            "entry 0: probability True is not a JSON number",
        ),
        "default row of string probabilities": (
            _table_doc([], ["0.25"] * 4).encode(),
            ["verify-lossless", "--model", "BAD", "--subvocab", "bytes"],
            "default: probability '0.25' is not a JSON number",
        ),
        "default row of boolean probabilities": (
            _table_doc([], [False, True, False, False]).encode(),
            ["reduce-generate", "--model", "BAD", "--subvocab", "SUB"],
            "default: probability False is not a JSON number",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_2_naming_the_file(self, binary_files, capsys, case):
        content, argv, fragment = self.CASES[case]
        bad = binary_files["dir"] / "bad.file"
        bad.write_bytes(content)
        names = {"BAD": bad, "VOCAB": binary_files["vocab"], "MODEL": binary_files["model"],
                 "SUB": binary_files["subvocab"]}
        code = main([str(names.get(a, a)) for a in argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(bad) in captured.err and fragment in captured.err, captured.err


class TestReduceGenerate:
    def test_out_writes_the_printed_text(self, binary_files, capsys):
        out = binary_files["dir"] / "out.bin"
        code = main(
            [
                "reduce-generate",
                "--model", str(binary_files["model"]),
                "--subvocab", str(binary_files["subvocab"]),
                "--max-steps", "6",
                "--decoding", "sample",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert len(out.read_bytes()) >= 6
        assert printed == escape_bytes(out.read_bytes()) + "\n"

    def test_trace_records_first_step_marginals(self, binary_files, capsys):
        trace = binary_files["dir"] / "trace.jsonl"
        code = main(
            [
                "reduce-generate",
                "--model", str(binary_files["model"]),
                "--subvocab", str(binary_files["subvocab"]),
                "--k", "exact",
                "--max-steps", "2",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(records) == 2
        first = records[0]
        assert first["step"] == 0
        np.testing.assert_allclose(first["ptilde"], [0.1, 0.1, 0.8], atol=1e-12)
        assert "normalizer" in first and "dropped_mass" in first

    def test_long_trace_keeps_its_log_mass(self, binary_files, capsys):
        # ptilde is all zeros from step 894 and the normalizer 0.0 from
        # step 895; log2_normalizer stays finite and never grows
        trace = binary_files["dir"] / "long.jsonl"
        code = main(["reduce-generate", "--model", str(binary_files["model"]),
                     "--subvocab", str(binary_files["subvocab"]), "--max-steps", "1500",
                     "--decoding", "sample", "--seed", "7", "--trace", str(trace)])
        assert code == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(records) == 1500 and records[-1]["normalizer"] == 0.0
        logs = [r["log2_normalizer"] for r in records]
        assert all(map(math.isfinite, logs))
        assert all(b <= a for a, b in zip(logs, logs[1:]))
        assert logs[-1] < -1074

    def test_byte_subvocab(self, binary_files, capsys):
        code = main(
            [
                "reduce-generate",
                "--model", str(binary_files["model"]),
                "--subvocab", "bytes",
                "--max-steps", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert set(out) <= {"0", "1"}

    def test_exact_and_wide_k_traces_match(self, binary_files, capsys):
        traces = []
        for k in ["exact", "300"]:
            path = binary_files["dir"] / f"trace-{k}.jsonl"
            main(
                [
                    "reduce-generate",
                    "--model", str(binary_files["model"]),
                    "--subvocab", str(binary_files["subvocab"]),
                    "--k", k,
                    "--max-steps", "3",
                    "--trace", str(path),
                ]
            )
            traces.append(
                [
                    {key: value for key, value in json.loads(line).items()
                     if key != "dropped_mass"}
                    for line in path.read_text().splitlines()
                ]
            )
        assert traces[0] == traces[1]

    def test_rescaled_trace_reports_true_marginals(self, binary_files, capsys, monkeypatch):
        # a threshold that rescales the cover at nearly every step changes
        # no trace value: ptilde, normalizer and dropped_mass are true values
        traces = []
        for threshold in (reduction._RESCALE_BELOW, 2.0):
            monkeypatch.setattr(reduction, "_RESCALE_BELOW", threshold)
            path = binary_files["dir"] / f"trace-{len(traces)}.jsonl"
            code = main(
                [
                    "reduce-generate",
                    "--model", str(binary_files["model"]),
                    "--subvocab", str(binary_files["subvocab"]),
                    "--k", "2",
                    "--max-steps", "12",
                    "--decoding", "sample",
                    "--seed", "3",
                    "--trace", str(path),
                ]
            )
            assert code == 0
            traces.append(path.read_text())
        assert traces[0] == traces[1]
        assert any(json.loads(line)["dropped_mass"] > 0 for line in traces[0].splitlines())

    def test_truncated_k_differs_in_dropped_mass(self, binary_files, capsys):
        path = binary_files["dir"] / "trace-k1.jsonl"
        main(
            [
                "reduce-generate",
                "--model", str(binary_files["model"]),
                "--subvocab", str(binary_files["subvocab"]),
                "--k", "1",
                "--max-steps", "3",
                "--trace", str(path),
            ]
        )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(r["dropped_mass"] > 0 for r in records)

    def test_exact_without_k_past_300_ids(self, tmp_path, capsys):
        # |V| = 306: the full byte alphabet plus 50 merges, where K = 300
        # would drop extensions; the session and the flag default to exact
        alphabet = Alphabet.bytes()
        singles = [bytes([b]) for b in range(256)]
        pairs = list(itertools.product(b"abcdefghij", repeat=2))[:50]
        vocab = Vocabulary(singles + [bytes(p) for p in pairs], alphabet)
        tokenizer = BpeTokenizer(vocab, [(vocab.id_of(bytes([a])), vocab.id_of(bytes([b])))
                                         for a, b in pairs])
        weights = np.random.default_rng(5).uniform(0.2, 1.0, len(vocab))
        model = TableModel(tokenizer, {}, default=weights / weights.sum())
        nested = NestedTokenizer(tokenizer, GreedyTokenizer(byte_vocabulary(alphabet)))
        assert len(model.vocab) > 300 and ReductionSession(model, nested).topk is None
        save_vocabulary(vocab, tmp_path / "vocab.json")
        save_table_model(model, tmp_path / "model.json", "vocab.json")
        written = {}
        for k in ([], ["--k", "exact"], ["--k", "300"]):
            trace = tmp_path / f"trace{len(written)}.jsonl"
            argv = ["reduce-generate", "--model", str(tmp_path / "model.json"),
                    "--subvocab", "bytes", "--max-steps", "6", "--decoding", "sample",
                    "--seed", "1", "--trace", str(trace), *k]
            assert main(argv) == 0
            written[tuple(k)] = (capsys.readouterr().out, trace.read_text())
        assert written[()] == written[("--k", "exact")]
        assert all(json.loads(line)["dropped_mass"] == 0.0
                   for line in written[()][1].splitlines())
        assert written[()][1] != written[("--k", "300")][1]

    def test_failed_run_keeps_trace(self, binary_files, capsys):
        # only the root row and no default: the second step has no table entry
        inst = binary_instance()
        model = binary_files["dir"] / "root-only.json"
        save_table_model(
            TableModel(inst.tokenizer, {(): inst.model.entries[()]}, default=None),
            model,
            binary_files["vocab"].name,
        )
        path = binary_files["dir"] / "trace-failed.jsonl"
        code = main(
            [
                "reduce-generate",
                "--model", str(model),
                "--subvocab", str(binary_files["subvocab"]),
                "--k", "exact",
                "--max-steps", "5",
                "--trace", str(path),
            ]
        )
        assert code == 1
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["step"] for r in records] == [0, 1]
        np.testing.assert_allclose(records[0]["ptilde"], [0.1, 0.1, 0.8], atol=1e-12)
        assert records[1]["error"].startswith("ModelError: no table entry")

    @pytest.mark.parametrize("flag", ["--trace", "--out"])
    def test_unopenable_output_exits_2_before_decoding(self, binary_files, capsys, flag):
        missing = binary_files["dir"] / "missing-dir" / "file"
        code = main(
            [
                "reduce-generate",
                "--model", str(binary_files["model"]),
                "--subvocab", str(binary_files["subvocab"]),
                flag, str(missing),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot open {missing}")


class TestVerifyLossless:
    def test_pass_exit_zero(self, binary_files, capsys):
        report = binary_files["dir"] / "report.json"
        code = main(
            [
                "verify-lossless",
                "--model", str(binary_files["model"]),
                "--subvocab", str(binary_files["subvocab"]),
                "--max-len", "3",
                "--out", str(report),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("PASS")
        doc = json.loads(report.read_text())
        assert doc["passed"] is True

    def test_integer_probabilities_pass(self, binary_files, capsys):
        # a JSON int is a number: a row of ints loads and the check passes
        model = binary_files["dir"] / "ints.json"
        model.write_text(_table_doc([{"prefix": [], "probs": [0, 0, 1, 0]}]))
        code = main(["verify-lossless", "--model", str(model),
                     "--subvocab", str(binary_files["subvocab"]), "--max-len", "3"])
        assert code == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_naive_method_fails_exit_one(self, binary_files, capsys):
        code = main(
            [
                "verify-lossless",
                "--model", str(binary_files["model"]),
                "--subvocab", str(binary_files["subvocab"]),
                "--max-len", "3",
                "--method", "naive",
            ]
        )
        assert code == 1
        assert capsys.readouterr().out.startswith("FAIL")

    def test_naive_reports_a_restriction_with_no_mass(self, tmp_path, capsys):
        # after "a" only the token "bb" may follow; the check aborted there
        # with "restriction removed all probability mass" and no report
        from lvr.files import save_merges

        model, _ = restriction_dead_end()
        vocab = model.tokenizer.vocab
        save_vocabulary(vocab, tmp_path / "vocab.json")
        save_merges(vocab, model.tokenizer.merges, tmp_path / "merges.txt")
        save_table_model(model, tmp_path / "model.json", "vocab.json")
        out = tmp_path / "naive.json"
        code = main(["verify-lossless", "--model", str(tmp_path / "model.json"),
                     "--merges", str(tmp_path / "merges.txt"), "--subvocab", "bytes",
                     "--max-len", "3", "--method", "naive", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL") and captured.err == ""
        doc = json.loads(out.read_text())
        assert doc["passed"] is False and doc["method"] == "naive"
        reduced = {row["text"]: row["reduced"] for row in doc["rows"]}
        assert reduced["a"] == 0.25 and reduced["aa"] == reduced["ab"] == reduced["ac"] == 0.0

    def test_a_nan_marginal_fails_exit_one(self, binary_files, capsys, monkeypatch):
        # the NaN row came after the first, so max() skipped it: PASS, exit 0
        nan_at_root(monkeypatch)
        out = binary_files["dir"] / "report.json"
        code = main(
            [
                "verify-lossless",
                "--model", str(binary_files["model"]),
                "--subvocab", str(binary_files["subvocab"]),
                "--max-len", "3",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().out.startswith("FAIL: max discrepancy nan")
        # the report is JSON: each number that is not finite is null, where
        # json.dumps would write the bare NaN that JSON has no word for

        def refuse(constant):
            raise AssertionError(f"{constant} in the report")

        report = json.loads(out.read_text(), parse_constant=refuse)
        assert report["passed"] is False and report["max_discrepancy"] is None
        nan_rows = [r for r in report["rows"] if r["reduced"] is None]
        assert nan_rows and all(r["discrepancy"] is None for r in nan_rows)
        assert all(r["original"] is not None for r in report["rows"])

    @pytest.mark.parametrize("budget", ["abc", "1e6", "-5"])
    def test_bad_enumeration_budget_is_a_usage_error(self, binary_files, capsys,
                                                     monkeypatch, budget):
        # a budget that is not a non-negative integer exits 2 naming the
        # variable, and is read before the model: it was a ValueError
        # traceback (exit 1), or for -5 a refusal of every check
        monkeypatch.setenv("LVR_ENUM_BUDGET", budget)
        for model in (binary_files["model"], binary_files["dir"] / "missing.json"):
            argv = ["verify-lossless", "--model", str(model),
                    "--subvocab", str(binary_files["subvocab"]), "--max-len", "3"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: LVR_ENUM_BUDGET"), captured.err
            assert repr(budget) in captured.err

    @pytest.mark.parametrize("budget, code", [("", 0), ("0", 1), ("2000", 0)])
    def test_enumeration_budget_values(self, binary_files, capsys, monkeypatch, budget, code):
        # empty is the default; 0 refuses the check (15 texts, exit 1)
        monkeypatch.setenv("LVR_ENUM_BUDGET", budget)
        argv = ["verify-lossless", "--model", str(binary_files["model"]),
                "--subvocab", str(binary_files["subvocab"]), "--max-len", "3"]
        assert main(argv) == code
        assert (capsys.readouterr().err == "") == (code == 0)


class TestBuildMcv:
    def test_outputs_and_report(self, tmp_path, capsys):
        from lvr import Alphabet, BpeTokenizer, Vocabulary
        from lvr.files import save_merges

        alphabet = Alphabet.of("abcd")
        singles = [b"a", b"b", b"c", b"d"]
        v1 = Vocabulary(singles + [b"ab", b"abc"], alphabet)
        v2 = Vocabulary(singles + [b"ab", b"abd"], alphabet)
        paths = {}
        for name, vocab, merges in [
            ("one", v1, [(v1.id_of(b"a"), v1.id_of(b"b")), (v1.id_of(b"ab"), v1.id_of(b"c"))]),
            ("two", v2, [(v2.id_of(b"a"), v2.id_of(b"b")), (v2.id_of(b"ab"), v2.id_of(b"d"))]),
        ]:
            BpeTokenizer(vocab, merges)
            vp = tmp_path / f"{name}.json"
            mp = tmp_path / f"{name}.txt"
            save_vocabulary(vocab, vp)
            save_merges(vocab, merges, mp)
            paths[name] = (vp, mp)
        out_vocab = tmp_path / "common.json"
        out_merges = tmp_path / "common.txt"
        out_report = tmp_path / "report.json"
        code = main(
            [
                "build-mcv",
                "--vocab", str(paths["one"][0]), "--merges", str(paths["one"][1]),
                "--vocab", str(paths["two"][0]), "--merges", str(paths["two"][1]),
                "--out-vocab", str(out_vocab),
                "--out-merges", str(out_merges),
                "--report", str(out_report),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert json.loads(out_report.read_text()) == report
        assert report["member_sizes"] == [6, 6]
        assert report["intersection_size"] == 5
        assert report["merges_kept"] == 1
        from lvr.files import load_tokenizer

        merged = load_tokenizer(out_vocab, out_merges)
        assert merged.encode(b"ab") == (merged.vocab.id_of(b"ab"),)


@pytest.fixture
def bpe_member_files(tmp_path):
    """Two BPE tokenizers with table models plus a training corpus."""
    import numpy as np

    from lvr import Alphabet, BpeTokenizer, TableModel, Vocabulary
    from lvr.files import save_merges

    alphabet = Alphabet.of("abcd", eos="\x00")
    singles = [bytes([s]) for s in sorted(alphabet.symbols)]
    members = []
    rng = np.random.default_rng(6)
    for name, extra, merges in [
        ("one", [b"ab", b"abc"], [(b"a", b"b"), (b"ab", b"c")]),
        ("two", [b"ab", b"abd"], [(b"a", b"b"), (b"ab", b"d")]),
    ]:
        vocab = Vocabulary(singles + extra, alphabet)
        merge_ids = [(vocab.id_of(x), vocab.id_of(y)) for x, y in merges]
        BpeTokenizer(vocab, merge_ids)
        vec = rng.uniform(0.2, 1.0, len(vocab))
        model = TableModel(
            BpeTokenizer(vocab, merge_ids),
            {(): vec / vec.sum()},
            default=np.full(len(vocab), 1.0 / len(vocab)),
        )
        vp, mp, tp = (tmp_path / f"{name}.json", tmp_path / f"{name}.txt",
                      tmp_path / f"{name}-model.json")
        save_vocabulary(vocab, vp)
        save_merges(vocab, merge_ids, mp)
        save_table_model(model, tp, vp.name)
        members.append((vp, mp, tp))
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"abcabdababcab\nabdabcababd\nabcabcabdabd\n")
    return members, corpus


class TestEnsembleMcv:
    def test_generate_over_mcv(self, bpe_member_files, capsys):
        members, _ = bpe_member_files
        code = main(
            [
                "ensemble-generate",
                "--member", f"model={members[0][2]},merges={members[0][1]}",
                "--member", f"model={members[1][2]},merges={members[1][1]}",
                "--subvocab", "mcv",
                "--mode", "poe",
                "--decoding", "sample",
                "--seed", "4",
                "--max-steps", "5",
                "--k", "exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert set(out) <= set("abcd")


@pytest.fixture
def absorbing_member_files(tmp_path):
    """Two BPE members over ``ab`` with uniform table models; their common
    vocabulary is {a, b, ba} with the merge b+a.  Member one merges a+b,
    then a+a, then b+a: it writes "baab" as ba|ab but "baa" as b|aa, so the
    sub-token prefix ba|a that its ba|ab reaches is the nested encoding of
    no member-one sequence."""
    from lvr import Alphabet, BpeTokenizer, TableModel, Vocabulary
    from lvr.files import save_merges

    alphabet = Alphabet.of("ab", eos="\x00")
    singles = [bytes([s]) for s in sorted(alphabet.symbols)]
    members = []
    for name, extra, merges in [
        ("one", [b"ab", b"aa", b"ba"], [(b"a", b"b"), (b"a", b"a"), (b"b", b"a")]),
        ("two", [b"ba"], [(b"b", b"a")]),
    ]:
        vocab = Vocabulary(singles + extra, alphabet)
        merge_ids = [(vocab.id_of(x), vocab.id_of(y)) for x, y in merges]
        model = TableModel(
            BpeTokenizer(vocab, merge_ids), {}, default=np.full(len(vocab), 1.0 / len(vocab))
        )
        vp, mp, tp = (tmp_path / f"{name}.json", tmp_path / f"{name}.txt",
                      tmp_path / f"{name}-model.json")
        save_vocabulary(vocab, vp)
        save_merges(vocab, merge_ids, mp)
        save_table_model(model, tp, vp.name)
        members.append((mp, tp))
    return members


class TestEnsembleMcvPrefixWithoutRetokenization:
    def test_generates_through_the_prefix(self, absorbing_member_files, capsys):
        # the sampled path steps onto ba|a, where only member one's cover
        # entry ba|ab continues; no extension starts there
        (m1, t1), (m2, t2) = absorbing_member_files
        code = main(
            [
                "ensemble-generate",
                "--member", f"model={t1},merges={m1}",
                "--member", f"model={t2},merges={m2}",
                "--subvocab", "mcv",
                "--mode", "poe",
                "--k", "exact",
                "--decoding", "sample",
                "--seed", "4",
            ]
        )
        assert code == 0, capsys.readouterr().err
        assert capsys.readouterr().out.strip() == "baab"


class TestEnsembleMoeTopK:
    @pytest.mark.parametrize("subvocab, seed", [("bytes", 2), ("mcv", 0)])
    def test_pick_from_one_member_under_topk(self, bpe_member_files, capsys, subvocab, seed):
        # the mixture can choose a sub-token whose extensions top-K dropped
        # in one member; that member must still step onto it
        members, _ = bpe_member_files
        code = main(
            [
                "ensemble-generate",
                "--member", f"model={members[0][2]},merges={members[0][1]}",
                "--member", f"model={members[1][2]},merges={members[1][1]}",
                "--subvocab", subvocab,
                "--mode", "moe",
                "--k", "2",
                "--decoding", "sample",
                "--seed", str(seed),
            ]
        )
        assert code == 0, capsys.readouterr().err
        assert set(capsys.readouterr().out.strip()) <= set("abcd")

    @pytest.mark.parametrize("subvocab", ["bytes", "mcv"])
    @pytest.mark.parametrize("seed", range(8))
    def test_default_row_members(self, tmp_path, capsys, subvocab, seed):
        # default-row table models over {a, b, ab, abb} and {a, b, ab, ba}:
        # at K=2 a member's top-K drops, at an earlier step, every entry
        # reaching a sub-token that the mixture later picks on the other
        # member's mass, so only an exact fallback that restores the
        # carried groups too can step onto it
        for name, extra, merges in [("1", "abb", "a\tb\nab\tb\n"),
                                    ("2", "ba", "a\tb\nb\ta\n")]:
            (tmp_path / f"v{name}.json").write_text(
                json.dumps(["\\x00", "a", "b", "ab", extra]))
            (tmp_path / f"m{name}.txt").write_text(merges)
            (tmp_path / f"t{name}.json").write_text(json.dumps(
                {"vocab": f"v{name}.json", "entries": [],
                 "default": [0.1, 0.3, 0.3, 0.2, 0.1]}))
        code = main(
            [
                "ensemble-generate",
                "--member", f"model={tmp_path / 't1.json'},merges={tmp_path / 'm1.txt'}",
                "--member", f"model={tmp_path / 't2.json'},merges={tmp_path / 'm2.txt'}",
                "--subvocab", subvocab,
                "--mode", "moe",
                "--k", "2",
                "--decoding", "sample",
                "--seed", str(seed),
            ]
        )
        assert code == 0, capsys.readouterr().err
        assert set(capsys.readouterr().out.strip()) <= set("ab")


class TestUnopenablePaths:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("verify-lossless", "--out"),
            ("build-mcv", "--out-vocab"),
            ("build-mcv", "--out-merges"),
            ("build-mcv", "--report"),
            ("bench", "--out"),
            ("bench", "--corpus"),
        ],
    )
    def test_exits_2_before_work(
        self, binary_files, bpe_member_files, capsys, monkeypatch, command, flag
    ):
        from lvr import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the paths were checked")

        for name in ("lossless_check", "build_mcv", "run_bench", "train_ngram"):
            monkeypatch.setattr(cli, name, no_work)
        (v1, m1, _), (v2, m2, _) = bpe_member_files[0]
        out_dir = binary_files["dir"]
        argv = {
            "verify-lossless": [
                "--model", binary_files["model"], "--subvocab", binary_files["subvocab"],
                "--out", out_dir / "report.json",
            ],
            "build-mcv": [
                "--vocab", v1, "--merges", m1, "--vocab", v2, "--merges", m2,
                "--out-vocab", out_dir / "common.json",
                "--out-merges", out_dir / "common.txt",
                "--report", out_dir / "mcv.json",
            ],
            "bench": [
                "--member", f"vocab={v1},merges={m1}",
                "--member", f"vocab={v2},merges={m2}",
                "--corpus", bpe_member_files[1], "--out", out_dir / "bench.json",
            ],
        }[command]
        missing = out_dir / "missing-dir" / "file"
        argv[argv.index(flag) + 1] = missing
        code = main([command] + [str(a) for a in argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        what = "read corpus file" if flag == "--corpus" else "open"
        assert captured.err.startswith(f"error: cannot {what} {missing}")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "case",
        [
            "build-mcv one pair",
            "ensemble member without model",
            "mcv with one member",
            "mcv member without merges",
            "bench one member",
            "bench member without merges",
            "negative max-steps",
            "negative max-len",
            "reduce-generate negative seed",
            "ensemble-generate negative seed",
            "bench negative seed",
            "negative tolerance",
            "nan tolerance",
            "bench zero order",
            "bench zero alpha",
            "bench negative target-bytes",
            "zero k",
            "k not an integer",
            "member field without =",
            "unknown member field",
            "member without vocab or model",
        ],
    )
    def test_exit_2_with_error_line(self, binary_files, bpe_member_files, capsys, case):
        (v1, m1, t1), (v2, m2, t2) = bpe_member_files[0]
        corpus = bpe_member_files[1]
        bench = ["bench", "--member", f"vocab={v1},merges={m1}",
                 "--member", f"vocab={v2},merges={m2}", "--corpus", corpus]
        sample = ["--decoding", "sample", "--seed", "-1"]
        out_dir = binary_files["dir"]
        binary = ["--model", binary_files["model"], "--subvocab", binary_files["subvocab"]]
        argv = {
            "build-mcv one pair": [
                "build-mcv", "--vocab", v1, "--merges", m1,
                "--out-vocab", out_dir / "common.json", "--out-merges", out_dir / "common.txt",
            ],
            "ensemble member without model": [
                "ensemble-generate", "--member", f"model={t1},merges={m1}",
                "--member", f"vocab={v2}", "--subvocab", "bytes",
            ],
            "mcv with one member": [
                "ensemble-generate", "--member", f"model={t1},merges={m1}", "--subvocab", "mcv",
            ],
            "mcv member without merges": [
                "ensemble-generate", "--member", f"model={t1},merges={m1}",
                "--member", f"model={t2}", "--subvocab", "mcv",
            ],
            "bench one member": [
                "bench", "--member", f"vocab={v1},merges={m1}", "--corpus", corpus,
            ],
            "bench member without merges": [
                "bench", "--member", f"vocab={v1},merges={m1}", "--member", f"vocab={v2}",
                "--corpus", corpus,
            ],
            "negative max-steps": ["reduce-generate", *binary, "--max-steps", "-3"],
            "negative max-len": ["verify-lossless", *binary, "--max-len", "-2"],
            "reduce-generate negative seed": ["reduce-generate", *binary, *sample],
            "ensemble-generate negative seed": [
                "ensemble-generate", "--member", f"model={t1},merges={m1}",
                "--subvocab", "bytes", *sample,
            ],
            "bench negative seed": [*bench, "--seed", "-1"],
            "negative tolerance": ["verify-lossless", *binary, "--tol", "-1"],
            "nan tolerance": ["verify-lossless", *binary, "--tol", "nan"],
            "bench zero order": [*bench, "--order", "0"],
            "bench zero alpha": [*bench, "--alpha", "0"],
            "bench negative target-bytes": [*bench, "--target-bytes", "-3"],
            "zero k": ["reduce-generate", *binary, "--k", "0"],
            "k not an integer": ["bench", *bench[1:], "--k", "abc"],
            "member field without =": [
                "ensemble-generate", "--member", f"model={t1},{m1}", "--subvocab", "bytes",
            ],
            "unknown member field": [
                "ensemble-generate", "--member", f"model={t1},merge={m1}", "--subvocab", "bytes",
            ],
            "member without vocab or model": [
                *bench[:-4], "--member", f"merges={m2}", "--corpus", corpus,
            ],
        }[case]
        # where another refusal would also exit 2, the message tells them apart
        fragment = {
            "zero k": "K must be an integer >= 1 or 'exact', not '0'",
            "k not an integer": "K must be an integer >= 1 or 'exact', not 'abc'",
            "member field without =": "is not KEY=PATH",
            "unknown member field": "unknown member field 'merge'",
            "member without vocab or model": "member needs vocab= or model=",
        }.get(case, "")
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the value while parsing
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert any(
            line.startswith("error: ") or ": error: " in line
            for line in captured.err.splitlines()
        ), captured.err
        assert fragment in captured.err, captured.err


class TestBench:
    def test_report_shape(self, bpe_member_files, capsys, tmp_path):
        members, corpus = bpe_member_files
        out_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--member", f"vocab={members[0][0]},merges={members[0][1]}",
                "--member", f"vocab={members[1][0]},merges={members[1][1]}",
                "--corpus", str(corpus),
                "--order", "1",
                "--alpha", "0.5",
                "--target-bytes", "40",
                "--seed", "3",
                "--k", "exact",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        for key in ("byte_level", "mcv", "bytes_per_step_ratio", "corpus_mean_token_len"):
            assert key in report
        for stats in (report["byte_level"], report["mcv"]):
            assert {"steps", "bytes", "bytes_per_step"} <= set(stats)


class TestEnsembleGenerate:
    def test_single_member_matches_reduce_generate(self, binary_files, capsys):
        args_common = [
            "--subvocab", str(binary_files["subvocab"]),
            "--decoding", "sample",
            "--seed", "7",
            "--max-steps", "4",
            "--k", "exact",
        ]
        main(["reduce-generate", "--model", str(binary_files["model"])] + args_common)
        solo = capsys.readouterr().out
        main(
            [
                "ensemble-generate",
                "--member", f"model={binary_files['model']}",
            ]
            + args_common
        )
        combined = capsys.readouterr().out
        assert combined == solo
