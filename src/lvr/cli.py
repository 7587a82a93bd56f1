"""Command-line surface for the toolkit.

Subcommands: ``tokenize``, ``reduce-generate``, ``build-mcv``,
``ensemble-generate``, ``verify-lossless``, ``bench``.  Generation commands
can write a JSON-lines trace with one record per step (step index, chosen
sub-token, unnormalized marginals, normalizer, dropped top-K mass); each
record is written as its step completes, so a failed run keeps the records
of the steps before the failure, followed by one error record.  Every
command opens its output paths before it starts its work.

Exit codes: 0 on success (and verification PASS), 1 on runtime failure or
verification FAIL, 2 on usage or file-format errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from pathlib import Path

from .bench import run_bench
from .ensemble import EnsembleSpec
from .errors import FileFormatError, LvrError
from .files import (
    escape_bytes,
    load_table_model,
    load_tokenizer,
    load_vocabulary,
    save_merges,
    save_vocabulary,
    unescape_bytes,
)
from .mcv import build_mcv
from .model import train_ngram
from .oracle import lossless_check
from .reduction import DEFAULT_TOP_K, ReductionSession, decode
from .tokenization import (
    BpeTokenizer,
    GreedyTokenizer,
    NestedTokenizer,
    byte_vocabulary,
)


class UsageError(LvrError):
    """Arguments that parse but cannot work together; exit code 2."""


def _at_least(kind: type, low: float, strict: bool = False):
    """argparse type: a finite ``kind`` value that is at least ``low``, or
    above it when ``strict``."""

    def parse(value: str):
        x = kind(value)
        if not math.isfinite(x):
            raise argparse.ArgumentTypeError(f"{value} is not finite")
        if not (x > low if strict else x >= low):
            op = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"{value} is not {op} {low}")
        return x

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


_non_negative = _at_least(int, 0)


def _parse_topk(value: str) -> int | None:
    if value == "exact":
        return None
    k = int(value)
    if k < 1:
        raise argparse.ArgumentTypeError("K must be >= 1 or 'exact'")
    return k


def _parse_member(value: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for part in value.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"member field {part!r} is not KEY=PATH"
            )
        key, _, path = part.partition("=")
        if key not in ("vocab", "merges", "model"):
            raise argparse.ArgumentTypeError(f"unknown member field {key!r}")
        fields[key] = path
    if "vocab" not in fields and "model" not in fields:
        raise argparse.ArgumentTypeError("member needs vocab= or model=")
    return fields


def _require_bpe_members(tokenizers, what: str) -> None:
    if len(tokenizers) < 2 or not all(isinstance(t, BpeTokenizer) for t in tokenizers):
        raise UsageError(f"{what} needs at least two members with merges files")


def _resolve_inner(subvocab: str, outer_tokenizers):
    if subvocab == "bytes":
        return GreedyTokenizer(byte_vocabulary(outer_tokenizers[0].vocab.alphabet))
    if subvocab == "mcv":
        _require_bpe_members(outer_tokenizers, "--subvocab mcv")
        _, tokenizer = build_mcv(outer_tokenizers)
        return tokenizer
    return GreedyTokenizer(load_vocabulary(subvocab))


def _open_output(path: str | None, mode: str, buffering: int = -1):
    """Open an output file, or a null context for ``None``; an unopenable
    path is a usage error, reported before any work is done."""
    if path is None:
        return nullcontext()
    try:
        return open(path, mode, buffering=buffering)
    except OSError as exc:
        raise FileFormatError(f"cannot open {path} for writing: {exc}") from exc


def _run_generation(next_dist, step_fn, vocab, args) -> None:
    """Decode, stream the trace, then write ``--out`` and print the text.
    A failed run ends its trace with ``{"step": i, "error": ...}``."""
    eos = vocab.eos_id
    text = bytearray()
    steps = decode(next_dist, step_fn, eos, args.max_steps, args.decoding, args.seed)
    with _open_output(args.out, "wb") as out, _open_output(args.trace, "w", 1) as trace:
        done = 0
        try:
            for s in steps:
                if trace is not None:
                    record = {
                        "step": s.index,
                        "chosen": s.chosen,
                        "chosen_surface": escape_bytes(vocab.surface(s.chosen)),
                        "ptilde": [math.ldexp(v, s.dist.exponent)
                                   for v in s.dist.raw_marginals.tolist()],
                        "normalizer": s.dist.normalizer,
                        "dropped_mass": math.ldexp(s.dist.dropped_mass, s.dist.exponent),
                    }
                    trace.write(json.dumps(record) + "\n")
                if s.chosen != eos:
                    text.extend(vocab.surface(s.chosen))
                done = s.index + 1
        except LvrError as exc:
            if trace is not None:
                error = f"{type(exc).__name__}: {exc}"
                trace.write(json.dumps({"step": done, "error": error}) + "\n")
            raise
        if out is not None:
            out.write(text)
    print(escape_bytes(bytes(text)))


def cmd_tokenize(args) -> int:
    tokenizer = load_tokenizer(args.vocab, args.merges)
    if args.text is not None:
        data = unescape_bytes(args.text)
    else:
        data = sys.stdin.buffer.read()
    for tid in tokenizer.encode(data):
        print(f"{tid}\t{tokenizer.vocab.surface(tid).hex()}")
    return 0


def cmd_reduce_generate(args) -> int:
    model = load_table_model(args.model, args.merges)
    inner = _resolve_inner(args.subvocab, [model.tokenizer])
    session = ReductionSession(model, NestedTokenizer(model.tokenizer, inner), args.k)
    _run_generation(session.next_subtoken_dist, session.step, inner.vocab, args)
    return 0


def cmd_build_mcv(args) -> int:
    if len(args.vocab) < 2 or len(args.vocab) != len(args.merges):
        raise UsageError("build-mcv needs matching --vocab/--merges pairs, two or more")
    tokenizers = [
        load_tokenizer(v, m) for v, m in zip(args.vocab, args.merges)
    ]
    with (
        _open_output(args.out_vocab, "w") as out_vocab,
        _open_output(args.out_merges, "w") as out_merges,
        _open_output(args.report, "w") as out_report,
    ):
        result, _ = build_mcv(tokenizers)
        save_vocabulary(result.vocab, out_vocab)
        save_merges(result.vocab, result.merges, out_merges)
        report = {
            "member_sizes": [len(t.vocab) for t in tokenizers],
            "intersection_size": len(result.vocab),
            "merges_kept": len(result.merges),
        }
        if out_report is not None:
            out_report.write(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    return 0


def _load_members(args, need_model: bool):
    models = []
    tokenizers = []
    for fields in args.member:
        merges = fields.get("merges")
        if "model" in fields:
            model = load_table_model(fields["model"], merges)
        elif need_model:
            raise UsageError("every member needs model=")
        else:
            model = None
        if model is not None:
            tokenizer = model.tokenizer
        else:
            tokenizer = load_tokenizer(fields["vocab"], merges)
        models.append(model)
        tokenizers.append(tokenizer)
    return models, tokenizers


def cmd_ensemble_generate(args) -> int:
    models, tokenizers = _load_members(args, need_model=True)
    inner = _resolve_inner(args.subvocab, tokenizers)
    sessions = [
        ReductionSession(model, NestedTokenizer(tokenizer, inner), args.k)
        for model, tokenizer in zip(models, tokenizers)
    ]
    spec = EnsembleSpec(sessions, mode=args.mode)
    _run_generation(spec.next_dist, spec.step, inner.vocab, args)
    return 0


def cmd_verify_lossless(args) -> int:
    model = load_table_model(args.model, args.merges)
    inner = _resolve_inner(args.subvocab, [model.tokenizer])
    nested = NestedTokenizer(model.tokenizer, inner)
    with _open_output(args.out, "w") as out:
        report = lossless_check(
            model,
            nested,
            max_len=args.max_len,
            tol=args.tol,
            method=args.method,
            instance=str(args.model),
        )
        if out is not None:
            out.write(json.dumps(report.to_json_dict(), indent=1) + "\n")
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict}: max discrepancy {report.max_discrepancy:.3e} over "
        f"{len(report.rows)} texts (tolerance {report.tolerance:.1e}, "
        f"method {report.method})"
    )
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    models, tokenizers = _load_members(args, need_model=False)
    _require_bpe_members(tokenizers, "bench")
    try:
        text = Path(args.corpus).read_bytes()
    except OSError as exc:
        raise FileFormatError(f"cannot read corpus file {args.corpus}: {exc}") from exc
    corpus = [line for line in text.splitlines() if line]
    with _open_output(args.out, "w") as out:
        members = []
        for model, tokenizer in zip(models, tokenizers):
            if model is None:
                model = train_ngram(corpus, tokenizer, args.order, args.alpha)
            members.append((model, tokenizer))
        report = run_bench(
            members,
            corpus,
            target_bytes=args.target_bytes,
            seed=args.seed,
            topk=args.k,
            mode=args.mode,
        )
        if out is not None:
            out.write(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvr",
        description="Lossless vocabulary reduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_generation_flags(p):
        p.add_argument("--k", type=_parse_topk, default=DEFAULT_TOP_K,
                       help="top-K extensions per step, or 'exact'")
        p.add_argument("--seed", type=_non_negative, default=0)
        p.add_argument("--decoding", choices=("greedy", "sample"), default="greedy")
        p.add_argument("--max-steps", type=_non_negative, default=64)
        p.add_argument("--trace", default=None, help="JSON-lines trace path")
        p.add_argument("--out", default=None, help="write raw output bytes here")

    p = sub.add_parser("tokenize", help="encode text and list tokens")
    p.add_argument("--vocab", required=True)
    p.add_argument("--merges", default=None)
    p.add_argument("--text", default=None,
                   help="escaped input text (default: read stdin)")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("reduce-generate", help="generate from a reduced model")
    p.add_argument("--model", required=True)
    p.add_argument("--merges", default=None)
    p.add_argument("--subvocab", required=True, help="bytes | path to vocab JSON")
    add_generation_flags(p)
    p.set_defaults(func=cmd_reduce_generate)

    p = sub.add_parser("build-mcv", help="intersect BPE tokenizers")
    p.add_argument("--vocab", action="append", default=[])
    p.add_argument("--merges", action="append", default=[])
    p.add_argument("--out-vocab", required=True)
    p.add_argument("--out-merges", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_build_mcv)

    p = sub.add_parser("ensemble-generate", help="lock-step ensemble generation")
    p.add_argument("--member", action="append", required=True, type=_parse_member,
                   help="vocab=PATH[,merges=PATH][,model=PATH]")
    p.add_argument("--subvocab", required=True, help="mcv | bytes | path")
    p.add_argument("--mode", choices=("poe", "moe"), default="poe")
    add_generation_flags(p)
    p.set_defaults(func=cmd_ensemble_generate)

    p = sub.add_parser("verify-lossless", help="certify the reduction on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--merges", default=None)
    p.add_argument("--subvocab", required=True, help="bytes | path")
    p.add_argument("--max-len", type=_non_negative, default=4)
    p.add_argument("--tol", type=_at_least(float, 0), default=1e-9)
    p.add_argument("--method", choices=("reduction", "naive"), default="reduction")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_lossless)

    p = sub.add_parser("bench", help="byte-level vs MCV generation throughput")
    p.add_argument("--member", action="append", required=True, type=_parse_member)
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", type=_at_least(int, 1), default=2)
    p.add_argument("--alpha", type=_at_least(float, 0, strict=True), default=0.5)
    p.add_argument("--target-bytes", type=_non_negative, default=500)
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--k", type=_parse_topk, default=DEFAULT_TOP_K)
    p.add_argument("--mode", choices=("poe", "moe"), default="poe")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LvrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
