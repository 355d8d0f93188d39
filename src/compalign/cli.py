"""Command-line front end.

Subcommands: ``parse`` builds alignments for a new pattern against a
grammar file, ``learn`` induces a grammar from a corpus, ``neural``
runs the rate-based recognition simulator, and ``validate`` checks a
grammar file.

Exit codes: 0 success, 1 domain error (missing or unreadable file,
unwritable output, bad grammar) or a closed stdout, 2 usage error or a
parameter out of range.  Identical invocations print identical bytes;
timing-dependent output goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .audit import AuditTrail, run_fingerprint
from .engine import EngineParams, analyse
from .grammar_io import (
    format_pattern,
    load_new,
    numbered_patterns,
    save_grammar,
)
from .learner import LearnParams, learn, union_grammar
from .model import Grammar, require_at_least, validate_grammar
from .neural import InhibitionNetwork, NeuralParams
from .render import render
from .runtime import MatchIndex


class DomainError(RuntimeError):
    pass


def _load(loader, path: str, what: str):
    try:
        return loader(path)
    except FileNotFoundError:
        raise DomainError(f"{what} file not found: {path}")
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}")


def _load_grammar(path: str) -> tuple[Grammar, list[str]]:
    """The grammar in ``path`` and the problems validate_grammar finds in it,
    each labelled with its source line."""
    numbered = _load(
        lambda path: numbered_patterns(Path(path).read_text()), path, "grammar"
    )
    grammar = Grammar.of(p for _, p in numbered)
    return grammar, validate_grammar(grammar, [f"line {n}" for n, _ in numbered])


def _valid_grammar(path: str) -> Grammar:
    grammar, problems = _load_grammar(path)
    if problems:
        raise DomainError(f"{path}: {problems[0]}")
    return grammar


def _load_new(path: str):
    items = _load(load_new, path, "input")
    if not items:
        raise DomainError(f"no patterns in {path}")
    return items


def _cmd_parse(args: argparse.Namespace) -> int:
    grammar = _valid_grammar(args.grammar)
    news = _load_new(args.new)
    params = EngineParams(
        alignment_beam=args.beam,
        top_k=args.top,
        max_stages=args.stages,
    )
    index = MatchIndex() if args.index == "on" else None
    trail = None
    if args.audit:
        # an unusable audit path fails here, before the search
        os.makedirs(args.audit, exist_ok=True)
        new_key = " ".join(
            s for item in news for s in item.symbols
        )
        rid = run_fingerprint(params, grammar.fingerprint, new_key)
        trail = AuditTrail(run_id=rid, workers=args.workers, index=index)
    result = analyse(
        news, grammar, params, index=index, audit=trail, workers=args.workers
    )
    if trail is not None:
        trail.write(
            args.audit,
            params,
            inputs={"grammar": args.grammar, "new": args.new},
        )
    if not result.alignments:
        print("no alignment")
        return 0
    for i, scored in enumerate(result.alignments):
        if i:
            print()
        print(f"alignment {i} score {scored.score_bits:.9f} bits")
        if args.probs:
            print(f"probability {result.probabilities[i]:.9f}")
        print(f"encoding {' '.join(scored.encoding)}")
        sys.stdout.write(render(scored.alignment, args.render))
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    corpus = _load_new(args.corpus)
    params = LearnParams(
        passes=args.passes,
        grammar_beam=args.grammar_beam,
        encoding_passes=args.encoding_passes,
    )
    if args.out:
        # an unusable output path fails here, before the search
        out = Path(args.out)
        if out.is_dir():
            raise DomainError(f"output path is a directory: {args.out}")
        if not out.parent.is_dir():
            raise DomainError(f"output directory not found: {out.parent}")
    result = learn(corpus, params, workers=args.workers)
    best = result.best
    print(
        f"grammar {best.grammar_bits:.9f} bits + encoding "
        f"{best.encoding_bits:.9f} bits = {best.total_bits:.9f} bits"
    )
    for p in best.grammar.patterns:
        print(f"  {format_pattern(p)}")
    final = best.grammar
    second = result.encoding_level
    if second is not None and second.best.grammar.patterns:
        print("second-level patterns:")
        for p in second.best.grammar.patterns:
            print(f"  {format_pattern(p)}")
        final = union_grammar(best.grammar, second.best.grammar)
    if args.out:
        save_grammar(final, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_neural(args: argparse.Namespace) -> int:
    require_at_least(0, steps=args.steps)
    grammar = _valid_grammar(args.grammar)
    inputs = _load_new(args.input)
    params = NeuralParams(
        baseline_rate=args.baseline,
        inhibition_gain=args.gain,
        settle_tau=args.tau,
        recognition_threshold=args.threshold,
    )
    net = InhibitionNetwork(grammar, params, trace=bool(args.trace))
    for item in inputs:
        recognised = net.present(list(item.symbols))
        net.withdraw()
        for _ in range(args.steps):
            net.step()
        rates = net.snapshot()
        shown = " ".join(
            "{}={:.3f}".format(
                name,
                sum(info["cells"]) / len(info["cells"]) if info["cells"] else 0.0,
            )
            for name, info in sorted(rates.items())
        )
        print(f"input: {' '.join(item.symbols)}")
        print(f"recognised: {' '.join(recognised) if recognised else '-'}")
        print(f"settled cell rates: {shown}")
    if args.trace:
        rows = net.trace or []
        names = sorted(rows[0]) if rows else []
        with open(args.trace, "w") as f:
            f.write("\t".join(["step"] + names) + "\n")
            for i, row in enumerate(rows):
                f.write(
                    "\t".join(
                        [str(i)] + [f"{row[n]['id_rate']:.6f}" for n in names]
                    )
                    + "\n"
                )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    _, problems = _load_grammar(args.grammar)
    if not problems:
        print("ok")
        return 0
    for line in problems:
        print(line)
    return 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="compalign",
        description="compression-scored multiple alignment of symbol sequences",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="align a new pattern against a grammar")
    p.add_argument("--grammar", required=True)
    p.add_argument("--new", required=True)
    p.add_argument("--beam", type=int, default=100, help="alignment pool width")
    p.add_argument("--top", type=int, default=1, help="alignments to report")
    p.add_argument("--stages", type=int, default=12)
    p.add_argument("--render", choices=("rows", "cols"), default="rows")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--index", choices=("on", "off"), default="off")
    p.add_argument("--audit", metavar="DIR", default=None)
    p.add_argument("--probs", action="store_true")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("learn", help="induce a grammar from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--passes", type=int, default=2)
    p.add_argument("--grammar-beam", type=int, default=10)
    p.add_argument("--encoding-passes", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes that price candidate grammars (default: available CPUs)",
    )
    p.set_defaults(fn=_cmd_learn)

    p = sub.add_parser("neural", help="rate-based recognition simulator")
    p.add_argument("--grammar", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--steps", type=int, default=60)
    p.add_argument("--trace", default=None)
    p.add_argument("--baseline", type=float, default=20.0)
    p.add_argument("--gain", type=float, default=4.0)
    p.add_argument("--tau", type=int, default=4)
    p.add_argument("--threshold", type=float, default=1.8)
    p.set_defaults(fn=_cmd_neural)

    p = sub.add_parser("validate", help="check a grammar file")
    p.add_argument("--grammar", required=True)
    p.set_defaults(fn=_cmd_validate)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; keep the flush at exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # an input path that cannot be read or an output path not written
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
