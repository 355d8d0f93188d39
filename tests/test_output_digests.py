"""Byte pins on what the program prints and writes.

Each entry is the sha256 of one output at default parameters: the
``analyse_serialized`` text of the two parse fixtures, the stdout of
``compalign learn`` on the three ``corpus_*`` fixtures, the dumped
grammar that ``learn_from_encodings`` finds on the agreement fixtures
(each learn output checked at the default ``workers`` and at one), and
every stage file of ``compalign parse --audit`` on the ``class``
fixture.  The manifest is left out because it holds a timestamp.  Three
more pin the final pools of ``random_micro_instance`` seeds 0-299, one
per pool width.

The digests do not depend on ``PYTHONHASHSEED``.  A change that moves
any of them changes the program's output and has to say so; print the
current values with ``python tests/test_output_digests.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from pathlib import Path

import pytest

from compalign import (
    EngineParams,
    LearnParams,
    analyse,
    analyse_serialized,
    dump_grammar,
    learn_from_encodings,
    load_grammar,
    load_new,
    serialize_alignment,
)
from compalign.cli import main

from conftest import random_micro_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

DIGESTS = {
    "analyse_serialized/parsing": (
        "a09b5904437ef8c3586ebb5367477952aa18323242c805a608583c5d5910f1f9"
    ),
    "analyse_serialized/class": (
        "eae7f91d1dbfa7681ba29b0a85989d504aea5895f72279196b8b42fe9832ba88"
    ),
    "learn/corpus_repeat": (
        "7735d464221ac76ebe211139a9e00dce684e2f09c3a99a8541f284ef1437d627"
    ),
    "learn/corpus_shared_suffix": (
        "813ca341a7336733d525c48ec20ccafdea3d29d3af00045461be2aad10ef19b0"
    ),
    "learn/corpus_two_sentences": (
        "e1af1da4770473be63df97d07dbd5210776068dfb36b1acaa1c518b0087d0103"
    ),
    "learn_from_encodings/agreement": (
        "caa9688d47f1769d609e3fd1c7db6dc877b04268b9588fb6170d7112986cd909"
    ),
}

AUDIT_DIGESTS = {
    "stage_001.tsv": "a3ccb8893ec20f74a14fae322384fdfef5cf43d22c73eb9d7d64699a265d727f",
    "stage_002.tsv": "3a006393f3ce349fb3a9affdee928c4ccfb8bb0f0ecf22f3dd1d7076f2f26010",
    "stage_003.tsv": "b8e98cbc2a57a16684b9ffa2218d64f649961083d3eb547342f6ee8b7bf4c8a3",
    "stage_004.tsv": "499406b1ef0ec5addad306a6934e7c251407a3dfa888cbbb9953c3e23c42d4f4",
    "stage_005.tsv": "b0f35de73f4c0a1318d040cf4d605a3c9309cea35ffe91341e99a71e7815e8e0",
    "stage_006.tsv": "672f1b07d22cd03491fef88b08a0f0c17750a51f8ff58cc0429fe8d811b084b0",
    "stage_007.tsv": "3b1ea97764bf7985196a49b897b50d4bfe9c82c8257d407c5993c53e8c53ecff",
    "stage_008.tsv": "ec76ea960d4b605a98084dcb2ba20096118e46e4eef3f0bf396e9a9229d0adcc",
}

# the final pools of random_micro_instance seeds 0-299; a narrow pool
# fills early, so these pin the pool cut where it acts most
MICRO_PARAMS = {
    "top_k=100": EngineParams(top_k=100),
    "beam=top_k=3": EngineParams(alignment_beam=3, top_k=3),
    "beam=top_k=10": EngineParams(alignment_beam=10, top_k=10),
}

MICRO_DIGESTS = {
    "top_k=100": "bb14e43cc065b0fb2c130f9ce568eeb4de1c12809a6da333b8fabd35c0929591",
    "beam=top_k=3": "122a7541b88779c52f272f1144d7981420ba9631dc338770102f697669556387",
    "beam=top_k=10": "5175a3e10c04c0bc8a7932169e3df0b0dfec696d4afd4764c4359d71e07d4ca8",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


# learn prices its candidate grammars on a process pool unless told to
# use one worker; its output must be the same bytes either way
CASES = sorted(DIGESTS) + [
    f"{name} --workers 1" for name in sorted(DIGESTS) if name.startswith("learn")
]


def output_of(name: str, *learn_flags: str) -> str:
    kind, stem = name.split("/")
    if kind == "analyse_serialized":
        grammar = load_grammar(FIXTURES / f"{stem}_grammar.sp")
        new = load_new(FIXTURES / f"{stem}_new.sp")[0]
        return analyse_serialized(new, grammar)
    if kind == "learn":
        return _cli_stdout(
            "learn", "--corpus", str(FIXTURES / f"{stem}.sp"), *learn_flags
        )
    lexicon = load_grammar(FIXTURES / "agreement_lexicon.sp")
    corpus = load_new(FIXTURES / "agreement_corpus.sp")
    # the one flag a case carries is --workers N
    workers = int(learn_flags[-1]) if learn_flags else None
    params = LearnParams(encoding_passes=2)
    result = learn_from_encodings(lexicon, corpus, params, workers)
    return dump_grammar(result.best.grammar)


def audit_digests(directory: Path) -> dict[str, str]:
    """Digest of every stage file the class parse writes to ``directory``."""
    _cli_stdout(
        "parse",
        "--grammar", str(FIXTURES / "class_grammar.sp"),
        "--new", str(FIXTURES / "class_new.sp"),
        "--audit", str(directory),
    )
    return {
        path.name: _sha(path.read_text())
        for path in sorted(directory.glob("stage_*.tsv"))
    }


def micro_pool_digest(params: EngineParams) -> str:
    """sha256 over each seed's stage count, pool size, scores and serializations."""
    h = hashlib.sha256()
    for seed in range(300):
        new, grammar = random_micro_instance(random.Random(seed))
        result = analyse(new, grammar, params)
        h.update(f"{seed} {result.stages_run} {len(result.alignments)}\n".encode())
        for scored in result.alignments:
            ser = serialize_alignment(scored.alignment)
            h.update(f"{scored.score_bits!r}\n{ser}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_are_pinned(case):
    name, *learn_flags = case.split()
    assert _sha(output_of(name, *learn_flags)) == DIGESTS[name]


def test_audit_stage_files_are_pinned(tmp_path):
    assert audit_digests(tmp_path) == AUDIT_DIGESTS


@pytest.mark.parametrize("name", sorted(MICRO_PARAMS))
def test_micro_pools_are_pinned(name):
    assert micro_pool_digest(MICRO_PARAMS[name]) == MICRO_DIGESTS[name]


if __name__ == "__main__":
    import tempfile

    for name in sorted(DIGESTS):
        print(f"{name}\t{_sha(output_of(name))}")
    with tempfile.TemporaryDirectory() as tmp:
        for file, digest in audit_digests(Path(tmp)).items():
            print(f"audit/{file}\t{digest}")
    for name, params in MICRO_PARAMS.items():
        print(f"micro/{name}\t{micro_pool_digest(params)}")
