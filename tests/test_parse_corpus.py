"""The parser's answers on a seeded corpus, pinned by one digest.

Each input's outcome is the printed theory, or the error class with its
message, line and column.  All outcomes are hashed into one digest, so a
change to any parse result, message or position shows up here.  Only
messages the lab writes are hashed (other exceptions count by class name),
so the digest is the same on every supported Python.

The corpus has random token strings and mutated copies of hand-written
programs; several of them declare ``__c0``, ``__min0`` or ``__max0`` next to
conditional terms and aggregates.  A larger corpus can be checked by hand,
for instance before and after a parser change:

    PYTHONPATH=src python tests/test_parse_corpus.py 200000 30000
"""

import hashlib
import random
import re
import sys

from htc.errors import HtcError
from htc.parser import parse_theory, print_theory

SEED = 20_160_001
RANDOM_STRINGS = 6_000
MUTATED_PROGRAMS = 4_000
DIGEST = "4cb3356c5f701a9735f6f459b5f58a7074578cf1bd4599b39b34efe90f78d662"

HEADERS = (
    "",
    "#int x, y 0..3. #bool p, q.\n",
    "#int x, y 0..3. #bool p, q. #int __c0 0..1.\n",
    "#int x 0..3. #bool p, __min0. #int __max0.\n",
    "#bool p. #int x, __c1 -1..2.\n",
)

VOCABULARY = (
    "x y z p q __c0 __min0 __max0 __c1 0 1 2 12 not def sum count min max "
    "#int #bool #true #false :- := .. -> <= >= != - + * . , ; : ( ) { } & | < > = @"
).split()

PROGRAMS = (
    "#int y 0..9.\n(y | 0 : #true) = 5.\n",
    "#int y 0..9. #bool p.\n(y | y : p) = 5.\n#false :- not p.\n",
    "#int x, y 0..9. #bool p.\ny = 5.\nsum{ x ; y } > 1 -> p.\n",
    "#int x 0..9.\nx := 1 :- sum{ x : #true } >= 0.\n",
    "#int t 0..9. #int a, b 0..4. #bool r, l.\nr. l.\na := 3.\n"
    "t := sum{ a : l ; b : r ; 2*b } :- r.\n",
    "#int x, y 0..3. #bool p, q.\nx := 1 ; y := 0..2 :- p, not q.\np | q.\n",
    "#int x, y 0..3. #bool p.\nmin{ x : p ; y } <= 1.\nmax{ x ; -y : not p } >= 2.\n",
    "#int x, y 0..3. #bool p, q.\ncount{ p ; q & x < y } = 1 -> def(x - y).\n",
    "#int x -2..2. #bool p.\n:- x != 0, not not p.\n% a comment\n:- .\n",
    "#int __c0 0..1. #bool p.\n(1 | 0 : p) <= __c0.\n",
    "#int x 0..3. #bool __min0.\nmin{ x } >= 0 & __min0.\n",
    "#int x, __max0 0..3.\nmax{ x ; 1 } <= __max0.\n",
    "#int __c0, x 0..3.\n__c0 <= x.\n#false :- x > 2.\n",
    "#int __min0, __max0 0..2. #bool p.\nsum{ __min0 : p } <= __max0.\n",
    "#int x, y 0..3. #bool p.\n((x | 1 : p) <= 2 | p) -> #false.\n",
    "#int x, y 0..3.\n-(x | -y : x >= y) + 3*x - 0*y <= -1.\n",
    "#bool p, q.\np -> q -> p.\nnot (p & q) | not not q.\n#true.\n",
)

_WORD_RE = re.compile(r"#\w+|:-|:=|\.\.|->|<=|>=|!=|%[^\n]*|\w+|\S")


def random_string(rng) -> str:
    words = [rng.choice(VOCABULARY) for _ in range(rng.randint(1, 12))]
    if rng.random() < 0.7:
        words.append(".")
    return rng.choice(HEADERS) + "".join(w + rng.choice(("", " ", " ", "\n")) for w in words)


def mutated_program(rng) -> str:
    words = _WORD_RE.findall(rng.choice(PROGRAMS))
    for _ in range(rng.randint(0, 3)):
        op, i = rng.randrange(5), rng.randrange(len(words))
        if op == 0 and len(words) > 1:
            del words[i]
        elif op == 1:
            words.insert(i, words[i])
        elif op == 2:
            words[i] = rng.choice(VOCABULARY)
        elif op == 3 and i + 1 < len(words):
            words[i], words[i + 1] = words[i + 1], words[i]
        else:
            words.insert(0, rng.choice(HEADERS))
    return "".join(w + ("\n" if w.startswith("%") else " ") for w in words)


def corpus(seed, random_strings, mutated_programs):
    rng = random.Random(seed)
    for _ in range(random_strings):
        yield random_string(rng)
    for _ in range(mutated_programs):
        yield mutated_program(rng)


def outcome(text) -> str:
    try:
        return "ok\n" + print_theory(parse_theory(text))
    except HtcError as exc:
        return f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # messages not written by the lab vary by version
        return type(exc).__name__


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for out in outcomes:
        h.update(out.encode() + b"\0")
    return h.hexdigest()


def test_parse_outcomes_are_frozen():
    outcomes = [outcome(t) for t in corpus(SEED, RANDOM_STRINGS, MUTATED_PROGRAMS)]
    for name in ("__c0", "__min0", "__max0"):
        assert any(f"declared name {name} collides" in out for out in outcomes), name
    assert sum(out.startswith("ok") for out in outcomes) > 500
    assert digest(outcomes) == DIGEST


if __name__ == "__main__":
    n_random, n_mutated = map(int, sys.argv[1:3])
    print(digest(outcome(t) for t in corpus(SEED, n_random, n_mutated)))
