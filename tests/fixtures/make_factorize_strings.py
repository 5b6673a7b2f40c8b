"""Write factorize_strings.json: printed factorization trees of a seeded
corpus of members, raw and simplified, for the regression test in
tests/test_factorize_fixture.py.

Run from the repository root:

    PYTHONPATH=src python tests/fixtures/make_factorize_strings.py

The file records the trees printed by the library on the path given; it was
written before factorization was memoized, and the test checks that the
memoized code prints the same strings.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from conftest import random_oriental  # noqa: E402

from osimplex.oriental import factorize  # noqa: E402
from osimplex.simplex import MonotoneMap  # noqa: E402
from osimplex.zdelta import ZMorphism  # noqa: E402

SEED = 20060601
# (domain m, number of members); codomains are drawn from 0..5.
QUOTAS = [(0, 20), (1, 50), (2, 90), (3, 90), (4, 50)]


def corpus():
    rng = random.Random(SEED)
    members = []
    for m, count in QUOTAS:
        for _ in range(count):
            n = rng.randint(0, 5)
            members.append(random_oriental(rng, m, n, steps=rng.randint(2, 8)))
    for m in (3, 4):
        members.append(ZMorphism.generator(MonotoneMap(tuple(range(m + 1)), m)))
    return members


def main():
    entries = [
        {
            "x": x.to_json(),
            "raw": str(factorize(x, simplify_output=False)),
            "simplified": str(factorize(x)),
        }
        for x in corpus()
    ]
    path = os.path.join(HERE, "factorize_strings.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": SEED, "entries": entries}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(entries)} entries to {path}")


if __name__ == "__main__":
    main()
