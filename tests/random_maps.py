"""The seeded chain-map generators that the test files share, and the
matrix sum they are built with.

``tests/data/seeded-generators.jsonl`` pins their draws byte for byte,
so a change to either shows there.
"""

import functools

from hopfchains.chains import ChainMap, _Matrix, _product, eye, mat


def random_graded_map(rng, X, Y, shift=0):
    "Random degree-`shift` family of matrices X_n -> Y_{n+shift}, entries in [-2, 2]."
    blocks = {}
    for n in X.degrees():
        rows, cols = Y.rank(n + shift), X.rank(n)
        if rows and cols:
            blocks[n] = mat([[rng.randint(-2, 2) for _ in range(cols)]
                             for _ in range(rows)])
    return blocks


def random_chain_map(rng, X, Y=None):
    """A random chain map X -> Y: a null-homotopic part dg + gd, plus a
    multiple of the identity when the endpoints coincide."""
    Y = Y if Y is not None else X
    g = random_graded_map(rng, X, Y, shift=1)
    lam = rng.choice((0, 1, -1, 2)) if Y is X else 0
    blocks = {}
    for n in set(X.degrees()) | set(Y.degrees()):
        parts = [_product(Y.diffs.get(n + 1), g.get(n)), _product(g.get(n - 1), X.diffs.get(n)),
                 lam * eye(X.rank(n)) if lam else None]
        parts = [b for b in parts if b is not None]
        if parts:
            blocks[n] = functools.reduce(matrix_sum, parts)
    return ChainMap(X, Y, blocks, check=False)


def matrix_sum(a, b):
    "The entrywise sum of two matrices of one shape."
    if a.shape != b.shape:
        raise ValueError("shapes %s and %s differ" % (a.shape, b.shape))
    return _Matrix([[x + y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)], a.ncols)
