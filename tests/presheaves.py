"""Random presheaves for the Cech tests and acceptance criterion 9."""

from adicspec.cech import FinitePresheaf, _subsets, function_presheaf
from adicspec.linalg import Matrix, mat_mul


def unimodular_pair(rng, d: int):
    """Random integer matrix with determinant +-1, together with its
    exact inverse, built from elementary row operations."""
    M, Minv = ([[int(i == j) for j in range(d)] for i in range(d)]
               for _ in range(2))
    for _ in range(2 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for col in range(d):
            M[i][col] += c * M[j][col]
        for row in range(d):
            Minv[row][j] -= c * Minv[row][i]
    return Matrix.from_rows(M, d), Matrix.from_rows(Minv, d)


def random_presheaf(rng, n: int, universe: int = 3) -> FinitePresheaf:
    """Random functorial presheaf: a function presheaf conjugated by
    random unimodular change-of-basis matrices on every subset."""
    point_sets = [frozenset(p for p in range(universe) if 10 * rng.random() < 7)
                  for _ in range(n)]
    base = function_presheaf(n, point_sets)
    basis = {S: unimodular_pair(rng, base.dims[S]) for S in _subsets(n)}
    res = {(S, Sp): mat_mul(basis[Sp][0], mat_mul(m, basis[S][1]))
           for (S, Sp), m in base.res.items()}
    return FinitePresheaf(n, base.dims, 1, res)
