"""Reference polytope oracles for the tests, independent of qhull.

`loop_vertices` intersects every n-subset of facets, one tuple at a time;
`face_volume` sums cones over the facets, recursing through the faces.
The library enumerates vertices with qhull, and so do the benchmark's
references, so these are what the tests compare the library against.
"""

import itertools

import numpy as np


def loop_vertices(A, b):
    """Vertices of {y : Ay <= b}: one det, solve and product per facet tuple."""
    out = []
    for idx in itertools.combinations(range(A.shape[0]), A.shape[1]):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ v <= b + 1e-9) and not any(np.linalg.norm(v - w) < 1e-9 for w in out):
            out.append(v)
    return out


def _affine_rank(P):
    return np.linalg.matrix_rank(P[1:] - P[0], tol=1e-9) if len(P) > 1 else 0


def _volume(V, face, dim, facets):
    """dim-volume of conv(V[face]), whose faces are its meets with the facets."""
    P = V[face]
    if dim == 1:
        return float(np.linalg.norm(P.max(axis=0) - P.min(axis=0)))
    centre = P.mean(axis=0)
    total, seen = 0.0, set()
    for facet in facets:
        sub = tuple(sorted(set(face) & facet))
        if sub in seen or len(sub) < dim or _affine_rank(V[list(sub)]) != dim - 1:
            continue
        seen.add(sub)
        # height of the cone: distance from the centre to the sub-face's affine hull
        Q = V[list(sub)]
        basis = np.linalg.svd(Q[1:] - Q[0])[2][: dim - 1]
        w = centre - Q[0]
        height = float(np.linalg.norm(w - basis.T @ (basis @ w)))
        total += height * _volume(V, list(sub), dim - 1, facets) / dim
    return total


def face_volume(A, b):
    """Volume of the bounded, nonempty polytope {y : Ay <= b}."""
    V = np.array(loop_vertices(A, b))
    facets = [frozenset(np.flatnonzero(np.abs(V @ a - bi) <= 1e-9 * max(1.0, abs(bi))).tolist())
              for a, bi in zip(A, b)]
    return _volume(V, list(range(len(V))), A.shape[1], facets)
