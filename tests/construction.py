"""Exact closure oracle for group construction.

The library generates the positive roots in simple-root coordinates over Z
or Z[phi] and fills the reflection table by conjugation.  This module builds
the same tables the direct way, in the ambient Q(sqrt 5) coordinates of
``rootdata``: the simple roots are closed under the simple reflections,
every reflection is applied to every root through the invariant form, and
each Coxeter number m_ij is the order of s_i s_j.
"""

from dualcox import rootdata
from dualcox.algebra import Scalar, vec_dot, vec_neg, vector
from dualcox.coxeter import CoxeterDescriptor


def _ambient_simples_and_form(descriptor):
    """Simple roots in the block-diagonal ambient space, and the form (or None)."""
    blocks = [rootdata.simple_root_block(f, n) for f, n in descriptor.components]
    dim = sum(b[0] for b in blocks)
    simples = []
    form = [[Scalar(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    offset = 0
    for bdim, roots, block_form in blocks:
        for r in roots:
            simples.append(vector([0] * offset + list(r) + [0] * (dim - offset - bdim)))
        if block_form is not None:
            for i in range(bdim):
                for j in range(bdim):
                    form[offset + i][offset + j] = block_form[i][j]
        offset += bdim
    if all(b[2] is None for b in blocks):
        return simples, None
    return simples, form


def _compose(x, y):
    """Signed root action of x*y, images encoded as (index << 1) | sign."""
    return tuple(x[e >> 1] ^ (e & 1) for e in y)


def _order(x):
    identity = tuple(j << 1 for j in range(len(x)))
    k, y = 1, x
    while y != identity:
        y = _compose(y, x)
        k += 1
    return k


def reference_tables(type_string):
    """(roots, simple_ids, reflection images, Coxeter matrix) of a linear type."""
    simples, form = _ambient_simples_and_form(CoxeterDescriptor.parse(type_string))

    def pair(u, v):
        if form is None:
            return vec_dot(u, v)
        return vec_dot(u, tuple(vec_dot(row, v) for row in form))

    def reflect(v, alpha, norm):
        c = pair(alpha, v) * 2 / norm
        return tuple(x - c * y for x, y in zip(v, alpha))

    pos = set(simples)
    frontier = list(simples)
    while frontier:
        grown = []
        for beta in frontier:
            for alpha in simples:
                if beta == alpha:
                    continue  # would flip to the negative root
                img = reflect(beta, alpha, pair(alpha, alpha))
                if img not in pos:
                    pos.add(img)
                    grown.append(img)
        frontier = grown
    roots = tuple(sorted(pos))
    index = {r: i for i, r in enumerate(roots)}
    images = []
    for alpha in roots:
        norm = pair(alpha, alpha)
        row = []
        for beta in roots:
            img = reflect(beta, alpha, norm)
            k = index.get(img)
            row.append(k << 1 if k is not None else (index[vec_neg(img)] << 1) | 1)
        images.append(tuple(row))
    simple_ids = tuple(index[a] for a in simples)
    coxeter_matrix = tuple(
        tuple(1 if a == b else _order(_compose(images[a], images[b]))
              for b in simple_ids)
        for a in simple_ids
    )
    return roots, simple_ids, tuple(images), coxeter_matrix
