"""Exact closure oracle for group construction.

The library generates the positive roots in simple-root coordinates over Z
or Z[phi] and fills the reflection table by conjugation.  This module builds
the same tables the direct way, in the ambient Q(sqrt 5) coordinates of
``rootdata``: its doubled integer simple roots are halved into ``Scalar``
vectors, an H block's form is built from its Coxeter orders with -cos(pi/m),
the simple roots are closed under the simple reflections, every reflection
is applied to every root through the invariant form, the roots are sorted
as ``Scalar`` tuples, and each Coxeter number m_ij is the order of s_i s_j.
"""

from fractions import Fraction

from dualcox import rootdata
from dualcox.algebra import Scalar, vec_dot, vec_neg, vector
from dualcox.coxeter import CoxeterDescriptor

# -cos(pi/m); cos(pi/5) = (1 + sqrt5)/4
_NEG_COS = {2: Scalar(0), 3: Scalar(Fraction(-1, 2)),
            5: Scalar(Fraction(-1, 4), Fraction(-1, 4))}


def _ambient_simples_and_form(descriptor):
    """Simple roots in the block-diagonal ambient space, and the form (or None)."""
    blocks = [rootdata.simple_root_block(f, n) for f, n in descriptor.components]
    dim = sum(b[0] for b in blocks)
    simples = []
    form = [[Scalar(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    offset = 0
    for bdim, roots, orders in blocks:
        for r in roots:
            halved = [Fraction(x, 2) for x in r]
            simples.append(vector([0] * offset + halved + [0] * (dim - offset - bdim)))
        for (i, j), m in (orders or {}).items():
            form[offset + i][offset + j] = form[offset + j][offset + i] = _NEG_COS[m]
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

    def reflection(alpha):
        """v -> v - 2 (alpha, v) / (alpha, alpha) alpha, on the supports of
        alpha and of its covector (alpha, .)."""
        co = alpha if form is None else tuple(vec_dot(row, alpha) for row in form)
        co_terms = [(k, x * 2 / vec_dot(co, alpha)) for k, x in enumerate(co) if x]
        terms = [(k, y) for k, y in enumerate(alpha) if y]

        def reflect(v):
            c = sum((x * v[k] for k, x in co_terms), Scalar(0))
            if not c:
                return v
            img = list(v)
            for k, y in terms:
                img[k] -= c * y
            return tuple(img)
        return reflect

    pos = set(simples)
    frontier = list(simples)
    simple_reflections = [reflection(a) for a in simples]
    while frontier:
        grown = []
        for beta in frontier:
            for alpha, reflect in zip(simples, simple_reflections):
                if beta == alpha:
                    continue  # would flip to the negative root
                img = reflect(beta)
                if img not in pos:
                    pos.add(img)
                    grown.append(img)
        frontier = grown
    roots = tuple(sorted(pos))
    index = {r: i for i, r in enumerate(roots)}
    images = []
    for alpha in roots:
        reflect = reflection(alpha)
        row = []
        for beta in roots:
            img = reflect(beta)
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
