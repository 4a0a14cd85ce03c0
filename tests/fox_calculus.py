"""Free differential calculus on free words: the test oracle for the closed
form rows of `quandlekit.fox.twisted_matrix`.

Free words are freely reduced tuples of (generator, +-1); group-ring
elements map free words to integer coefficients.  The derivative rules are
  d(x_i)/d(x_i) = 1,   d(x_j)/d(x_i) = 0  (j != i),
  d(uv) = d(u) + u d(v),   d(w^-1) = -w^-1 d(w).
"""

from quandlekit.errors import InputError


def reduce_word(word) -> tuple:
    out: list = []
    for g, e in word:
        if e not in (1, -1):
            raise InputError(f"exponent {e} must be +-1 (expand powers)")
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def word_mul(u, v) -> tuple:
    return reduce_word(tuple(u) + tuple(v))


def word_inv(u) -> tuple:
    return tuple((g, -e) for g, e in reversed(u))


def ring_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def ring_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = word_mul(wa, wb)
            s = out.get(w, 0) + ca * cb
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def fox_derivative(word, gen: int) -> dict:
    """d(word)/d(x_gen) as a group-ring element."""
    word = reduce_word(word)
    out: dict = {}
    prefix: tuple = ()
    for g, e in word:
        if e == 1:
            if g == gen:
                out = ring_add(out, {prefix: 1})
            prefix = word_mul(prefix, ((g, 1),))
        else:
            prefix = word_mul(prefix, ((g, -1),))
            if g == gen:
                out = ring_add(out, {prefix: -1})
    return out
