"""Seeded session texts for the four benchmark workloads.

Every generator takes a seed and returns a list of (name, text) pairs.
The same seed gives the same texts; the program under test only ever
sees these texts.  Only the corpus workload reads reeslab, for the
bundled session texts.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

VARIABLES = ("x", "y", "z", "w")

# catalogue sizes, so that one repetition takes 5 to 10 s on a 2-core
# machine.  Each catalogue is drawn once from its family; the seed only
# changes what leaves the cost alone, because fresh draws per seed are
# heavy-tailed in time.  README.md gives the bounds and why they exist.
REES_PAIRS = 16
GROEBNER_SESSIONS = 6
PRIME = 32003


def _exp_str(e):
    parts = []
    for v, k in zip(VARIABLES, e):
        if k == 1:
            parts.append(v)
        elif k > 1:
            parts.append(f"{v}^{k}")
    return "*".join(parts) or "1"


def _minimal(exps):
    exps = sorted(set(exps), key=lambda e: (sum(e), e))
    keep = []
    for e in exps:
        if not any(all(a <= b for a, b in zip(k, e)) for k in keep):
            keep.append(e)
    return keep


def _degree_monomials(nvars, d):
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def rees_pair(rng):
    """nvars and the exponent lists A, B: A minimal, B = part of A plus A·m^c."""
    nv = rng.choice((2, 3))
    while True:
        gens = []
        for _ in range(rng.randint(1, 4)):
            e = [0] * nv
            for _ in range(rng.randint(1, 3)):
                e[rng.randrange(nv)] += 1
            gens.append(tuple(e))
        a = _minimal(gens)
        if a:
            break
    keep = [e for e in a if rng.random() < 0.6]
    c = rng.randrange(1, 3)
    shifted = [
        tuple(x + y for x, y in zip(g, s))
        for g in a
        for s in _degree_monomials(nv, c)
    ]
    b = _minimal(keep + shifted)
    return nv, a, b


def _ring_line(nv, field="q"):
    return f"ring {field}[{','.join(VARIABLES[:nv])}]"


def _rees_text(nv, a, b):
    return "\n".join(
        [
            _ring_line(nv),
            "ideal A = " + ", ".join(_exp_str(e) for e in a),
            "ideal B = " + ", ".join(_exp_str(e) for e in b),
            "task length A B",
            "task reduction A B nmax=8",
            "task rees A B nrange=1..6",
            "",
        ]
    )


def rees_catalogue():
    """The fixed pairs every seed presents: (name, nvars, A, B)."""
    rng = random.Random("rees-monomial")
    return [(f"pair{i:02d}", *rees_pair(rng)) for i in range(REES_PAIRS)]


def rees_monomial(seed):
    """The catalogue pairs in a seeded order, generators shuffled."""
    rng = random.Random(f"rees-monomial/{seed}")
    out = []
    for name, nv, a, b in rees_catalogue():
        a, b = list(a), list(b)
        rng.shuffle(a)
        rng.shuffle(b)
        out.append((name, _rees_text(nv, a, b)))
    rng.shuffle(out)
    return out


def _coeff(rng):
    return rng.choice((1, 2, 3)) * rng.choice((1, -1))


def _poly_str(terms):
    out = ""
    for c, e in terms:
        mono = _exp_str(e)
        mag = abs(c)
        body = mono if mag == 1 else f"{mag}*{mono}"
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def groebner_ideal(rng):
    """nvars, the quadrics of J, and the binomial that I adds to J."""
    nv = rng.choice((3, 4))
    quads = _degree_monomials(nv, 2)
    polys = []
    for _ in range(rng.randint(2, 3)):
        support = rng.sample(quads, rng.randint(2, 3))
        polys.append([(_coeff(rng), e) for e in support])
    binomial = [(_coeff(rng), e) for e in rng.sample(quads, 2)]
    return nv, polys, binomial


def groebner_text(nv, polys, binomial, field="q"):
    names = [f"g{i + 1}" for i in range(len(polys))]
    gens = [_poly_str(p) for p in polys]
    lines = [_ring_line(nv, field)]
    lines += [f"poly {n} = {g}" for n, g in zip(names, gens)]
    lines.append("ideal J = " + ", ".join(gens))
    lines.append("ideal I = " + ", ".join(gens + [_poly_str(binomial)]))
    lines += [
        "task spread J",
        "task grade J",
        "task dseq " + " ".join(names),
        "task radcolon I J nmax=2",
        "task reduction I J nmax=2",
        "",
    ]
    return "\n".join(lines)


def groebner_catalogue():
    """The fixed ideals every seed presents: (name, nvars, J, binomial)."""
    rng = random.Random("groebner")
    return [
        (f"ideal{i:02d}", *groebner_ideal(rng))
        for i in range(GROEBNER_SESSIONS)
    ]


def _flip(terms, signs):
    """Apply the substitution x_i -> signs[i]·x_i to a list of terms."""
    out = []
    for c, e in terms:
        for s, k in zip(signs, e):
            if s < 0 and k % 2:
                c = -c
        out.append((c, e))
    return out


def groebner_q(seed):
    """The catalogue ideals in a seeded order, each under a seeded sign
    change of its variables; the answers checked on every seed are
    invariant under that change."""
    rng = random.Random(f"groebner/{seed}")
    out = []
    for name, nv, polys, binomial in groebner_catalogue():
        signs = [rng.choice((1, -1)) for _ in range(nv)]
        polys = [_flip(p, signs) for p in polys]
        out.append((name, groebner_text(nv, polys, _flip(binomial, signs))))
    rng.shuffle(out)
    return out


def groebner_fp(seed):
    """The groebner-q texts with the field swapped to GF(32003)."""
    return [
        (name, text.replace("ring q[", f"ring f<{PRIME}>[", 1))
        for name, text in groebner_q(seed)
    ]


def corpus(seed):
    """The bundled corpus, in name order; it does not depend on the seed."""
    from reeslab.corpus import CORPUS

    return [(n, CORPUS[n]) for n in sorted(CORPUS)]


WORKLOADS = {
    "corpus": corpus,
    "rees-monomial": rees_monomial,
    "groebner-q": groebner_q,
    "groebner-fp": groebner_fp,
}
