"""Independent keyed oracle: homomorphisms of 2-bridge knot and link groups
to G, from Schubert's normal form (H. Schubert, "Knoten mit zwei Brücken",
Math. Z. 65, 1956) and Riley's longitude (R. Riley, "Parabolic
representations of knot groups, I", Proc. London Math. Soc. 24, 1972).

Conventions.  For b(alpha, beta) with beta odd and 0 < beta < alpha, let
e_i = (-1)^floor(i beta / alpha) for i = 1..alpha-1, and let w be the word
a^e_1 b^e_2 a^e_3 ..., alternating a and b and starting with a.  Then

- a knot (alpha odd) has the group <a, b | w a = b w>;
- a link (alpha even) has the group <a, b | w b = b w>;
- a knot's longitude at the meridian a is lambda = w* w a^(-2 sigma), with
  w* the word w reversed and sigma the sum of the e_i.

Words are read left to right with x y = G.table[x][y].  So a homomorphism
is a pair (a, b) of G^2 that satisfies the relation: |G|^2 evaluations of
words of length alpha - 1, with no braid, no Artin action and no
longitude_image.

Three traps, each of which gives wrong answers while looking plausible:

- beta must be odd.  With beta even the counts differ on S4 or S5: 4_1 as
  5/2, 5_2 as 7/2 and 6_1 as 9/2.
- w starts with a.  Reading it as starting with b, with the relation
  a w = w b, gives the right counts, but a lambda that fails to commute
  with a on S4 and S5.
- A link's relation is w b = b w.  With w a = a w the counts are wrong on
  every group tried (the Hopf link over S3 gives 36, not 18).
"""

from collections import Counter


def two_bridge_word(alpha, beta):
    """w for b(alpha, beta) as (generator, exponent) letters, generator 0
    for a and 1 for b, exponent e_i = (-1)^floor(i beta / alpha)."""
    if not (0 < beta < alpha and beta % 2):
        raise ValueError(f"b({alpha}, {beta}) needs beta odd and 0 < beta < alpha")
    return tuple((1 - i % 2, (-1) ** (i * beta // alpha)) for i in range(1, alpha))


def _evaluate(word, gens, G):
    """The product of the letters of word, left to right, at the images
    gens of a and b."""
    mul, inv = G.table, G.inv
    acc = G.id
    for g, e in word:
        x = gens[g]
        acc = mul[acc][x if e > 0 else inv[x]]
    return acc


def _homs(alpha, beta, G):
    """Every (a, b, w) with (a, b) a homomorphism of b(alpha, beta)'s group
    to G and w the value of its word there."""
    word = two_bridge_word(alpha, beta)
    mul = G.table
    for a in G.elements():
        for b in G.elements():
            w = _evaluate(word, (a, b), G)
            # a knot's relation w a = b w, a link's w b = b w
            if mul[w][a if alpha % 2 else b] == mul[b][w]:
                yield a, b, w


def two_bridge_count(alpha, beta, G):
    """|Hom(pi, G)| for the group pi of b(alpha, beta)."""
    return sum(1 for _ in _homs(alpha, beta, G))


def pair_orbit(G, x, h):
    """The smallest pair in the orbit of (x, h) under conjugation by G."""
    mul, inv = G.table, G.inv
    return min(
        (mul[mul[g][x]][inv[g]], mul[mul[g][h]][inv[g]]) for g in G.elements()
    )


def two_bridge_keyed(alpha, beta, G):
    """The homomorphisms of the knot b(alpha, beta) (alpha odd) counted by
    the pair orbit of (a, lambda), lambda = w* w a^(-2 sigma) being Riley's
    longitude at the meridian a."""
    if alpha % 2 == 0:
        raise ValueError(f"b({alpha}, {beta}) is a link; Riley's longitude is a knot's")
    word = two_bridge_word(alpha, beta)
    sigma = sum(e for _, e in word)
    mul, inv = G.table, G.inv
    counts = Counter()
    for a, b, w in _homs(alpha, beta, G):
        lam = mul[_evaluate(word[::-1], (a, b), G)][w]
        # a^(-2 sigma): |2 sigma| letters a^(-sign sigma)
        step = inv[a] if sigma > 0 else a
        for _ in range(2 * abs(sigma)):
            lam = mul[lam][step]
        counts[pair_orbit(G, a, lam)] += 1
    return counts
