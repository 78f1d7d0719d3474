import random
from fractions import Fraction

import pytest

from jordanscope.algebra import (
    EntrySyntaxError,
    GaussianRational,
    GR_I,
    GR_ONE,
    MonicPoly,
    MultiPoly,
    UniPoly,
    char_poly,
    derivative,
    gcd_monic,
    gcd_squarefree_oracle,
    mp_gcd,
    parse_entry,
    subresultant_prs,
)
from jordanscope.algebra.matrices import as_matrix
from jordanscope.algebra.unipoly import divmod_field, pseudo_divmod

GR = GaussianRational


def mat_mul(a, b):
    return as_matrix(a) @ as_matrix(b)


def gr(a, b=0):
    return GR(Fraction(a), Fraction(b))


# ---------------------------------------------------------------------------
# GaussianRational


def test_gaussian_rational_field_ops():
    a = gr(3, 2)
    b = gr(-1, Fraction(1, 2))
    assert a + b == gr(2, Fraction(5, 2))
    assert a * b == gr(-4, Fraction(-1, 2))
    assert (a / b) * b == a
    assert a - a == gr(0)
    assert GR_I * GR_I == gr(-1)
    assert a**0 == GR_ONE
    assert a**3 == a * a * a
    assert a ** (-1) == GR_ONE / a


def test_gaussian_rational_exactness():
    third = GR(Fraction(1, 3))
    assert third + third + third == GR_ONE
    assert hash(gr(2, 0)) == hash(gr(2))
    assert complex(gr(1, 2)) == 1 + 2j


# ---------------------------------------------------------------------------
# UniPoly / derivative


def test_derivative_power_rule():
    # lam^2 -> 2 lam
    p = UniPoly([gr(0), gr(0), gr(1)])
    assert derivative(p) == UniPoly([gr(0), gr(2)])


def test_derivative_zero_polynomial():
    assert derivative(UniPoly.zero()).is_zero()


def test_derivative_with_fixed_parameter():
    # lam^3 - c*lam at c = 5: derivative 3 lam^2 - 5
    c = gr(5)
    p = UniPoly([gr(0), -c, gr(0), gr(1)])
    assert derivative(p) == UniPoly([-c, gr(0), gr(3)])


def test_derivative_drops_degree_by_one():
    rng = random.Random(7)
    for _ in range(20):
        deg = rng.randint(1, 8)
        coeffs = [gr(rng.randint(-5, 5)) for _ in range(deg)] + [gr(1)]
        p = UniPoly(coeffs)
        assert derivative(p).degree == p.degree - 1


def test_divmod_field_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        a = UniPoly([gr(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))])
        b = UniPoly([gr(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        q, r = divmod_field(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


# ---------------------------------------------------------------------------
# gcd_squarefree_oracle


def test_oracle_single_root():
    p = MonicPoly([gr(0), gr(0), gr(1)])  # lam^2
    m, q0 = gcd_squarefree_oracle(p)
    assert m == 1
    assert q0 == UniPoly([gr(0), gr(1)])


def test_oracle_distinct_roots():
    p = MonicPoly([gr(-1), gr(0), gr(1)])  # lam^2 - 1
    m, q0 = gcd_squarefree_oracle(p)
    assert m == 2
    assert q0 == p


def test_oracle_mixed_multiplicities():
    # (lam-1)^2 (lam+2) expanded; square-free part (lam-1)(lam+2)
    p = MonicPoly(UniPoly.from_roots([gr(1), gr(1), gr(-2)], one=GR_ONE).coeffs)
    m, q0 = gcd_squarefree_oracle(p)
    assert m == 2
    expect = UniPoly.from_roots([gr(1), gr(-2)], one=GR_ONE)
    assert q0 == expect


def test_oracle_rejects_non_monic_and_constant():
    with pytest.raises(ValueError):
        gcd_squarefree_oracle(UniPoly([gr(1), gr(2)]))  # lc 2
    with pytest.raises(ValueError):
        gcd_squarefree_oracle(UniPoly([gr(5)]))  # degree 0


def test_oracle_degree_law_on_random_factored_polys():
    # deg gcd(p, p') + m = deg p, m counted from the construction
    rng = random.Random(11)
    for _ in range(50):
        n_distinct = rng.randint(1, 4)
        roots = []
        used = set()
        while len(used) < n_distinct:
            r = rng.randint(-6, 6)
            if r not in used:
                used.add(r)
        mults = {r: rng.randint(1, 3) for r in used}
        for r, k in mults.items():
            roots.extend([gr(r)] * k)
        p = MonicPoly(UniPoly.from_roots(roots, one=GR_ONE).coeffs)
        m, q0 = gcd_squarefree_oracle(p)
        assert m == n_distinct
        g = gcd_monic(p, derivative(p))
        assert g.degree + m == p.degree
        # q0 divides p exactly
        q, r = divmod_field(p, q0)
        assert r.is_zero()


# ---------------------------------------------------------------------------
# MultiPoly ring behaviour


def test_multipoly_ring_laws_random():
    rng = random.Random(23)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            expo = (rng.randint(0, 3), rng.randint(0, 3))
            terms[expo] = gr(rng.randint(-4, 4), rng.randint(-2, 2))
        return MultiPoly(2, terms)

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + MultiPoly.zero(2) == a
        assert a * MultiPoly.one(2) == a


def test_multipoly_no_stored_zero_coefficients():
    p = MultiPoly(2, {(1, 0): gr(1)}) - MultiPoly(2, {(1, 0): gr(1)})
    assert p.terms == {}
    assert p.is_zero()


def test_multipoly_exact_div():
    z = MultiPoly.variable(2, 0)
    w = MultiPoly.variable(2, 1)
    prod = (z + w) * (z - w)
    assert prod.exact_div(z + w) == z - w
    with pytest.raises(ValueError):
        (z * w + MultiPoly.one(2)).exact_div(z)


def test_multipoly_eval_matches_exact_eval():
    rng = random.Random(5)
    z = MultiPoly.variable(3, 0)
    w = MultiPoly.variable(3, 1)
    u = MultiPoly.variable(3, 2)
    p = z * z * w - u * w.scale(3) + MultiPoly.constant(3, gr(2, 1))
    for _ in range(10):
        pt = [gr(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
        exact = p.eval_exact(pt)
        approx = p.eval_complex([complex(x) for x in pt])
        assert abs(complex(exact) - approx) < 1e-9


def test_multipoly_string_roundtrip():
    z = MultiPoly.variable(2, 0)
    w = MultiPoly.variable(2, 1)
    p = z * w.scale(2) - z * z + MultiPoly.constant(2, gr(3, -1))
    text = p.to_string(["z", "w"])
    assert parse_entry(text, ["z", "w"]) == p


# ---------------------------------------------------------------------------
# mp_gcd / subresultant PRS


def test_mp_gcd_univariate_content():
    z = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    f = (z - one) * (z - one) * (z + one)
    g = (z - one) * z
    assert mp_gcd(f, g) == z - one


def test_mp_gcd_bivariate():
    z = MultiPoly.variable(2, 0)
    w = MultiPoly.variable(2, 1)
    common = z * w + MultiPoly.one(2)
    f = common * (z + w)
    g = common * (z - w)
    got = mp_gcd(f, g)
    assert got == common  # leading coefficient already 1


def test_mp_gcd_coprime_is_one():
    z = MultiPoly.variable(2, 0)
    w = MultiPoly.variable(2, 1)
    assert mp_gcd(z, w) == MultiPoly.one(2)


def test_subresultant_prs_agrees_with_field_gcd():
    # coefficients in QQ(i) viewed through constant MultiPolys in 1 var
    rng = random.Random(17)
    z = MultiPoly.variable(1, 0)
    for _ in range(15):
        d1 = rng.randint(1, 4)
        d2 = rng.randint(1, 3)
        shared = rng.randint(0, 2)

        def rand_up(d):
            c = [gr(rng.randint(-3, 3)) for _ in range(d)] + [gr(1)]
            return UniPoly(c)

        f0, g0, s0 = rand_up(d1), rand_up(d2), rand_up(shared)
        f = f0 * s0
        g = g0 * s0
        expect = gcd_monic(f, g)
        fz = UniPoly([MultiPoly.constant(1, c) for c in f.coeffs])
        gz = UniPoly([MultiPoly.constant(1, c) for c in g.coeffs])
        prs = subresultant_prs(fz, gz)
        last = prs[-1]
        assert last.degree == expect.degree


def test_pseudo_divmod_identity():
    z = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    a = UniPoly([one, z, z * z, one])  # 1 + z*l + z^2*l^2 + l^3
    b = UniPoly([z, one + z])
    q, r = pseudo_divmod(a, b)
    d = a.degree - b.degree
    lead = b.leading
    scale = lead
    for _ in range(d):
        scale = scale * lead
    lhs = UniPoly([c * scale for c in a.coeffs])
    assert lhs == q * b + r


# ---------------------------------------------------------------------------
# parse_entry, with the direct evaluator as oracle


def direct_eval(text, params, values):
    """Independent recursive-descent evaluator over the same grammar."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(int(text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            toks.append(ch)
            i += 1
    toks.append(None)
    env = dict(zip(params, values))
    env["i"] = 1j
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def expr():
        v = term()
        while peek() in ("+", "-"):
            op = take()
            v = v + term() if op == "+" else v - term()
        return v

    def term():
        v = factor()
        while peek() == "*":
            take()
            v = v * factor()
        return v

    def factor():
        v = base()
        if peek() == "^":
            take()
            return v ** take()
        return v

    def base():
        t = take()
        if isinstance(t, int):
            return complex(t)
        if isinstance(t, str) and t not in "()-+*^":
            return complex(env[t])
        if t == "(":
            v = expr()
            take()  # ')'
            return v
        if t == "-":
            return -factor()
        raise AssertionError(t)

    return expr()


def test_parse_simple_product():
    p = parse_entry("z*w", ["z", "w"])
    assert p == MultiPoly(2, {(1, 1): gr(1)})


def test_parse_negated_power():
    p = parse_entry("-z^2", ["z", "w"])
    assert p == MultiPoly(2, {(2, 0): gr(-1)})


def test_parse_binomial_cancellation():
    p = parse_entry("(z+w)^2 - z^2 - w^2", ["z", "w"])
    assert p == MultiPoly(2, {(1, 1): gr(2)})


@pytest.mark.parametrize(
    "text",
    [
        "z*w - 3*(z - 2*w)^3 + i*w^2",
        "-(-z)^3 + 7",
        "i*i + 1",
        "2^3 + z",
        "(z + i*w)*(z - i*w)",
    ],
)
def test_parse_matches_direct_evaluator(text):
    rng = random.Random(hash(text) & 0xFFFF)
    poly = parse_entry(text, ["z", "w"])
    for _ in range(100):
        vals = [
            complex(Fraction(rng.randint(-8, 8), rng.randint(1, 5)))
            for _ in range(2)
        ]
        want = direct_eval(text, ["z", "w"], vals)
        got = poly.eval_complex(vals)
        assert abs(want - got) < 1e-9 * (1 + abs(want))


def test_parse_exact_agreement_at_rational_points():
    rng = random.Random(99)
    text = "(z+w)^3 - z^3 - w^3 - 3*z*w*(z+w)"
    poly = parse_entry(text, ["z", "w"])
    assert poly.is_zero()
    for _ in range(100):
        pt = [gr(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2)]
        assert poly.eval_exact(pt) == gr(0)


def test_parse_error_reports_position():
    with pytest.raises(EntrySyntaxError) as err:
        parse_entry("z + ", ["z"])
    assert err.value.position == 4
    with pytest.raises(EntrySyntaxError):
        parse_entry("z @ w", ["z", "w"])


def test_parse_unknown_identifier():
    with pytest.raises(EntrySyntaxError) as err:
        parse_entry("z*q", ["z", "w"])
    assert "q" in str(err.value)


def test_parse_non_integer_exponent():
    with pytest.raises(EntrySyntaxError) as err:
        parse_entry("z^w", ["z", "w"])
    assert "exponent" in str(err.value)
    with pytest.raises(EntrySyntaxError):
        parse_entry("z^(2)", ["z"])


# ---------------------------------------------------------------------------
# char_poly


def det_minor_expansion(rows):
    """Cofactor-expansion determinant: the independent oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_minor_expansion(sub)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def test_char_poly_identity():
    p = char_poly([[gr(1), gr(0)], [gr(0), gr(1)]])
    assert p == UniPoly([gr(1), gr(-2), gr(1)])


def test_char_poly_companion_cell():
    # [[0,1],[zeta,0]] at zeta = 4: lam^2 - 4
    p = char_poly([[gr(0), gr(1)], [gr(4), gr(0)]])
    assert p == UniPoly([gr(-4), gr(0), gr(1)])


def test_char_poly_matches_minor_expansion_oracle():
    rng = random.Random(41)
    for _ in range(8):
        n = 4
        a = [[gr(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        got = char_poly(a)
        # oracle: det(lam*I - A) over the exact polynomial ring
        lam = UniPoly([gr(0), gr(1)])
        entries = [
            [
                (lam if i == j else UniPoly.zero()) - UniPoly([a[i][j]])
                for j in range(n)
            ]
            for i in range(n)
        ]
        want = det_minor_expansion(entries)
        assert got == want


def test_char_poly_similarity_invariance():
    rng = random.Random(4242)
    for _ in range(6):
        n = 4
        a = [[gr(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        # unimodular T from elementary shears with known inverse
        t = as_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        tinv = as_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            c = gr(rng.randint(-2, 2))
            shear = [[gr(1) if p == q else gr(0) for q in range(n)] for p in range(n)]
            shear[i][j] = c
            unshear = [[gr(1) if p == q else gr(0) for q in range(n)] for p in range(n)]
            unshear[i][j] = -c
            t = mat_mul(t, shear)
            tinv = mat_mul(unshear, tinv)
        conj = mat_mul(t, mat_mul(a, tinv))
        assert char_poly(conj) == char_poly(a)


def test_char_poly_symbolic_family():
    # [[zeta,1],[0,-zeta]] -> lam^2 - zeta^2
    z = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    zero = MultiPoly.zero(1)
    p = char_poly([[z, one], [zero, -z]])
    assert p.coeffs[2] == one
    assert p.coeffs[1] == zero
    assert p.coeffs[0] == -(z * z)


def test_char_poly_coefficient_norm_bound():
    # |P_mu| <= n! * ||A||^n at sample points (floating path)
    import numpy as np

    rng = random.Random(8)
    import math

    for _ in range(10):
        n = 4
        a = np.array(
            [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)] for _ in range(n)]
        )
        p = char_poly(a.tolist())
        norm = max(1.0, float(np.linalg.norm(a, 2)))
        for c in p.coeffs[:-1]:
            assert abs(c) <= math.factorial(n) * norm**n + 1e-9
