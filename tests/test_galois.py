"""Field tower tests with independently derived expected values."""

import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from matroidfrag import (
    DegreeCap,
    DivisionByZero,
    FieldElem,
    FieldMismatch,
    InvalidArgs,
    InvalidField,
    NotASubfield,
    embed,
    extend_field,
    field_from_tower,
    field_of_order,
    gen_random,
    is_in_subfield,
    is_irreducible,
    is_tower_prefix,
    make_prime_field,
    subfield_basis,
)
from matroidfrag.galois import PRIME_LIMIT

GF2 = make_prime_field(2)
GF3 = make_prime_field(3)
GF4 = extend_field(GF2, 2)
GF8 = extend_field(GF2, 3)
GF9 = extend_field(GF3, 2)
GF16_OVER_GF4 = extend_field(GF4, 2)
GF5 = make_prime_field(5)
GF16 = extend_field(GF2, 4)
GF27 = extend_field(GF3, 3)
GF256 = extend_field(GF2, 8)


def check_axioms(F):
    # exhaustive, so keep orders small
    elems = list(range(F.order))
    add, mul, neg = F.add_enc, F.mul_enc, F.neg_enc
    for a in elems:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert mul(a, 0) == 0
        assert add(a, neg(a)) == 0
        if a:
            assert mul(a, F.inv_enc(a)) == 1
    for a in elems:
        for b in elems:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
    for a in elems:
        for b in elems:
            for c in elems:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_axioms_small_orders():
    for q in (2, 3, 4, 5, 7, 8, 9):
        check_axioms(field_of_order(q))


def test_canonical_moduli_frozen():
    # lex-least monic irreducibles, constant term first, leading 1 last
    assert GF4.steps == ((2, (1, 1, 1)),)
    assert GF8.steps == ((3, (1, 0, 1, 1)),)
    assert GF9.steps == ((2, (1, 0, 1)),)
    assert GF16_OVER_GF4.steps == ((2, (1, 1, 1)), (2, (1, 2, 1)))


def _poly_mul(F, f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = F.add_enc(out[i + j], F.mul_enc(a, b))
    return tuple(out)


def _monic_polys(F, deg):
    for tail in product(range(F.order), repeat=deg):
        yield (*tail, 1)


def _poly_eval(F, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = F.add_enc(F.mul_enc(acc, x), c)
    return acc


def _poly_rem_is_zero(F, num, den):
    # True iff the monic polynomial den divides num exactly
    rem = list(num)
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(dd):
                if den[j]:
                    rem[i - dd + j] = F.sub_enc(rem[i - dd + j], F.mul_enc(c, den[j]))
    return not any(rem[:dd])


def is_irreducible_exhaustive(F, coeffs):
    """Reference test: no root in F (which settles degrees <= 3), then
    trial division by every monic polynomial of degree 2..deg//2."""
    k = len(coeffs) - 1
    if k == 1:
        return True
    if any(_poly_eval(F, coeffs, e) == 0 for e in range(F.order)):
        return False
    if k <= 3:
        return True
    for d in range(2, k // 2 + 1):
        for den in _monic_polys(F, d):
            if _poly_rem_is_zero(F, coeffs, den):
                return False
    return True


def _gauss_count(q, n):
    # monic irreducibles of degree n over GF(q): (1/n) sum mu(d) q^(n/d)
    def mu(d):
        out, r = 1, 2
        while d > 1:
            if d % r == 0:
                d //= r
                if d % r == 0:
                    return 0
                out = -out
            r += 1
        return out

    return sum(mu(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize(
    "F, max_deg",
    [(GF2, 6), (GF3, 5), (GF4, 3), (GF5, 3), (GF9, 2), (GF16_OVER_GF4, 2)],
    ids=["gf2", "gf3", "gf4", "gf5", "gf9", "gf16_over_gf4"],
)
def test_rabin_agrees_with_exhaustive(F, max_deg):
    for deg in range(1, max_deg + 1):
        found = 0
        for f in _monic_polys(F, deg):
            want = is_irreducible_exhaustive(F, f)
            assert is_irreducible(F, f) == want, f
            found += want
        assert found == _gauss_count(F.order, deg)


def test_moduli_irreducible_by_brute_force():
    # independent check: no monic factorization reproduces the modulus
    for F in (GF4, GF8, GF9, GF16_OVER_GF4):
        base = F.base
        k, modulus = F.steps[-1]
        for d in range(1, k):
            for g in _monic_polys(base, d):
                for h in _monic_polys(base, k - d):
                    assert _poly_mul(base, g, h) != modulus


def test_moduli_lex_least():
    for F in (GF4, GF8, GF9):
        base = F.base
        k, modulus = F.steps[-1]
        for cand in _monic_polys(base, k):
            if cand == modulus:
                break
            assert not is_irreducible_exhaustive(base, cand)
        assert is_irreducible_exhaustive(base, modulus)


def test_gf4_multiplication_table():
    # encodings 0, 1, w, w+1; w*w = w+1 under x^2+x+1
    assert GF4.mul_enc(2, 2) == 3
    assert GF4.mul_enc(2, 3) == 1
    assert GF4.mul_enc(3, 3) == 2
    assert GF4.add_enc(2, 3) == 1


def test_gf8_generator_relation():
    # modulus x^3 + x^2 + 1, so t^3 = t^2 + 1, encoded 4 + 1 = 5
    t = GF8.gen
    assert t.enc == 2
    assert (t * t * t).enc == 5
    assert (t * t * t + t * t + 1).enc == 0


def test_gf9_generator_relation():
    # modulus x^2 + 1, so t^2 = -1 = 2
    t = GF9.gen
    assert t.enc == 3
    assert (t * t).enc == 2
    assert GF9.add_enc(1, 2) == 0


def test_gf16_over_gf4_generator_relation():
    # modulus x^2 + w x + 1 over GF(4); t^2 = -(1 + w t) = 1 + w t
    F = GF16_OVER_GF4
    t = F.gen
    assert t.enc == 4
    w = embed(GF4.elem(2), F)
    assert t * t == F.one + w * t


def test_char_and_frobenius():
    for F in (GF4, GF8):
        for a in F.elements():
            assert (a + a).enc == 0
    for a in GF9.elements():
        assert (a + a + a).enc == 0
    # x -> x^p is additive
    for a in GF9.elements():
        for b in GF9.elements():
            assert (a + b) ** 3 == a**3 + b**3


def test_multiplicative_order():
    for F in (GF4, GF8, GF9, GF16_OVER_GF4):
        for a in F.elements():
            if a.enc:
                assert (a ** (F.order - 1)).enc == 1


def test_from_int_vs_elem():
    F5 = make_prime_field(5)
    assert F5.from_int(7).enc == 2
    assert F5.from_int(-1).enc == 4
    # from_int reduces mod p even in extensions; elem takes raw encodings
    assert GF4.from_int(2).enc == 0
    assert GF4.elem(2).enc == 2


def test_elem_encoding_range():
    with pytest.raises(InvalidArgs):
        GF4.elem(4)
    with pytest.raises(InvalidArgs):
        GF4.elem(-1)


def test_operator_coercion_and_mismatch():
    a = GF9.elem(5)
    assert (1 + a) == GF9.one + a
    assert (0 * a).enc == 0
    assert (a - a).enc == 0
    assert (a / a).enc == 1
    with pytest.raises(FieldMismatch):
        _ = a + GF3.one


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        GF4.inv_enc(0)
    with pytest.raises(ZeroDivisionError):
        _ = GF4.one / GF4.zero


def test_embedding_image_matches_frobenius_fixed_points():
    for sub, sup in ((GF2, GF4), (GF3, GF9), (GF4, GF16_OVER_GF4)):
        image = {embed(a, sup).enc for a in sub.elements()}
        fixed = {a.enc for a in sup.elements() if is_in_subfield(a, sub)}
        assert image == fixed
        assert len(image) == sub.order


def test_embedding_is_a_homomorphism():
    for sub, sup in ((GF2, GF4), (GF3, GF9), (GF4, GF16_OVER_GF4)):
        for a in sub.elements():
            for b in sub.elements():
                assert embed(a + b, sup) == embed(a, sup) + embed(b, sup)
                assert embed(a * b, sup) == embed(a, sup) * embed(b, sup)


def test_embed_requires_tower_prefix():
    assert is_tower_prefix(GF2, GF8)
    assert not is_tower_prefix(GF4, GF8)
    with pytest.raises(NotASubfield):
        embed(GF4.one, GF8)
    with pytest.raises(NotASubfield):
        is_in_subfield(GF8.gen, GF4)


def test_subfield_basis():
    assert tuple(e.enc for e in subfield_basis(GF4, GF2)) == (1, 2)
    assert tuple(e.enc for e in subfield_basis(GF16_OVER_GF4, GF4)) == (1, 4)
    assert tuple(e.enc for e in subfield_basis(GF9, GF9)) == (1,)
    with pytest.raises(NotASubfield):
        subfield_basis(GF16_OVER_GF4, GF2)


def test_subfield_basis_spans():
    # every element of GF(16) is a0 + a1 t with a0, a1 in GF(4)
    F = GF16_OVER_GF4
    one, t = subfield_basis(F, GF4)
    seen = set()
    for a0 in GF4.elements():
        for a1 in GF4.elements():
            seen.add((embed(a0, F) * one + embed(a1, F) * t).enc)
    assert seen == set(range(16))


def test_field_of_order():
    assert field_of_order(7).p == 7
    assert field_of_order(7).steps == ()
    assert field_of_order(8) is GF8
    assert field_of_order(9) is GF9
    for bad in (0, 1, 6, 12):
        with pytest.raises(InvalidField):
            field_of_order(bad)


def test_field_of_order_stops_trial_division_at_the_prime_limit():
    # a characteristic above PRIME_LIMIT is refused without dividing by
    # every integer below q; 2^61 - 1 is prime
    for q in (PRIME_LIMIT + 1, 10000019, 2**61 - 1):
        t0 = time.perf_counter()
        with pytest.raises(InvalidField, match="no prime factor up to 65536"):
            field_of_order(q)
        assert time.perf_counter() - t0 < 0.5
    t0 = time.perf_counter()
    with pytest.raises(InvalidField):
        gen_random("relax", seed=0, q=2**61 - 1)
    assert time.perf_counter() - t0 < 0.5
    assert field_of_order(65521).p == 65521  # the largest prime below the limit
    with pytest.raises(InvalidField, match="not a prime power"):
        field_of_order(2 * (2**61 - 1))


def test_interning():
    assert extend_field(GF2, 2) is GF4
    assert field_from_tower(2, [(2, (1, 1, 1))]) is GF4
    assert extend_field(GF4, 1) is GF4


def test_tower_validation():
    with pytest.raises(InvalidField):
        field_from_tower(2, [(2, (1, 1))])  # too few coefficients
    with pytest.raises(InvalidField):
        field_from_tower(2, [(2, (1, 1, 0))])  # not monic
    with pytest.raises(InvalidField):
        field_from_tower(2, [(2, (0, 0, 1))])  # x^2 is reducible
    with pytest.raises(InvalidField):
        make_prime_field(4)


def test_bools_in_field_data_are_refused():
    # a bool is an int, but the instance parser refuses it: an element,
    # a modulus coefficient, a tower degree or an extension degree
    # holding one would not round-trip through JSON
    for value in (True, False):
        with pytest.raises(InvalidArgs):
            FieldElem(GF3, value)
        with pytest.raises(InvalidArgs):
            GF4.elem(value)
        with pytest.raises(InvalidArgs):
            extend_field(GF3, value)
        with pytest.raises(InvalidField):
            field_from_tower(3, [(2, (value, 0, True))])
        with pytest.raises(InvalidField):
            field_from_tower(3, [(2, (1, 0, 1)), (value, (0, 1))])
    with pytest.raises(InvalidArgs):
        FieldElem(GF3, 1.0)


def test_refused_bool_tower_leaves_gf9_round_tripping():
    # in a fresh interpreter, where nothing has built GF(9) yet: the
    # refused tower is not interned, so the canonical GF(9) built next
    # is written with ints and parses back
    src = Path(__file__).resolve().parent.parent / "src"
    code = """if True:
        import json
        from matroidfrag import InvalidField, extend_field, field_from_tower, make_prime_field
        from matroidfrag.instances import field_to_json, parse_instance
        try:
            field_from_tower(3, [(2, (True, 0, True))])
        except InvalidField:
            pass
        F = extend_field(make_prime_field(3), 2)
        field = field_to_json(F)
        text = json.dumps({"field": field, "matrix": {"rows": [], "cols": [], "entries": []}})
        print(field, parse_instance(text).field is F)
    """
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "{'p': 3, 'tower': [{'deg': 2, 'modulus': [1, 0, 1]}]} True"


def test_degree_and_characteristic_caps():
    with pytest.raises(DegreeCap):
        extend_field(GF2, 17)
    with pytest.raises(DegreeCap):
        field_of_order(2**17)
    with pytest.raises(DegreeCap):
        extend_field(make_prime_field(17), 2)
    assert extend_field(GF2, 17, degree_cap=17).degree == 17


def test_coeffs_view():
    # encoding 6 in GF(8) is t^2 + t
    a = GF8.elem(6)
    assert tuple(c.enc for c in a.coeffs) == (0, 1, 1)
    assert GF2.one.coeffs == ()


def test_is_irreducible_input_validation():
    assert is_irreducible(GF2, (1, 1, 1))
    assert not is_irreducible(GF2, (1, 0, 1))  # (x+1)^2
    assert not is_irreducible(GF2, (1, 0, 1, 0, 1))  # (x^2+x+1)^2, no roots
    with pytest.raises(InvalidArgs):
        is_irreducible(GF2, (1,))
    with pytest.raises(InvalidArgs):
        is_irreducible(GF3, (1, 1, 2))  # not monic


# (q, k) -> steps of the conformance tower GF(q) -> degree k -> degree k
# -> degree 2, as built by extend_field; recorded with the exhaustive
# irreducibility test
CONFORMANCE_TOWERS = {
    (2, 2): ((2, (1, 1, 1)), (2, (1, 2, 1)), (2, (1, 4, 1))),
    (2, 3): ((3, (1, 0, 1, 1)), (3, (1, 0, 3, 1)), (2, (1, 1, 1))),
    (2, 4): ((4, (1, 0, 0, 1, 1)), (4, (1, 0, 1, 3, 1)), (2, (1, 18, 1))),
    (3, 2): ((2, (1, 0, 1)), (2, (1, 4, 1)), (2, (1, 9, 1))),
    (3, 3): ((3, (1, 0, 2, 1)), (3, (1, 0, 3, 1)), (2, (1, 0, 1))),
}


def _conformance_tower(q, k):
    F = make_prime_field(q)
    for d in (k, k, 2):
        F = extend_field(F, d, degree_cap=2 * k * k)
    return F


@pytest.mark.parametrize("q, k", sorted(CONFORMANCE_TOWERS))
def test_conformance_towers_pinned(q, k):
    assert _conformance_tower(q, k).steps == CONFORMANCE_TOWERS[(q, k)]


def test_k5_conformance_tower():
    # the two degree-5 steps were recorded with the exhaustive test; the
    # quadratic step over GF(2^25) is x^2 + x + 1, the first candidate
    # with constant term 1 after x^2 + 1 = (x + 1)^2: in characteristic
    # 2, x^2 + x + 1 is irreducible over GF(2^m) iff m is odd, and 25 is
    F = _conformance_tower(2, 5)
    assert F.steps == (
        (5, (1, 0, 0, 1, 0, 1)),
        (5, (1, 0, 0, 1, 8, 1)),
        (2, (1, 1, 1)),
    )
    assert F.degree == 50


def test_gcd_branch_rejects_product_of_quadratics():
    # over GF(16), the product of two distinct irreducible quadratics has
    # no root and divides x^(16^4) - x; only the gcd condition at r = 2
    # shows it reducible
    g, h = [f for f in _monic_polys(GF16, 2) if is_irreducible_exhaustive(GF16, f)][:2]
    f = _poly_mul(GF16, g, h)
    assert all(_poly_eval(GF16, f, e) for e in range(GF16.order))
    assert not is_irreducible(GF16, f)
    with pytest.raises(InvalidField):
        field_from_tower(2, [GF16.steps[0], (4, f)], degree_cap=32)
    canonical = list(CONFORMANCE_TOWERS[(2, 4)])
    assert field_from_tower(2, canonical, degree_cap=32) is _conformance_tower(2, 4)


def test_sub_enc_matches_add_of_negation():
    # the characteristic-2 and prime-field fast paths against the
    # general definition a - b = a + (-b)
    for F in (GF2, GF3, GF5, GF4, GF8, GF9, GF27, GF16_OVER_GF4):
        for a in range(F.order):
            for b in range(F.order):
                assert F.sub_enc(a, b) == F.add_enc(a, F.neg_enc(b))


def _check_inverse(F, elems):
    F._inv_cache.clear()
    for a in elems:
        inv = F.inv_enc(a)
        assert F.mul_enc(a, inv) == 1
        assert inv == F.pow_enc(a, F.order - 2)  # Fermat: a^(q-2) = a^-1


def test_inverse_by_euclid_exhaustive():
    for F in (GF4, GF8, GF9, GF27, GF256, GF16_OVER_GF4):
        _check_inverse(F, range(1, F.order))


def test_inverse_by_euclid_on_towers():
    # GF(2^16) and GF(3^9) are the two-step levels of the GF(2) k=4 and
    # GF(3) k=3 conformance towers, GF(2^32) the whole k=4 tower
    from random import Random

    rng = Random(7)
    gf2_32 = _conformance_tower(2, 4)
    for F in (gf2_32.base, gf2_32, _conformance_tower(3, 3).base):
        _check_inverse(F, [rng.randrange(1, F.order) for _ in range(500)])
