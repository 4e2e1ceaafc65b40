"""Exact arithmetic in finite fields GF(p^n) built as explicit towers.

A field is described by a FieldSpec: a prime characteristic p plus an
ordered tuple of extension steps.  Each step adjoins a root of a monic
irreducible polynomial over the level below it, so a spec with steps of
degree 2 then 3 describes GF(p) -> GF(p^2) -> GF(p^6).  Keeping the
tower explicit (instead of flattening everything to one big extension)
gives every level a power basis over the level below, which is exactly
what the free-column construction in `reductions` writes its entries in.

Elements are stored by integer encoding.  An element with coefficient
vector (a_0, ..., a_{k-1}) over the previous level encodes as
sum(enc(a_i) * B**i) where B is the order of the previous level; the
ground case is the residue itself.  The encoding is bijective, makes
equality and hashing cheap, and is stable under canonical tower
embeddings: the image of a subfield element in any taller tower keeps
the same integer.  That last fact is what lets `embed`, and the
reduction stages that rebuild a display over an extension field, reuse
encodings verbatim.

extend_field adjoins a root of the canonical modulus: the lex-least
monic irreducible of the requested degree, found by walking candidates
in lex order and testing each with Rabin's test, whose cost is
polynomial in the degree and in log of the base order.  Nothing is
precomputed; each canonical modulus is memoised once found.

Towers are interned: building the same (p, steps) twice returns the
same FieldSpec object, so the per-field multiplication/inverse memo
tables stay warm across calls; only fields of order at most 2^20 keep
them, so each is bounded.  All mutation is append-only cache filling,
safe under the usual CPython execution model.
"""

from __future__ import annotations

from typing import Iterator

from .errors import (
    DegreeCap,
    DivisionByZero,
    FieldMismatch,
    InvalidArgs,
    InvalidField,
    NotASubfield,
)

# Desk-scale caps; every public constructor that can grow a field takes
# overrides.  Exhaustive certification is exponential in these numbers.
DEGREE_CAP_DEFAULT = 16
CHAR_CAP_DEFAULT = 13
PRIME_LIMIT = 2**16

# Memo size guard: fields at or below this order memoise products by
# (a, b) and inverses by a; larger fields compute both directly.
_MEMO_ORDER_LIMIT = 2**20

Step = tuple[int, tuple[int, ...]]  # (degree, modulus coeffs, constant term first, monic)

_SPEC_CACHE: dict[tuple[int, tuple[Step, ...]], "FieldSpec"] = {}
_CANONICAL_MODULI: dict[tuple[int, tuple[Step, ...], int], tuple[int, ...]] = {}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class FieldSpec:
    """A finite field presented as a tower of extensions of GF(p).

    Do not call the constructor directly; use make_prime_field,
    extend_field, or field_from_tower so instances are interned and
    moduli validated.
    """

    __slots__ = (
        "p",
        "steps",
        "degree",
        "order",
        "base",
        "one",
        "_top_deg",
        "_base_order",
        "_modulus",
        "_mul_cache",
        "_inv_cache",
    )

    def __init__(self, p: int, steps: tuple[Step, ...]):
        self.p = p
        self.steps = steps
        if steps:
            self.base = _intern(p, steps[:-1])
            self._top_deg, self._modulus = steps[-1]
            self._base_order = self.base.order
            self.degree = self.base.degree * self._top_deg
        else:
            self.base = None
            self._top_deg = 1
            self._modulus = ()
            self._base_order = p
            self.degree = 1
        self.order = p**self.degree
        self._mul_cache: dict[tuple[int, int], int] = {}
        self._inv_cache: dict[int, int] = {}
        self.one = FieldElem(self, 1)

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.steps == other.steps
        )

    def __hash__(self) -> int:
        return hash((self.p, self.steps))

    def __repr__(self) -> str:
        if not self.steps:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.degree})"

    # -- element access --------------------------------------------------

    def elem(self, enc: int) -> FieldElem:
        """Element with the given integer encoding (not the image of the
        integer under the ring map; for that use from_int)."""
        return FieldElem(self, enc)

    def from_int(self, n: int) -> FieldElem:
        """Image of the integer n under the canonical map Z -> GF(p^k)."""
        return FieldElem(self, n % self.p)

    def elements(self) -> Iterator["FieldElem"]:
        for e in range(self.order):
            yield FieldElem(self, e)

    @property
    def gen(self) -> FieldElem:
        """Generator of the top extension step (the adjoined root t)."""
        if not self.steps:
            raise InvalidArgs("a prime field has no extension generator")
        return FieldElem(self, self._base_order)

    # -- encoding helpers --------------------------------------------------

    def _digits(self, a: int) -> list[int]:
        """Base-B digits of an encoding, constant coefficient first."""
        B = self._base_order
        out = []
        while a:
            out.append(a % B)
            a //= B
        return out

    # -- arithmetic on encodings -------------------------------------------

    def add_enc(self, a: int, b: int) -> int:
        if self.p == 2:
            # char 2: every level adds coefficientwise without carries,
            # which collapses to xor on the packed encoding
            return a ^ b
        if not self.steps:
            return (a + b) % self.p
        return self._digitwise(a, b, 1)

    def sub_enc(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not self.steps:
            return (a - b) % self.p
        return self._digitwise(a, b, -1)

    def neg_enc(self, a: int) -> int:
        return self.sub_enc(0, a)

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign * b in a tower of odd characteristic.  Every level
        adds coefficientwise, so an encoding is the base-p digits of its
        prime-field coefficients, and a sum or a difference goes digit
        by digit, without carries."""
        p = self.p
        out, shift = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + sign * y) % p * shift
            shift *= p
        return out

    def mul_enc(self, a: int, b: int) -> int:
        if not self.steps:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        key = (a, b) if a <= b else (b, a)
        cache = self._mul_cache
        r = cache.get(key)
        if r is None:
            r = self._mul_raw(a, b)
            if self.order <= _MEMO_ORDER_LIMIT:
                cache[key] = r
        return r

    def _undigits(self, digits: list[int]) -> int:
        """The encoding with the given base-B digits, constant first."""
        B = self._base_order
        out = 0
        for d in reversed(digits):
            out = out * B + d
        return out

    def _mul_raw(self, a: int, b: int) -> int:
        return self._undigits(
            _poly_mulmod(self.base, self._digits(a), self._digits(b), self._modulus)
        )

    def inv_enc(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self!r}")
        if not self.steps:
            return pow(a, self.p - 2, self.p)
        if a == 1:
            return 1
        cache = self._inv_cache
        r = cache.get(a)
        if r is None:
            # s * a = g mod the irreducible modulus, with g a nonzero
            # constant, so a^-1 = s / g
            g, s = _poly_xgcd(self.base, self._digits(a), self._modulus)
            c = self.base.inv_enc(g[0])
            r = self._undigits([self.base.mul_enc(c, x) for x in s])
            if self.order <= _MEMO_ORDER_LIMIT:
                cache[a] = r
        return r

    def pow_enc(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow_enc(self.inv_enc(a), -n)
        result, square = 1, a
        while n:
            if n & 1:
                result = self.mul_enc(result, square)
            square = self.mul_enc(square, square)
            n >>= 1
        return result


class FieldElem:
    """An element of a FieldSpec, identified by its integer encoding."""

    __slots__ = ("spec", "enc")

    def __init__(self, spec: FieldSpec, enc: int):
        if isinstance(enc, bool) or not isinstance(enc, int) or not 0 <= enc < spec.order:
            raise InvalidArgs(f"encoding {enc} out of range for {spec!r}")
        self.spec = spec
        self.enc = enc

    def _coerce(self, other) -> "FieldElem | None":
        if isinstance(other, FieldElem):
            if other.spec != self.spec:
                raise FieldMismatch(f"{self.spec!r} vs {other.spec!r}")
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.spec, self.spec.add_enc(self.enc, o.enc))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.spec, self.spec.sub_enc(self.enc, o.enc))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.spec, self.spec.sub_enc(o.enc, self.enc))

    def __neg__(self):
        return FieldElem(self.spec, self.spec.neg_enc(self.enc))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.spec, self.spec.mul_enc(self.enc, o.enc))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.spec, self.spec.mul_enc(self.enc, self.spec.inv_enc(o.enc)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.spec, self.spec.mul_enc(o.enc, self.spec.inv_enc(self.enc)))

    def __pow__(self, n: int):
        return FieldElem(self.spec, self.spec.pow_enc(self.enc, n))

    def inv(self) -> "FieldElem":
        return FieldElem(self.spec, self.spec.inv_enc(self.enc))

    def __bool__(self) -> bool:
        return self.enc != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElem)
            and other.spec == self.spec
            and other.enc == self.enc
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.enc))

    def __repr__(self) -> str:
        return f"<{self.enc}:{self.spec!r}>"


# -- polynomial helpers over an arbitrary FieldSpec -----------------------
# Polynomials are lists of encodings, constant coefficient first.


def _poly_mulmod(field: FieldSpec, a: list[int], b: list[int], f: tuple[int, ...]) -> list[int]:
    """a * b mod the monic f, for a and b of degree below deg f; the
    result is padded to deg f coefficients.  Also the product of two
    elements of the extension of `field` by f, as coefficient lists."""
    add, mul, sub = field.add_enc, field.mul_enc, field.sub_enc
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = add(prod[i + j], mul(x, y))
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i]
        if c:
            # f is monic, so x^n = -(f_0 + ... + f_{n-1} x^{n-1})
            for j in range(n):
                if f[j]:
                    prod[i - n + j] = sub(prod[i - n + j], mul(c, f[j]))
    return prod[:n]


def _poly_powmod(field: FieldSpec, a: list[int], e: int, f: tuple[int, ...]) -> list[int]:
    """a**e mod the monic f by square-and-multiply."""
    result = [1] + [0] * (len(f) - 2)
    while e:
        if e & 1:
            result = _poly_mulmod(field, result, a, f)
        e >>= 1
        if e:
            a = _poly_mulmod(field, a, a, f)
    return result


def _poly_trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(field: FieldSpec, b: list[int], a: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with b = q * a + r and deg r < deg a, for a trimmed and
    nonzero; one inverse of the leading coefficient of a."""
    sub, mul = field.sub_enc, field.mul_enc
    b = list(b)
    da = len(a) - 1
    inv = field.inv_enc(a[-1])
    q = [0] * max(0, len(b) - da)
    for i in range(len(b) - 1, da - 1, -1):
        c = b[i]
        if c:
            qc = q[i - da] = mul(c, inv)
            for j in range(da + 1):
                if a[j]:
                    b[i - da + j] = sub(b[i - da + j], mul(qc, a[j]))
    return q, _poly_trim(b[:da])


def _poly_xgcd(field: FieldSpec, a: list[int], f: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(g, s) with g a gcd of a and the nonzero f, and s * a = g mod f,
    by the extended Euclidean algorithm; g is not made monic."""
    sub, mul = field.sub_enc, field.mul_enc
    # invariant: s0 * a = r0 and s1 * a = r1 mod f
    r0, r1 = _poly_trim(list(f)), _poly_trim(list(a))
    s0, s1 = [], [1]
    while r1:
        q, r = _poly_divmod(field, r0, r1)
        # s2 = s0 - q * s1
        s2 = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1):
                    if y:
                        s2[i + j] = sub(s2[i + j], mul(x, y))
        r0, r1, s0, s1 = r1, r, s1, _poly_trim(s2)
    return r0, s0


def _are_encodings(base: FieldSpec, coeffs: tuple[int, ...]) -> bool:
    """Whether every coefficient is an int, not a bool, in 0 .. |base| - 1."""
    return all(not isinstance(c, bool) and isinstance(c, int) and 0 <= c < base.order
               for c in coeffs)


def is_irreducible(base: FieldSpec, coeffs: tuple[int, ...]) -> bool:
    """Rabin's irreducibility test for a monic polynomial over `base`.

    Coefficients are integer encodings, constant term first, leading
    coefficient included and equal to 1; any other value (a bool, a
    non-int, or an int outside 0 .. |base| - 1) raises InvalidArgs, as
    `field_from_tower` refuses it.  A monic f of degree n over
    GF(Q) is irreducible iff x^(Q^n) = x mod f and
    gcd(x^(Q^(n/r)) - x, f) = 1 for every prime r dividing n (Rabin,
    SIAM J. Comput. 9, 1980).  The powers x^(Q^i) mod f come from n
    repeated Q-th powerings by square-and-multiply, so the cost is
    polynomial in n and log Q: O(n^3 log Q) base-field operations.
    """
    if not _are_encodings(base, coeffs):
        raise InvalidArgs(f"coefficients {list(coeffs)!r} are not encodings in {base!r}")
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise InvalidArgs("expected a monic polynomial of degree >= 1")
    n = len(coeffs) - 1
    if n == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by x
    x = [0, 1] + [0] * (n - 2)
    gcd_at = {n // r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)}
    h = x
    for i in range(1, n + 1):
        h = _poly_powmod(base, h, base.order, coeffs)
        if i in gcd_at:
            h_minus_x = list(h)
            h_minus_x[1] = base.sub_enc(h[1], 1)
            if len(_poly_xgcd(base, h_minus_x, coeffs)[0]) != 1:
                return False  # a nonconstant common factor
    return h == x


def _canonical_modulus(base: FieldSpec, k: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k >= 2 over
    base, comparing coefficient tuples constant term first by encoding.

    Candidates are walked lazily: the counter m encodes the tail
    (c_0, ..., c_{k-1}) as base-Q digits, c_0 most significant, so
    counting up is the lex order.  It starts at c_0 = 1, since every
    candidate before that is divisible by x.
    """
    key = (base.p, base.steps, k)
    hit = _CANONICAL_MODULI.get(key)
    if hit is not None:
        return hit
    Q = base.order
    for m in range(Q ** (k - 1), Q**k):
        tail, rest = [], m
        for _ in range(k):
            rest, c = divmod(rest, Q)
            tail.append(c)
        coeffs = (*reversed(tail), 1)
        if is_irreducible(base, coeffs):
            _CANONICAL_MODULI[key] = coeffs
            return coeffs
    raise InvalidField(f"no irreducible of degree {k} over {base!r}")  # unreachable


def _intern(p: int, steps: tuple[Step, ...]) -> FieldSpec:
    key = (p, steps)
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, steps)
        _SPEC_CACHE[key] = spec
    return spec


# -- public constructors ----------------------------------------------------


def make_prime_field(p: int) -> FieldSpec:
    """GF(p) for a prime p <= 2^16."""
    if not isinstance(p, int) or not 2 <= p <= PRIME_LIMIT:
        raise InvalidField(f"characteristic {p!r} out of range")
    if not _is_prime(p):
        raise InvalidField(f"{p} is not prime")
    return _intern(p, ())


def extend_field(
    base: FieldSpec,
    k: int,
    *,
    degree_cap: int = DEGREE_CAP_DEFAULT,
) -> FieldSpec:
    """Degree-k extension of `base` using the canonical (lex-least
    monic irreducible) modulus.  k == 1 returns `base` unchanged."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidArgs(f"extension degree must be a positive int, got {k!r}")
    if k == 1:
        return base
    if base.p > CHAR_CAP_DEFAULT:
        raise DegreeCap(f"characteristic {base.p} exceeds cap {CHAR_CAP_DEFAULT} for extensions")
    if base.degree * k > degree_cap:
        raise DegreeCap(
            f"total degree {base.degree * k} exceeds cap {degree_cap}"
        )
    modulus = _canonical_modulus(base, k)
    return _intern(base.p, base.steps + ((k, modulus),))


def field_from_tower(
    p: int,
    tower: list[tuple[int, tuple[int, ...]]],
    *,
    degree_cap: int = DEGREE_CAP_DEFAULT,
) -> FieldSpec:
    """Build a FieldSpec from explicit tower data, validating every
    modulus (monic, right length, irreducible over its level).  Every
    step has degree at least 2, as `extend_field` builds them: a
    degree-1 step adds no element and would give its level a second
    presentation, unequal to the first."""
    spec = make_prime_field(p)
    for i, (deg, coeffs) in enumerate(tower):
        coeffs = tuple(coeffs)
        if isinstance(deg, bool) or not isinstance(deg, int) or deg < 2:
            raise InvalidField(f"tower step {i}: degree {deg!r} invalid, must be at least 2")
        if len(coeffs) != deg + 1:
            raise InvalidField(
                f"tower step {i}: modulus needs {deg + 1} coefficients, got {len(coeffs)}"
            )
        if not _are_encodings(spec, coeffs):
            raise InvalidField(f"tower step {i}: modulus coefficients out of range")
        if coeffs[-1] != 1:
            raise InvalidField(f"tower step {i}: modulus {list(coeffs)} is not monic")
        if spec.degree * deg > degree_cap:
            raise DegreeCap(f"tower step {i}: total degree exceeds cap {degree_cap}")
        if not is_irreducible(spec, coeffs):
            raise InvalidField(f"tower step {i}: modulus {list(coeffs)} is reducible")
        spec = _intern(p, spec.steps + ((deg, coeffs),))
    return spec


def field_of_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q, as the canonical one-step tower
    GF(p) or GF(p^k) over GF(p), under the default degree cap.  The
    characteristic is found by trial division up to PRIME_LIMIT."""
    if not isinstance(q, int) or q < 2:
        raise InvalidField(f"field order {q!r} is not a prime power")
    p = next((c for c in range(2, min(q, PRIME_LIMIT) + 1) if q % c == 0), None)
    if p is None:
        raise InvalidField(f"field order {q} has no prime factor up to {PRIME_LIMIT}")
    k, n = 0, q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise InvalidField(f"field order {q} is not a prime power")
    base = make_prime_field(p)
    return base if k == 1 else extend_field(base, k)


# -- subfield relations -----------------------------------------------------


def is_tower_prefix(sub: FieldSpec, sup: FieldSpec) -> bool:
    return sub.p == sup.p and sup.steps[: len(sub.steps)] == sub.steps


def embed(a: FieldElem, target: FieldSpec) -> FieldElem:
    """Canonical embedding along the tower-prefix relation.  The integer
    encoding is unchanged: subfield elements sit as constant
    coefficients at every added level."""
    if not is_tower_prefix(a.spec, target):
        raise NotASubfield(f"{a.spec!r} is not a tower prefix of {target!r}")
    return FieldElem(target, a.enc)


def is_in_subfield(a: FieldElem, sub: FieldSpec) -> bool:
    """True iff `a` lies in the image of `sub` inside its own field,
    decided by the Frobenius fixed-point test a^(order of sub) == a."""
    if not is_tower_prefix(sub, a.spec):
        raise NotASubfield(f"{sub!r} is not a tower prefix of {a.spec!r}")
    return a.spec.pow_enc(a.enc, sub.order) == a.enc


def subfield_basis(ext: FieldSpec, over: FieldSpec) -> tuple[FieldElem, ...]:
    """Power basis 1, t, ..., t^(k-1) of a one-step degree-k tower
    extension over its base; (1,) when ext == over."""
    if ext == over:
        return (ext.one,)
    if ext.base != over:
        raise NotASubfield(
            f"{over!r} is not the immediate tower base of {ext!r}"
        )
    B = over.order
    return tuple(FieldElem(ext, B**i) for i in range(ext._top_deg))
