"""A graph surface's validity, decided by its construction, checked two ways.

`from_graph` proves its surface valid by construction and composes nothing to
re-prove it (see the `hypersurface` module docstring). Two checks guard that:

- a derandomized property draws real graphs phi (n = 1 and 2, both
  conventions, exact polynomials and truncated ones with `exp`, degrees 4-10)
  and asserts that `validate`, which composes, gives the same verdict, witness
  and degree as the construction;
- an independent check re-derives the `validate` verdict of crtrans's Q with
  polynomial arithmetic written here, over Gaussian integers with one common
  denominator and no crtrans kernel code: Q(z, 0, tau) = Q(0, chi, tau) = tau
  and Q(z, chi, conj(Q)(chi, z, tau)) = tau through the truncation degree, and
  as polynomial identities where the verdict claims `exact`. Its inputs are
  the eight n = 1 seed-0 dense_graph documents of the benchmark, generated
  graphs of both kinds and surfaces given by Q, valid or not.

The property needs the optional `hypothesis` package (the `test` extra).
"""

import random
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from crtrans import grammar, hypersurface
from crtrans.document import _surface
from crtrans.hypersurface import Convention, NormalHypersurface, from_graph, validate
from crtrans.models import exp_model
from crtrans.scalar import qr
from crtrans.series import Series, exp_series

# the benchmark's document generators, imported with nothing left behind in
# perfbench/ and sys.path restored afterwards
_saved = list(sys.path), sys.dont_write_bytecode
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
sys.dont_write_bytecode = True
import workloads  # noqa: E402

sys.path[:], sys.dont_write_bytecode = _saved

# ---------------- drawn real graphs ----------------

DEGREES = range(4, 11)


def conjugate_pairs(n: int, d: int, pairs) -> Series:
    """The real sum of c z^a chi^b s^k + conj(c) z^b chi^a s^k over the pairs."""
    arity = 2 * n + 1
    phi = Series.zero(arity, d)
    for c, a, b, k in pairs:
        phi = phi + Series.polynomial(arity, d, {a + b + (k,): c})
        phi = phi + Series.polynomial(arity, d, {b + a + (k,): c.conjugate()})
    return phi


def random_graph(rng: random.Random) -> Series:
    """A real phi vanishing when z = 0 or chi = 0: an exact polynomial, or that
    times exp of a real series with pure-s terms, truncated at the degree."""
    n = rng.randint(1, 2)
    d = rng.choice(DEGREES)

    def coefficient():
        return qr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-3, 3))

    def block(lowest):
        e = [0] * n
        for _ in range(rng.randint(lowest, 2)):
            e[rng.randrange(n)] += 1
        return tuple(e)

    pairs = [(coefficient(), block(1), block(1), rng.randint(0, 2))
             for _ in range(rng.randint(1, 3))]
    phi = conjugate_pairs(n, d, pairs)
    if rng.random() < 0.5:
        # exp(r s + c z^a chi^b + conj(c) z^b chi^a) with r real
        pure_s = Series.polynomial(2 * n + 1, d, {(0,) * (2 * n) + (rng.randint(1, 2),):
                                                  rng.randint(-2, 2)})
        mixed = conjugate_pairs(n, d, [(coefficient(), block(1), block(0), 0)])
        phi = phi * exp_series(pure_s + mixed)
    return phi


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property needs the `test` extra
    given = None

if given is not None:

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(list(Convention)))
    def test_a_graph_surface_validates_by_composition_as_constructed(rng, conv):
        m = from_graph(random_graph(rng), conv)
        constructed = m.validity
        assert constructed.is_true
        assert validate(m) == constructed  # status, witness with `exact`, degree


def test_both_exact_flags_are_drawn_and_agree():
    # an s-free polynomial graph has a polynomial Q whose reality composition
    # fits within the degree; an s-dependent one does not
    seen = set()
    for phi in (Series.polynomial(3, 8, {(1, 1, 0): 1, (1, 2, 0): qr(1, 1),
                                         (2, 1, 0): qr(1, -1)}),
                Series.polynomial(3, 8, {(1, 1, 1): 1})):
        m = from_graph(phi)
        assert validate(m) == m.validity
        seen.add(m.validity.witness["exact"])
    assert seen == {True, False}


def test_an_exp_model_surface_still_validates_by_composition(monkeypatch):
    compositions = []
    original = hypersurface.compose

    def counting(*args):
        compositions.append(args)
        return original(*args)

    monkeypatch.setattr(hypersurface, "compose", counting)
    m = NormalHypersurface(1, exp_model(2, 10).q)  # a fresh surface, nothing cached
    assert m.validity.is_true
    assert m.validity.witness == {"checks": ["normality_chi_zero", "normality_z_zero",
                                             "reality"], "exact": False}
    assert len(compositions) == 1  # the reality condition


# ---------------- the independent check ----------------


def integral(q: Series):
    """Q as ({exponents: (re, im)} in Gaussian integers, common denominator D)."""
    parts = {idx: (Fraction(c.re), Fraction(c.im)) for idx, c in q.terms.items()}
    den = lcm(1, *(p.denominator for pair in parts.values() for p in pair))
    return {idx: (int(re * den), int(im * den)) for idx, (re, im) in parts.items()}, den


def product(f, g, d=None):
    """f * g, through total degree d when d is given."""
    gs = sorted(g.items(), key=lambda t: sum(t[0]))
    out = {}
    for i, (a, b) in f.items():
        di = sum(i)
        for j, (c, e) in gs:
            if d is not None and di + sum(j) > d:
                break
            k = tuple(x + y for x, y in zip(i, j))
            re, im = out.get(k, (0, 0))
            out[k] = (re + a * c - b * e, im + a * e + b * c)
    return {k: v for k, v in out.items() if v != (0, 0)}


def plus(f, g):
    out = dict(f)
    for k, (c, e) in g.items():
        re, im = out.get(k, (0, 0))
        out[k] = (re + c, im + e)
    return {k: v for k, v in out.items() if v != (0, 0)}


def residuals(q: Series, d=None):
    """(name, scale, scale times the residual) of each check of `validate`,
    through degree d when d is given: the scale is D for normality and
    D^(K+1) for reality, K the highest power of tau in Q."""
    n = (q.arity - 1) // 2
    num, den = integral(q)
    tau = (0,) * (2 * n) + (1,)
    top = max(idx[-1] for idx in num)
    scale = den ** (top + 1)

    def minus_tau(f, times):
        return plus(f, {tau: (-times, 0)})

    out = []
    for name, block in (("normality_chi_zero", range(n, 2 * n)),
                        ("normality_z_zero", range(n))):
        kept = {idx: v for idx, v in num.items() if not any(idx[i] for i in block)}
        out.append((name, den, minus_tau(kept, den)))
    # Q(z, chi, S) with S = conj(Q)(chi, z, tau) = P_s / D: by Horner in tau,
    # R_K = P_K and R_k = R_(k+1) P_s + D^(K-k) P_k give R_0 = D^(K+1) Q(z, chi, S)
    swapped = {idx[n:2 * n] + idx[:n] + idx[2 * n:]: (re, -im) for idx, (re, im) in num.items()}
    by_power = {}
    for idx, v in num.items():
        by_power.setdefault(idx[-1], {})[idx[:-1] + (0,)] = v
    r = by_power.get(top, {})
    for k in range(top - 1, -1, -1):
        lower = {idx: (re * den ** (top - k), im * den ** (top - k))
                 for idx, (re, im) in by_power.get(k, {}).items()}
        r = plus(product(r, swapped, d), lower)
    out.append(("reality", scale, minus_tau(r, scale)))
    return out


def scalar_text(re: Fraction, im: Fraction) -> str:
    """A report value: parts as `Fraction` prints them, no imaginary coefficient 1."""
    if not im:
        return str(re)
    mag = "" if abs(im) == 1 else str(abs(im))
    sign = "-" if im < 0 else "+" if re else ""
    return f"{re if re else ''}{sign}{mag}i"


def independent_verdict(q: Series):
    """What `validate` must report on Q: (status, witness, degree)."""
    d = q.degree
    for name, scale, residual in residuals(q, d):
        residual = {idx: v for idx, v in residual.items() if sum(idx) <= d}
        if residual:
            idx = min(residual, key=lambda i: (sum(i), i))  # graded-lex leading index
            re, im = residual[idx]
            value = scalar_text(Fraction(re, scale), Fraction(im, scale))
            return "certified_false", {"check": name, "index": list(idx), "value": value}, d
    return "certified_true", None, d


def check_independently(m: NormalHypersurface) -> None:
    verdict = m.validity
    status, witness, degree = independent_verdict(m.q)
    assert (verdict.status.value, verdict.degree_used) == (status, degree)
    if witness is not None:
        assert verdict.witness == witness
        return
    assert verdict.witness["checks"] == ["normality_chi_zero", "normality_z_zero", "reality"]
    if verdict.witness["exact"]:  # the identities hold with no truncation at all
        assert m.q.exact
        assert all(not residual for _, _, residual in residuals(m.q))


def dense_graph_surfaces():
    """The n = 1 documents of the seed-0 dense_graph workload, as crtrans builds them."""
    out = []
    for doc in workloads.generate("dense_graph", 0):
        if not doc.name.startswith("dense_n1_"):
            continue
        (decl,) = grammar.parse(doc.text).declarations
        header = dict(line.split() for line in doc.text.splitlines()[:2])
        out.append(_surface(decl.value, int(header["degree"]), header["convention"]))
    return out


def test_the_seed_0_dense_graph_surfaces_are_valid_independently():
    surfaces = dense_graph_surfaces()
    assert len(surfaces) == 8
    for m in surfaces:
        check_independently(m)


@pytest.mark.parametrize("seed", range(6))
def test_generated_graph_surfaces_are_valid_independently(seed):
    rng = random.Random(f"graph-validity:{seed}")
    m = from_graph(random_graph(rng), rng.choice(list(Convention)))
    check_independently(m)


@pytest.mark.parametrize("q, check", [
    (exp_model(2, 10).q, None),
    # tau + i z chi: conj(Q)(chi, z, tau) = tau - i z chi, so Q(z, chi, S) = tau
    (Series.polynomial(3, 8, {(0, 0, 1): 1, (1, 1, 0): qr(0, 1)}), None),
    # tau + z chi is not real: Q(z, chi, S) = tau + 2 z chi
    (Series.polynomial(3, 8, {(0, 0, 1): 1, (1, 1, 0): 1}), "reality"),
    # tau + z^2 tau is not normal
    (Series.polynomial(3, 8, {(0, 0, 1): 1, (2, 0, 1): qr(0, 3)}), "normality_chi_zero"),
    (Series.polynomial(3, 8, {(0, 0, 1): 1, (0, 1, 1): qr(1, 3)}), "normality_z_zero"),
])
def test_validate_of_a_surface_given_by_q_is_rederived(q, check):
    m = NormalHypersurface(1, q)
    check_independently(m)
    assert (m.validity.witness.get("check") if m.validity.is_false else None) == check


def test_the_independent_check_fails_a_claim_it_cannot_rederive():
    m = from_graph(Series.polynomial(3, 8, {(1, 1, 1): 1}))
    # Q plus a non-real term: its reality residual does not vanish
    altered = NormalHypersurface(1, m.q + Series.polynomial(3, 8, {(2, 2, 1): 1}))
    status, witness, _ = independent_verdict(altered.q)
    assert status == "certified_false" and witness["check"] == "reality"
    altered.__dict__["validity"] = m.validity  # a verdict that still claims validity
    with pytest.raises(AssertionError):
        check_independently(altered)
