import random
from fractions import Fraction as F

import pytest

from splitrad.berkovich import (AnnulusPosition, annulus_mass,
                                annulus_membership, hsia_energy,
                                inner_disk_chain, wing_clusters)
from splitrad.dynamics import parse_poly
from splitrad.exact import DomainError, LogValue, valuation

F5 = parse_poly("z^3 + (1/5)*z^2")


def test_chain_example_depth4():
    ch = inner_disk_chain(F5, 5, 4)
    assert [l.t for l in ch.levels] == [F(0), F(-1, 2), F(-3, 4), F(-7, 8)]
    assert [l.k for l in ch.levels] == [2, 2, 2, 2]
    assert [l.mass for l in ch.levels] == [F(2, 3), F(4, 9), F(8, 27), F(16, 81)]
    assert list(ch.moduli) == [F(1, 2), F(1, 4), F(1, 8)]
    assert [l.q for l in ch.levels] == [1, 2, 4, 8]
    assert ch.g == 1


def test_chain_rejects_good_place_and_bad_normalization():
    with pytest.raises(DomainError):
        inner_disk_chain(parse_poly("z^3"), 5, 3)  # good everywhere
    with pytest.raises(DomainError):
        inner_disk_chain(parse_poly("z^3 - 5*z"), 5, 3)  # 0 not superattracting
    with pytest.raises(DomainError):
        inner_disk_chain(parse_poly("2*z^3 + z^2"), 5, 3)  # not monic
    with pytest.raises(DomainError):
        inner_disk_chain(F5, 3, 3)  # p divides d


def test_chain_depth_cap():
    from splitrad.berkovich import _MAX_CHAIN_DEPTH
    assert len(inner_disk_chain(F5, 5, _MAX_CHAIN_DEPTH).levels) == _MAX_CHAIN_DEPTH
    with pytest.raises(DomainError, match=f"chain depth {_MAX_CHAIN_DEPTH + 1} is above the cap"):
        inner_disk_chain(F5, 5, _MAX_CHAIN_DEPTH + 1)
    with pytest.raises(DomainError, match="above the cap"):
        annulus_membership(F5, 5, F(1, 5), _MAX_CHAIN_DEPTH)  # builds depth m0 + 1


def test_chain_masses_multiply():
    ch = inner_disk_chain(F5, 5, 8)
    d = ch.degree
    acc = F(1)
    for lv in ch.levels:
        acc *= F(lv.k, d)
        assert lv.mass == acc


def test_modulus_bounds_hold_with_equality_for_cubic():
    ch = inner_disk_chain(F5, 5, 8)
    assert ch.modulus_bounds_hold()
    for i, m in enumerate(ch.moduli, start=1):
        lo, hi = ch.modulus_bounds(i)
        assert lo == m == hi  # d = 3 collapses both bounds


def test_radius_denominator_growth():
    ch = inner_disk_chain(F5, 5, 12)
    assert [l.q for l in ch.levels] == [2 ** i for i in range(12)]
    # the denominators eventually exceed any fixed bound
    for k in (2, 3, 5, 8):
        assert any(l.q > k for l in ch.levels)


def test_chain_quartic_fractional_radius():
    # z^4 + (1/5)z^2 at 5: fractional splitting exponent 1/2, local degree 2
    f = parse_poly("z^4 + (1/5)*z^2")
    ch = inner_disk_chain(f, 5, 10)
    assert ch.g == F(1, 2)
    assert [l.k for l in ch.levels] == [2] * 10
    assert [l.mass for l in ch.levels] == [F(1, 2) ** i for i in range(1, 11)]
    assert ch.modulus_bounds_hold()
    # radii solve 2t + 1 = target: t_{i+1} = (t_i - 1)/2 from t_1 = -1/4
    assert [l.t for l in ch.levels][:3] == [F(-1, 4), F(-5, 8), F(-13, 16)]
    assert [l.q for l in ch.levels] == [2 ** (i + 1) for i in range(1, 11)]
    for k in (2, 3, 5, 8):
        assert any(l.q > k for l in ch.levels)


def test_moduli_match_covering_degrees():
    # between consecutive chain annuli the map is a k-fold covering as long
    # as no critical point sits inside; the modulus then divides by k
    ch = inner_disk_chain(F5, 5, 8)
    crit_sizes = {F(-valuation(F(-2, 15), 5))}  # nonzero critical point of F5
    for i in range(len(ch.moduli) - 1):
        lo, hi = ch.levels[i + 2].t, ch.levels[i + 1].t
        if not any(lo < s <= hi for s in crit_sizes):
            assert ch.moduli[i + 1] == ch.moduli[i] / ch.levels[i + 1].k


def test_wing_clusters_example():
    w = wing_clusters(F5, 5)
    got = sorted((c.center, c.mass, c.n_components) for c in w.clusters)
    assert got == [(F(-1, 5), F(1, 3), 1), (F(0), F(2, 3), 1)]
    assert w.g == 1
    assert w.cross_distance() == LogValue.from_log(5, 1)
    assert sum(c.mass for c in w.clusters) == 1
    assert len(w.clusters) >= 2
    assert min(c.mass for c in w.clusters) >= F(1, w.degree)


def test_wing_cluster_relation_is_ultrametric_partition():
    w = wing_clusters(F5, 5)
    roots = [(r, i) for i, c in enumerate(w.clusters) for r, _m in c.rational_roots]
    for r1, i1 in roots:
        for r2, i2 in roots:
            if r1 == r2:
                continue
            dist = F(-valuation(r1 - r2, 5))
            assert (dist < w.g) == (i1 == i2)


def test_wing_clusters_good_place_rejected():
    with pytest.raises(DomainError):
        wing_clusters(F5, 7)


def test_wing_clusters_fractional_radius():
    # z^4 + (1/5)z^2: double root at 0 plus two roots of size 5^(1/2)
    f = parse_poly("z^4 + (1/5)*z^2")
    w = wing_clusters(f, 5)
    masses = sorted(c.mass for c in w.clusters)
    assert masses == [F(1, 4), F(1, 4), F(1, 2)]
    assert w.g == F(1, 2)


def test_wing_clusters_padic_rational_residues():
    # inner roots (-1 +- i)/5 exist in Q_5 (i = +-2 mod 5): rational residue lifts
    f = parse_poly("z^4 + (2/5)*z^3 + (2/25)*z^2")
    w = wing_clusters(f, 5)
    centers = sorted(c.center for c in w.clusters if c.center is not None)
    assert centers == [F(0), F(1, 5), F(2, 5)]
    assert sorted(c.mass for c in w.clusters) == [F(1, 4), F(1, 4), F(1, 2)]


def test_wing_clusters_extension_residues():
    # inner roots (-1 +- i sqrt 2)/5: residues generate F_25, two singleton clusters
    f = parse_poly("z^4 + (2/5)*z^3 + (3/25)*z^2")
    w = wing_clusters(f, 5)
    ext = [c for c in w.clusters if c.center is None]
    assert len(ext) == 2 and all(c.mass == F(1, 4) for c in ext)
    assert sum(c.mass for c in w.clusters) == 1


def test_annulus_membership_examples():
    assert annulus_membership(F5, 5, 1, 1) is AnnulusPosition.INSIDE
    assert annulus_membership(F5, 5, 5, 1) is AnnulusPosition.DEEPER
    assert annulus_membership(F5, 5, F(-1, 5), 1) is AnnulusPosition.NOT_IN_WING
    assert annulus_membership(F5, 5, F(1, 5), 1) is AnnulusPosition.NOT_IN_WING
    assert annulus_membership(F5, 5, 0, 1) is AnnulusPosition.DEEPER
    # half-open on the outside: size exactly p^{t_m0} belongs to the annulus
    ch = inner_disk_chain(F5, 5, 3)
    assert ch.levels[0].t == 0  # so units sit in the annulus at level 1
    assert annulus_membership(F5, 5, 7, 2) is AnnulusPosition.OUTSIDE_LEVEL


def test_annulus_mass():
    ch = inner_disk_chain(F5, 5, 2)
    assert annulus_mass(ch, 1) == F(2, 3) - F(4, 9) == F(2, 9)


def test_hsia_energy_examples():
    assert hsia_energy([0, F(-1, 5), 1], 5) == LogValue.from_log(5, F(2, 3))
    assert hsia_energy([0, 1], 7).is_exactly_zero()
    with pytest.raises(DomainError):
        hsia_energy([1, 1], 5)
    with pytest.raises(DomainError):
        hsia_energy([1], 5)


def test_hsia_energy_translation_invariance():
    rng = random.Random(61)
    for _ in range(40):
        pts = list({F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(4)})
        if len(pts) < 2:
            continue
        c = F(rng.randint(-20, 20), rng.randint(1, 9))
        p = rng.choice([2, 3, 5, 7])
        assert hsia_energy(pts, p) == hsia_energy([z + c for z in pts], p)


def test_hsia_energy_scaling():
    rng = random.Random(62)
    for _ in range(40):
        pts = list({F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(4)})
        if len(pts) < 2:
            continue
        c = F(rng.randint(1, 30), rng.randint(1, 9))
        p = rng.choice([2, 3, 5, 7])
        scaled = hsia_energy([c * z for z in pts], p)
        assert scaled == hsia_energy(pts, p) + LogValue.from_log(p, -valuation(c, p))
