import math
import re
import sys

import numpy as np
import pytest

from neumann_bounds.geometry import (
    ConvexCell,
    FractalTree,
    FractalTreeSpec,
    WhitneyChain,
    WhitneyTriple,
    build_snowflake_tree,
    cell_volume,
    snowflake_level,
    snowflake_level_count,
)
from neumann_bounds.poincare import (
    FORM_DEVIATION,
    FORM_INF,
    SERIES_CAP,
    _chain_coefficients,
    _diameter_rule,
    _downstream_ratios,
    _envelope_base,
    _require_deviation_form,
    _rule_bound,
    CertTerm,
    PoincareBound,
    SeriesError,
    SpectralParams,
    chain_constant,
    convex_cell_constant,
    pair_constant,
    pi_p,
    pi_p_quadrature,
    ratio_test_tail,
    snowflake_bound,
    snowflake_level_bounds,
    snowflake_tail,
    tree_constant,
    triple_constant,
)

SQRT3 = math.sqrt(3.0)


def unit_square(dx=0.0, dy=0.0, w=1.0, h=1.0):
    return ConvexCell([(dx, dy), (dx + w, dy), (dx + w, dy + h), (dx, dy + h)])


def deviation_bound(value, p):
    return PoincareBound(
        value=value, p=p, form=FORM_DEVIATION,
        terms=(CertTerm("input", "given", value**p),),
    )


class TestPiP:
    def test_p2_is_pi(self):
        assert pi_p(2.0) == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 10.0])
    def test_closed_form_matches_quadrature(self, p):
        closed = pi_p(p)
        quad_value = pi_p_quadrature(p)
        assert abs(closed - quad_value) <= 1e-8 * closed

    def test_p4_value(self):
        # frozen from the quadrature evaluation of the integral definition
        assert pi_p_quadrature(4.0) == pytest.approx(2.9235813887501, rel=1e-10)
        assert pi_p(4.0) == pytest.approx(2.9235813887501, rel=1e-10)

    def test_large_p_limit(self):
        assert abs(pi_p(100.0) - 2.0) <= 0.05 * 2.0

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
    def test_invalid_p(self, p):
        with pytest.raises(ValueError):
            pi_p(p)
        with pytest.raises(ValueError):
            pi_p_quadrature(p)


class TestConvexCellConstant:
    def test_disk_like_cell(self):
        # regular 64-gon of circumradius 1: diameter exactly 2
        angles = 2 * math.pi * np.arange(64) / 64
        ball = ConvexCell(np.stack([np.cos(angles), np.sin(angles)], axis=1))
        bound = convex_cell_constant(ball, SpectralParams(p=2.0, n=2))
        assert bound.value == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_unit_square(self):
        bound = convex_cell_constant(unit_square(), SpectralParams(p=2.0, n=2))
        assert bound.value == pytest.approx(math.sqrt(2.0) / math.pi, rel=1e-14)
        assert dict(bound.details)["pi_p"] == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_diameter_homogeneity(self, lam):
        cell = unit_square()
        b1 = convex_cell_constant(cell, SpectralParams(p=2.0, n=2))
        b2 = convex_cell_constant(cell.scaled(lam), SpectralParams(p=2.0, n=2))
        assert b2.value == pytest.approx(lam * b1.value, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            convex_cell_constant(unit_square(), SpectralParams(p=2.0, n=3))

    def test_certificate_sums_to_power(self):
        bound = convex_cell_constant(unit_square(), SpectralParams(p=3.0, n=2))
        assert sum(t.value for t in bound.terms) == pytest.approx(
            bound.value**3, rel=1e-12
        )


class TestPairConstant:
    def test_two_unit_squares(self):
        q1, q2 = unit_square(), unit_square(dx=0.5)
        params = SpectralParams(p=2.0, n=2)
        b = convex_cell_constant(q1, params)
        pair = pair_constant(cell_volume(q1), cell_volume(q2), 0.5, b, b, 2.0)
        assert pair.value**2 == pytest.approx(64.0 / math.pi**2, rel=1e-12)
        assert pair.value == pytest.approx(2.5464790894703255, rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.5])
    def test_identical_cells_collapse(self, p):
        q = unit_square()
        b = deviation_bound(0.37, p)
        pair = pair_constant(cell_volume(q), cell_volume(q), cell_volume(q), b, b, p)
        assert pair.value**p == pytest.approx(2.0 ** (2 * p) * 0.37**p, rel=1e-12)

    def test_nonpositive_overlap(self):
        q = unit_square()
        b = deviation_bound(0.3, 2.0)
        with pytest.raises(ValueError):
            pair_constant(cell_volume(q), cell_volume(q), 0.0, b, b, 2.0)

    def test_certificate_sum(self):
        q1, q2 = unit_square(), unit_square(dx=0.25)
        b = deviation_bound(0.4, 2.0)
        pair = pair_constant(cell_volume(q1), cell_volume(q2), 0.75, b, b, 2.0)
        assert sum(t.value for t in pair.terms) == pytest.approx(pair.value**2, rel=1e-12)

    def test_scaling_homogeneity(self):
        lam = 2.0
        q1, q2 = unit_square(), unit_square(dx=0.5)
        params = SpectralParams(p=2.0, n=2)
        b1 = convex_cell_constant(q1, params)
        small = pair_constant(cell_volume(q1), cell_volume(q2), 0.5, b1, b1, 2.0)
        q1s, q2s = q1.scaled(lam), q2.scaled(lam)
        b1s = convex_cell_constant(q1s, params)
        big = pair_constant(cell_volume(q1s), cell_volume(q2s), 0.5 * lam**2, b1s, b1s, 2.0)
        assert big.value == pytest.approx(lam * small.value, rel=1e-12)


class TestTripleConstant:
    def make_row_triple(self):
        q1, r2, q3 = unit_square(), unit_square(dx=0.5), unit_square(dx=1.0)
        return WhitneyTriple.from_cells(q1, r2, q3)

    def test_three_squares_in_a_row(self):
        t = self.make_row_triple()
        b = convex_cell_constant(t.q1, SpectralParams(p=2.0, n=2))
        trip = triple_constant(t.measures(), b, b, b, 2.0)
        assert trip.value**2 == pytest.approx(3072.0 / math.pi**2, rel=1e-12)
        assert trip.value == pytest.approx(17.642524653497347, rel=1e-12)

    def test_symmetric_triple_terms_equal(self):
        t = self.make_row_triple()
        b = deviation_bound(0.5, 2.0)
        trip = triple_constant(t.measures(), b, b, b, 2.0)
        t_q1 = next(x for x in trip.terms if x.label == "q1")
        t_q3 = next(x for x in trip.terms if x.label == "q3")
        assert abs(t_q1.value - t_q3.value) <= 1e-12 * t_q1.value

    def test_matches_direct_arithmetic(self):
        # independent spreadsheet-style recomputation of the displayed rule
        q1 = unit_square(w=1.2, h=0.8)
        r2 = unit_square(dx=0.9, w=1.0, h=1.1)
        q3 = unit_square(dx=1.7, w=0.7, h=0.9)
        t = WhitneyTriple.from_cells(q1, r2, q3)
        p = 2.0
        b1, b2, b3 = (deviation_bound(v, p) for v in (0.3, 0.5, 0.4))
        trip = triple_constant(t.measures(), b1, b2, b3, p)
        v1, v2, v3 = cell_volume(q1), cell_volume(r2), cell_volume(q3)
        u12, u32 = v1 + v2 - t.v_q1r2, v3 + v2 - t.v_r2q3
        expected = 2.0 ** (4 * p - 1) * (
            (u12 / v2) * (v1 / t.v_q1r2) * 0.3**p
            + (u12 / t.v_q1r2 + u32 / t.v_r2q3) * 0.5**p
            + (u32 / v2) * (v3 / t.v_r2q3) * 0.4**p
        )
        assert trip.value**p == pytest.approx(expected, rel=1e-12)


def chain_rule(chain, triple_bounds, p):
    """chain_constant on the measures of a WhitneyChain."""
    return chain_constant(chain.volumes(), chain.link_volumes, chain.multiplicity, triple_bounds, p)


def make_chain(num_triples=2, overlap=0.5):
    shift = 2.0 - 2 * overlap  # consecutive triples share their boundary cell
    cells = []
    for j in range(2 * num_triples + 1):
        cells.append(unit_square(dx=j * (1 - overlap)))
    triples = [
        WhitneyTriple.from_cells(cells[2 * i], cells[2 * i + 1], cells[2 * i + 2])
        for i in range(num_triples)
    ]
    return WhitneyChain.from_triples(triples, multiplicity=2)


class TestChainConstant:
    def test_single_triple_convention(self):
        q1, r2, q3 = unit_square(), unit_square(dx=0.5), unit_square(dx=1.0)
        t = WhitneyTriple.from_cells(q1, r2, q3)
        chain = WhitneyChain(triples=(t,), link_volumes=(), multiplicity=1)
        p = 2.0
        b = deviation_bound(0.6, p)
        bound = chain_rule(chain, [b], p)
        assert bound.value**p == pytest.approx(2.0 ** (p - 1) * 0.6**p, rel=1e-12)

    def test_two_identical_triples_hand_value(self):
        # synthetic data: triple volumes 1, link 1, per-triple bound b, p = 2,
        # m = 2; recomputed per cell: C1 = (2 + 16*(1+2)) b^2, C2 = (2 + 16*2) b^2
        b_val = 0.7
        b = deviation_bound(b_val, 2.0)
        tiny1 = WhitneyTriple(
            unit_square(w=0.4), unit_square(dx=0.3, w=0.4), unit_square(dx=0.6, w=0.4),
            0.1, 0.1,
        )
        tiny2 = WhitneyTriple(
            unit_square(dx=0.6, w=0.4), unit_square(dx=0.9, w=0.4), unit_square(dx=1.2, w=0.4),
            0.1, 0.1,
        )
        assert tiny1.volume() == pytest.approx(1.0, rel=1e-12)
        chain = WhitneyChain(triples=(tiny1, tiny2), link_volumes=(1.0,), multiplicity=2)
        bound = chain_rule(chain, [b, b], 2.0)
        c1 = (2.0 + 16.0 * (1.0 * 1.0 + 2.0 * 1.0)) * b_val**2
        c2 = (2.0 + 16.0 * 2.0 * 1.0) * b_val**2
        assert c1 == 50.0 * b_val**2 and c2 == 34.0 * b_val**2
        assert bound.value**2 == pytest.approx(2.0 * c1, rel=1e-12)
        assert bound.value == pytest.approx(10.0 * b_val, rel=1e-12)

    def test_certificate_sum_and_multiplicity(self):
        chain = make_chain(3)
        b = deviation_bound(0.45, 2.0)
        bound = chain_rule(chain, [b] * 3, 2.0)
        assert bound.multiplicity == 2
        assert sum(t.value for t in bound.terms) == pytest.approx(bound.value**2, rel=1e-12)

    def test_monotone_in_link_volumes(self):
        chain = make_chain(2)
        b = deviation_bound(0.45, 2.0)
        base = chain_rule(chain, [b, b], 2.0).value
        shrunk = WhitneyChain(
            triples=chain.triples,
            link_volumes=tuple(v * 0.5 for v in chain.link_volumes),
            multiplicity=chain.multiplicity,
        )
        grown = WhitneyChain(
            triples=chain.triples,
            link_volumes=tuple(v * 2.0 for v in chain.link_volumes),
            multiplicity=chain.multiplicity,
        )
        assert chain_rule(shrunk, [b, b], 2.0).value >= base
        assert chain_rule(grown, [b, b], 2.0).value <= base

    def test_monotone_in_cell_volumes(self):
        rng = np.random.default_rng(3)
        b = deviation_bound(0.45, 2.0)
        for _ in range(20):
            heights = rng.uniform(0.8, 1.2, size=5)
            taller = heights.copy()
            taller[rng.integers(0, 5)] *= 1.5

            def build(hs):
                cells = [unit_square(dx=j * 0.5, h=hs[j]) for j in range(5)]
                t1 = WhitneyTriple(cells[0], cells[1], cells[2],
                                   0.5 * min(hs[0], hs[1]), 0.5 * min(hs[1], hs[2]))
                t2 = WhitneyTriple(cells[2], cells[3], cells[4],
                                   0.5 * min(hs[2], hs[3]), 0.5 * min(hs[3], hs[4]))
                chain = WhitneyChain(triples=(t1, t2), link_volumes=(1.0,), multiplicity=2)
                return chain_rule(chain, [b, b], 2.0).value

            assert build(taller) >= build(heights) - 1e-12

    def test_scaling_homogeneity(self):
        chain = make_chain(2)
        params = SpectralParams(p=2.0, n=2)
        bounds = [
            triple_constant(t.measures(), *(convex_cell_constant(c, params) for c in t.cells), 2.0)
            for t in chain.triples
        ]
        small = chain_rule(chain, bounds, 2.0)
        lam = 0.5
        scaled_triples = tuple(
            WhitneyTriple(
                t.q1.scaled(lam), t.r2.scaled(lam), t.q3.scaled(lam),
                t.v_q1r2 * lam**2, t.v_r2q3 * lam**2,
            )
            for t in chain.triples
        )
        scaled_chain = WhitneyChain(
            triples=scaled_triples,
            link_volumes=tuple(v * lam**2 for v in chain.link_volumes),
            multiplicity=chain.multiplicity,
        )
        scaled_bounds = [
            triple_constant(t.measures(), *(convex_cell_constant(c, params) for c in t.cells), 2.0)
            for t in scaled_triples
        ]
        big = chain_rule(scaled_chain, scaled_bounds, 2.0)
        assert big.value == pytest.approx(lam * small.value, rel=1e-12)

    def test_empty_chain_rejected(self):
        chain = make_chain(2)
        b = deviation_bound(0.45, 2.0)
        with pytest.raises(ValueError):
            chain_rule(chain, [b], 2.0)  # wrong number of bounds

    @pytest.mark.parametrize("p", [1.2, 2.0, 3.5, 6.0])
    def test_weights_match_double_sum(self, p):
        # the suffix-sum weights are the unreorganized double sum, regrouped
        rng = np.random.default_rng(round(10 * p))
        for num_triples in range(1, 9):
            for overlap in (0.1, 0.25, 0.5):
                chain, bounds = random_chain(rng, num_triples, overlap)
                args = (chain.volumes(), list(chain.link_volumes),
                        [b.bound_power() for b in bounds], p)
                coeffs, _ = _chain_coefficients(*args)
                assert coeffs == pytest.approx(chain_coefficients_double_sum(*args), rel=1e-12, abs=0.0)


class TestTreeConstant:
    def test_depth_zero_root_only(self):
        tree = build_snowflake_tree(FractalTreeSpec(a=1.0, depth=0))
        p = 2.0
        bounds = snowflake_level_bounds(tree, p)
        out = tree_constant(tree, bounds, p)
        assert out.value == pytest.approx(2.0 ** ((p - 1) / p) * bounds[0].value, rel=1e-12)

    def test_truncation_stability(self):
        # frozen from the level-sum evaluation: the depth-8 and depth-16
        # finite parts differ by ~8.8e-6 relative (ratio-(2/9) level decay)
        values = {}
        for depth in (8, 16):
            tree = build_snowflake_tree(FractalTreeSpec(a=1.0, depth=depth))
            values[depth] = tree_constant(tree, snowflake_level_bounds(tree, 2.0), 2.0).value
        rel = abs(values[8] - values[16]) / values[16]
        assert rel < 1e-5
        assert rel > 1e-7  # the truncation really moves the value

    def test_certificate_sum(self):
        tree = build_snowflake_tree(FractalTreeSpec(a=1.0, depth=6))
        out = tree_constant(tree, snowflake_level_bounds(tree, 2.0), 2.0)
        assert sum(t.value for t in out.terms) == pytest.approx(out.value**2, rel=1e-12)
        assert out.multiplicity == 2

    def test_per_level_weights_eventually_decreasing(self):
        tree = build_snowflake_tree(FractalTreeSpec(a=1.0, depth=12))
        out = tree_constant(tree, snowflake_level_bounds(tree, 2.0), 2.0)
        weights = [v for _, v in out.details]
        assert all(weights[j + 1] < weights[j] for j in range(1, len(weights) - 1))

    def test_rejects_empty_bounds(self):
        tree = build_snowflake_tree(FractalTreeSpec(a=1.0, depth=2))
        with pytest.raises(ValueError):
            tree_constant(tree, [], 2.0)


def envelope_term(spec, p, level):
    """Envelope e_j of the total level-j downstream weight of the tree rule."""
    return _envelope_base(spec, p) * level ** (p - 1.0) * (2.0 / 3.0**p) ** level


class TestSnowflakeTail:
    def test_tail_small_versus_finite_part(self):
        spec = FractalTreeSpec(a=1.0, depth=12)
        finite_part = sum(envelope_term(spec, 2.0, j) for j in range(1, 20))
        tail = snowflake_tail(spec, 2.0, start_level=20)
        assert 0.0 < tail < 1e-6 * finite_part

    def test_geometric_factor(self):
        spec = FractalTreeSpec(a=1.0, depth=12)
        # level terms behave like j * (2/9)^j at p = 2: ratio -> 2/9
        ratios = [
            envelope_term(spec, 2.0, j + 1) / envelope_term(spec, 2.0, j)
            for j in range(10, 15)
        ]
        for j, r in zip(range(10, 15), ratios):
            assert r == pytest.approx(((j + 1) / j) * 2.0 / 9.0, rel=1e-12)

    def test_decreasing_in_start_level(self):
        spec = FractalTreeSpec(a=1.0, depth=12)
        tails = [snowflake_tail(spec, 2.0, start_level=s) for s in (5, 10, 20, 40)]
        assert all(math.isfinite(t) and t > 0.0 for t in tails)
        assert all(a > b for a, b in zip(tails, tails[1:]))

    def test_start_beyond_cap_errors(self):
        spec = FractalTreeSpec(a=1.0, depth=12)
        with pytest.raises(SeriesError):
            snowflake_tail(spec, 2.0, start_level=SERIES_CAP + 1)

    def test_ratio_test_cap_exhaustion(self):
        with pytest.raises(SeriesError):
            ratio_test_tail(lambda k: 1.0, lambda k: 2.0, start=1)


class TestSnowflakeBound:
    def test_dominates_finite_tree(self):
        tree = build_snowflake_tree(FractalTreeSpec(a=1.0, depth=12))
        finite = tree_constant(tree, snowflake_level_bounds(tree, 2.0), 2.0)
        full = snowflake_bound(tree, 2.0)
        assert full.value >= finite.value
        assert (full.value - finite.value) / finite.value < 1e-6

    def test_certificate_sum(self):
        tree = build_snowflake_tree(FractalTreeSpec(a=1.0, depth=8))
        full = snowflake_bound(tree, 2.0)
        assert sum(t.value for t in full.terms) == pytest.approx(full.value**2, rel=1e-9)

    def test_depth_insensitivity(self):
        values = []
        for depth in (8, 12):
            tree = build_snowflake_tree(FractalTreeSpec(a=1.0, depth=depth))
            values.append(snowflake_bound(tree, 2.0).value)
        assert values[0] == pytest.approx(values[1], rel=1e-5)


class TestScaleFreeSnowflakeRules:
    """The tree and snowflake rules read the root side only through B^p."""

    @pytest.mark.parametrize("p", [1.2, 2.0, 3.0, 6.0])
    def test_ratios_match_area_sums(self, p):
        for depth in range(63):
            overlap = (0.05, 0.25, 0.5, 0.95)[depth % 4]
            tree = build_snowflake_tree(FractalTreeSpec(a=1.7, depth=depth, overlap_fraction=overlap))
            ratios = _downstream_ratios(tree, p)
            assert len(ratios) == depth + 1
            for j, level in enumerate(tree.levels):
                area_sum = _tree_downstream_weight(tree, j, p, depth) / level.star_area
                assert ratios[j] == pytest.approx(area_sum, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("a", [1e-100, 1e-30, 1e30, 1e100])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_bounds_scale_with_root_side(self, a, p):
        unit, scaled = (FractalTreeSpec(a=side, depth=12) for side in (1.0, a))
        # the root is within a few ulp of the exact root at every scale
        rel = 3e-15
        for rule in (lambda t: tree_constant(t, snowflake_level_bounds(t, p), p),
                     lambda t: snowflake_bound(t, p)):
            expected = a * rule(build_snowflake_tree(unit)).value
            assert rule(build_snowflake_tree(scaled)).value == pytest.approx(expected, rel=rel, abs=0.0)
        expected_tail = a**p * snowflake_tail(unit, p, 13)
        if expected_tail >= sys.float_info.min:
            assert snowflake_tail(scaled, p, 13) == pytest.approx(expected_tail, rel=1e-14, abs=0.0)
        else:  # a subnormal tail has lost its relative accuracy
            with pytest.raises(ValueError, match="start level 13"):
                snowflake_tail(scaled, p, 13)

    @pytest.mark.parametrize("a, p", [(1e-160, 2.0), (1e-200, 2.0), (1e150, 3.0)])
    def test_root_side_beyond_float_range_refused(self, a, p):
        # the large side overflows the level bounds, the small ones leave the
        # rules' certificate terms subnormal
        tree = build_snowflake_tree(FractalTreeSpec(a=a, depth=12))
        for rule in (lambda: tree_constant(tree, snowflake_level_bounds(tree, p), p),
                     lambda: snowflake_bound(tree, p)):
            with pytest.raises(ValueError, match=re.escape(f"root side a = {a:g} at p = {p:g}")):
                rule()

    @pytest.mark.parametrize("p, start", [(12.0, 63), (20.0, 41)])
    def test_underflowing_series_tail_refused(self, p, start):
        # the true tails are positive (~1e-321 at p = 12), so 0 is no upper bound
        spec = FractalTreeSpec(a=1.0, depth=start - 1)
        with pytest.raises(ValueError, match=f"p = {p:g} from start level {start}"):
            snowflake_tail(spec, p, start)


class TestRuleRoot:
    """Every combination rule takes its root B = (B^p)^(1/p) in _rule_bound."""

    def test_never_below_exact_root(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 256
        rng = np.random.default_rng(5)
        for power, p in zip(10.0 ** rng.uniform(-300, 300, 3000), rng.uniform(1.01, 12.0, 3000)):
            power, p = float(power), float(p)
            value = _rule_bound((CertTerm("x", "test", power),), power, p, FORM_INF).value
            exact = mpmath.mpf(power) ** (1 / mpmath.mpf(p))
            assert exact <= value <= exact * (1 + 8 * 2.0**-53)

    def test_diameter_rule_never_below_its_term(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 256
        rng = np.random.default_rng(6)
        for diam, p in zip(10.0 ** rng.uniform(-20, 20, 3000), rng.uniform(1.01, 12.0, 3000)):
            diam, p = float(diam), float(p)
            bound = _diameter_rule(diam, p, "cell")
            (term,) = bound.terms
            assert mpmath.mpf(bound.value) ** mpmath.mpf(p) >= mpmath.mpf(term.value)
            assert diam / pi_p(p) <= bound.value <= diam / pi_p(p) * (1 + 8 * 2.0**-53)

    @pytest.mark.parametrize("diam, p", [(1e-200, 6.0), (1e-100, 12.0), (1e-160, 2.0)])
    def test_diameter_rule_keeps_an_underflowing_value(self, diam, p):
        # deep snowflake levels underflow; their value stays diam / pi_p, unraised
        bound = _diameter_rule(diam, p, "level-62")
        assert bound.value == diam / pi_p(p)
        assert bound.terms[0].value < sys.float_info.min

    @pytest.mark.parametrize("power", [sys.float_info.max, math.nextafter(sys.float_info.max, 0)])
    def test_root_of_largest_float_refused(self, power):
        with pytest.raises(ValueError, match="test rule at p = 3 puts"):
            _rule_bound((CertTerm("x", "test", power),), power, 3.0, FORM_INF)


# Copies of chain_constant, tree_constant and snowflake_bound as they were
# before the three rules shared one max-weight aggregation. Only the names (and
# the snowflake copy's call of the tree copy) differ, except that none carries
# the former overflow note, which their draws never reach, and each takes its
# root with certified_root. The two helpers below are verbatim copies of the
# absolute-area sums the tree and snowflake rules used before they moved to
# scale-free ratios; the double sum gives the chain weights before their
# regrouping into suffix sums.


def _tree_downstream_weight(tree: FractalTree, j: int, p: float, depth: int) -> float:
    """sum_{i=j}^{depth} i^(p-1) * (#level-i descendants of one level-j cell) * |Δ_i*|."""
    total = 0.0
    for i in range(j, depth + 1):
        if i == 0:
            continue  # steps^(p-1) vanishes at the root itself
        count = snowflake_level_count(i) if j == 0 else 2 ** (i - j)
        total += i ** (p - 1.0) * count * tree.levels[i].star_area
    return total


def certified_root(power: float, p: float) -> float:
    """power^(1/p) by one Newton step from the plain root, raised until its
    p-th power lies two ulp above power."""
    value = power ** (1.0 / p)
    value *= 1.0 + (power / value**p - 1.0) / p
    floor = math.nextafter(math.nextafter(power, math.inf), math.inf)
    while value**p < floor:
        value = math.nextafter(value, math.inf)
    return value


def chain_coefficients_double_sum(
    volumes: list[float], links: list[float], bounds_pow: list[float], p: float
) -> list[float]:
    """The chain weights C_i accumulated by the unreorganized double sum."""
    j_count = len(volumes)
    coeffs = [2.0 ** (p - 1.0) * bp for bp in bounds_pow]
    if j_count == 1:
        return coeffs
    for j in range(j_count):
        outer = (j + 1) ** (p - 1.0) * volumes[j]
        for mu in range(j + 1):
            link = links[mu] if mu < j_count - 1 else links[j_count - 2]
            coeffs[mu] += 2.0 ** (2.0 * p) * outer * bounds_pow[mu] / link
    return coeffs


def _polynomial_geometric_constant(p: float, x: float) -> float:
    """Certified upper bound for sum_{k>=0} (k+1)^(p-1) x^k, 0 < x < 1."""
    explicit, k, rem = ratio_test_tail(
        lambda k: (k + 1) ** (p - 1.0) * x**k,
        lambda k: ((k + 2) / (k + 1)) ** (p - 1.0) * x,
        start=0,
    )
    return explicit + rem


def reference_chain_constant(
    chain: WhitneyChain, triple_bounds: list[PoincareBound], p: float
) -> PoincareBound:
    """Chain rule over Whitney triples A_1..A_J.

    The weighted-gradient estimate is collapsed to a single constant with
    the cover multiplicity m: B^p(W) = m * max_i C_i, valid against the
    choice c = f_{A_1} (inf-over-constants form).
    """
    if len(triple_bounds) != len(chain.triples):
        raise ValueError("need one triple bound per chain element")
    _require_deviation_form(triple_bounds, p)
    volumes = chain.volumes()
    links = list(chain.link_volumes)
    bounds_pow = [b.bound_power() for b in triple_bounds]
    coeffs, parts = _chain_coefficients(volumes, links, bounds_pow, p)
    m = chain.multiplicity
    best = max(range(len(coeffs)), key=lambda i: coeffs[i])
    notes = ["final cell reuses its trailing link; single-triple chains drop the link term"]
    first, second = parts[best]
    terms = [CertTerm(f"cell-{best + 1}-own", "chain-aggregation", m * first)]
    if second > 0.0:
        terms.append(CertTerm(f"cell-{best + 1}-links", "chain-aggregation", m * second))
    value = certified_root(m * coeffs[best], p)
    return PoincareBound(
        value=value,
        p=p,
        form=FORM_INF,
        terms=tuple(terms),
        multiplicity=m,
        details=tuple((f"C_{i + 1}", c) for i, c in enumerate(coeffs)),
        notes=tuple(notes),
    )


def reference_tree_constant(
    tree: FractalTree, cell_bounds: list[PoincareBound], p: float
) -> PoincareBound:
    """Tree rule over the stored depth of a fractal tree.

    Per-level weight (extended cells, all cells of a level being congruent):
    C_j = 2^(p-1) B^p(Δ_j*) (1 + S_j / |Δ_j*|), with S_j the downstream
    step-weighted measure sum; B^p(tree) = m * max_j C_j.
    """
    if not tree.levels:
        raise ValueError("tree has no cells")
    if len(cell_bounds) != len(tree.levels):
        raise ValueError("need one bound per tree level")
    _require_deviation_form(cell_bounds, p)
    depth = tree.depth
    coeffs = []
    pref = 2.0 ** (p - 1.0)
    for j, level in enumerate(tree.levels):
        s_j = _tree_downstream_weight(tree, j, p, depth)
        coeffs.append(pref * cell_bounds[j].bound_power() * (1.0 + s_j / level.star_area))
    m = tree.multiplicity
    best = max(range(len(coeffs)), key=lambda i: coeffs[i])
    s_best = _tree_downstream_weight(tree, best, p, depth)
    bp_best = cell_bounds[best].bound_power()
    own = pref * bp_best
    downstream = pref * bp_best * s_best / tree.levels[best].star_area
    terms = [CertTerm(f"level-{best}-own", "tree-aggregation", m * own)]
    if downstream > 0.0:
        terms.append(CertTerm(f"level-{best}-downstream", "tree-aggregation", m * downstream))
    value = certified_root(m * coeffs[best], p)
    return PoincareBound(
        value=value,
        p=p,
        form=FORM_INF,
        terms=tuple(terms),
        multiplicity=m,
        details=tuple((f"C_level_{j}", c) for j, c in enumerate(coeffs)),
    )


def reference_snowflake_bound(
    tree: FractalTree, p: float, cell_bounds: list[PoincareBound] | None = None
) -> PoincareBound:
    """Bound for the infinite snowflake, not just the stored depth.

    Extends every per-level weight C_j with a certified tail for the
    downstream levels beyond the stored depth, and dominates the weights of
    all unstored levels by a strictly decreasing envelope evaluated at
    depth+1. The certificate separates the finite part from the tail terms.
    """
    spec = tree.spec
    if cell_bounds is None:
        cell_bounds = snowflake_level_bounds(tree, p)
    if len(cell_bounds) != len(tree.levels):
        raise ValueError("need one bound per tree level")
    depth = tree.depth
    pref = 2.0 ** (p - 1.0)

    # certified bound for T = sum_{i>depth} i^(p-1) 2^i |Δ_i*|
    def t_term(i: int) -> float:
        return i ** (p - 1.0) * 2.0**i * snowflake_level(spec, i).star_area

    def t_ratio(i: int) -> float:
        return ((i + 1) / i) ** (p - 1.0) * (2.0 / 9.0)

    t_explicit, _, t_rem = ratio_test_tail(t_term, t_ratio, start=depth + 1)
    t_tail = t_explicit + t_rem

    coeffs = []
    split = []  # per level: own, downstream and tail weight
    for j, level in enumerate(tree.levels):
        s_finite = _tree_downstream_weight(tree, j, p, depth)
        share = 1.5 if j == 0 else 2.0**-j
        s_total = s_finite + share * t_tail
        own = pref * cell_bounds[j].bound_power()
        coeffs.append(own * (1.0 + s_total / level.star_area))
        split.append((own, own * s_finite / level.star_area, own * share * t_tail / level.star_area))

    # envelope for the weights of levels beyond the stored depth:
    # E(j) = 2^(p-1) B^p(Δ_j*) (1 + j^(p-1) Z), decreasing by a factor
    # <= 2^(p-1)/3^p < 1 per level
    z = _polynomial_geometric_constant(p, 2.0 / 9.0)
    j_next = depth + 1
    envelope = (
        pref
        * (snowflake_level(spec, j_next).star_side / pi_p(p)) ** p
        * (1.0 + j_next ** (p - 1.0) * z)
    )

    m = 2  # the infinite tree always has extended cells overlapping parents
    candidates = coeffs + [envelope]
    best = max(range(len(candidates)), key=lambda i: candidates[i])
    value = certified_root(m * candidates[best], p)
    if best < len(coeffs):
        own, downstream, tail_power = (m * v for v in split[best])
        terms = tuple(CertTerm(f"level-{best}-{label}", rule, v) for label, rule, v in (
            ("own", "tree-aggregation", own), ("downstream", "tree-aggregation", downstream),
            ("tail", "tail-ratio-test", tail_power)) if label == "own" or v > 0.0)
    else:
        tail_power = m * envelope
        terms = (CertTerm(f"level-{j_next}-envelope", "tail-ratio-test", tail_power),)
    finite_tree = reference_tree_constant(tree, cell_bounds, p)
    return PoincareBound(
        value=value,
        p=p,
        form=FORM_INF,
        terms=terms,
        multiplicity=m,
        details=(
            ("finite-depth-bound", finite_tree.value),
            ("downstream-tail-weight", t_tail),
            ("beyond-depth-envelope", envelope),
            ("tail-increment-power", tail_power),
        ),
        notes=(
            "covers the infinite tree: stored levels carry certified downstream tails, "
            "deeper levels are dominated by a decreasing envelope",
        ),
    )


def random_chain(rng, num_triples, overlap):
    """A row of 2J + 1 rectangles of one width and random heights, grouped
    into J triples; an overlap fraction up to 1/2 keeps outer cells disjoint."""
    width = rng.uniform(0.6, 1.6)
    cells = [unit_square(dx=j * width * (1.0 - overlap), dy=rng.uniform(-0.2, 0.2), w=width,
                         h=rng.uniform(0.7, 1.3))
             for j in range(2 * num_triples + 1)]
    triples = [WhitneyTriple.from_cells(*cells[2 * i : 2 * i + 3]) for i in range(num_triples)]
    chain = WhitneyChain.from_triples(triples, multiplicity=min(2, num_triples))
    bounds = [deviation_bound(rng.uniform(0.2, 3.0), 2.0) for _ in triples]
    return chain, bounds


def assert_same_certificate(new, ref, rel):
    """Equal payloads, floats to a relative tolerance; every other field,
    and the type of each, exactly."""
    assert type(new) is type(ref)
    if isinstance(ref, dict):
        assert list(new) == list(ref)
        for key in ref:
            assert_same_certificate(new[key], ref[key], rel)
    elif isinstance(ref, list):
        assert len(new) == len(ref)
        for x, y in zip(new, ref):
            assert_same_certificate(x, y, rel)
    elif isinstance(ref, float):
        assert new == pytest.approx(ref, rel=rel, abs=0.0)
    else:
        assert new == ref


class TestMaxWeightAggregationMatchesReference:
    """The shared aggregation reproduces the three rules' former certificates;
    the tree and snowflake rules, which now sum scale-free ratios where the
    references sum absolute areas, agree in every field but the last bits of
    their floats."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.0, 6.0])
    def test_chains(self, p):
        rng = np.random.default_rng(round(10 * p))
        for num_triples in range(1, 9):
            for overlap in (0.1, 0.25, 0.4, 0.5):
                chain, bounds = random_chain(rng, num_triples, overlap)
                bounds = [deviation_bound(b.value, p) for b in bounds]
                assert (chain_rule(chain, bounds, p).to_dict()
                        == reference_chain_constant(chain, bounds, p).to_dict())

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.0, 6.0])
    def test_trees_and_snowflakes(self, p):
        for depth in range(63):
            overlap = (0.05, 0.25, 0.5, 0.95)[depth % 4]
            tree = build_snowflake_tree(FractalTreeSpec(a=1.7, depth=depth, overlap_fraction=overlap))
            bounds = snowflake_level_bounds(tree, p)
            assert_same_certificate(tree_constant(tree, bounds, p).to_dict(),
                                    reference_tree_constant(tree, bounds, p).to_dict(), 1e-13)
            # shrunken stored-level bounds let the beyond-depth envelope win
            for scale in (1.0, 0.01):
                scaled = [deviation_bound(scale * b.value, p) for b in bounds]
                assert_same_certificate(snowflake_bound(tree, p, scaled).to_dict(),
                                        reference_snowflake_bound(tree, p, scaled).to_dict(), 1e-13)
