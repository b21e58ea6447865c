import math

import numpy as np
import pytest

from neumann_bounds.geometry import (
    ConvexCell,
    FractalTreeSpec,
    WhitneyChain,
    WhitneyTriple,
    build_snowflake_tree,
    cell_volume,
)
from neumann_bounds.poincare import (
    FORM_DEVIATION,
    SERIES_CAP,
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
    snowflake_envelope_term,
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
        pair = pair_constant(q1, q2, 0.5, b, b, 2.0)
        assert pair.value**2 == pytest.approx(64.0 / math.pi**2, rel=1e-12)
        assert pair.value == pytest.approx(2.5464790894703255, rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.5])
    def test_identical_cells_collapse(self, p):
        q = unit_square()
        b = deviation_bound(0.37, p)
        pair = pair_constant(q, q, cell_volume(q), b, b, p)
        assert pair.value**p == pytest.approx(2.0 ** (2 * p) * 0.37**p, rel=1e-12)

    def test_nonpositive_overlap(self):
        q = unit_square()
        b = deviation_bound(0.3, 2.0)
        with pytest.raises(ValueError):
            pair_constant(q, q, 0.0, b, b, 2.0)

    def test_certificate_sum(self):
        q1, q2 = unit_square(), unit_square(dx=0.25)
        b = deviation_bound(0.4, 2.0)
        pair = pair_constant(q1, q2, 0.75, b, b, 2.0)
        assert sum(t.value for t in pair.terms) == pytest.approx(pair.value**2, rel=1e-12)

    def test_scaling_homogeneity(self):
        lam = 2.0
        q1, q2 = unit_square(), unit_square(dx=0.5)
        params = SpectralParams(p=2.0, n=2)
        b1 = convex_cell_constant(q1, params)
        small = pair_constant(q1, q2, 0.5, b1, b1, 2.0)
        q1s, q2s = q1.scaled(lam), q2.scaled(lam)
        b1s = convex_cell_constant(q1s, params)
        big = pair_constant(q1s, q2s, 0.5 * lam**2, b1s, b1s, 2.0)
        assert big.value == pytest.approx(lam * small.value, rel=1e-12)


class TestTripleConstant:
    def make_row_triple(self):
        q1, r2, q3 = unit_square(), unit_square(dx=0.5), unit_square(dx=1.0)
        return WhitneyTriple.from_cells(q1, r2, q3)

    def test_three_squares_in_a_row(self):
        t = self.make_row_triple()
        b = convex_cell_constant(t.q1, SpectralParams(p=2.0, n=2))
        trip = triple_constant(t, b, b, b, 2.0)
        assert trip.value**2 == pytest.approx(3072.0 / math.pi**2, rel=1e-12)
        assert trip.value == pytest.approx(17.642524653497347, rel=1e-12)

    def test_symmetric_triple_terms_equal(self):
        t = self.make_row_triple()
        b = deviation_bound(0.5, 2.0)
        trip = triple_constant(t, b, b, b, 2.0)
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
        trip = triple_constant(t, b1, b2, b3, p)
        v1, v2, v3 = cell_volume(q1), cell_volume(r2), cell_volume(q3)
        u12, u32 = v1 + v2 - t.v_q1r2, v3 + v2 - t.v_r2q3
        expected = 2.0 ** (4 * p - 1) * (
            (u12 / v2) * (v1 / t.v_q1r2) * 0.3**p
            + (u12 / t.v_q1r2 + u32 / t.v_r2q3) * 0.5**p
            + (u32 / v2) * (v3 / t.v_r2q3) * 0.4**p
        )
        assert trip.value**p == pytest.approx(expected, rel=1e-12)


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
        bound = chain_constant(chain, [b], p)
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
        bound = chain_constant(chain, [b, b], 2.0)
        c1 = (2.0 + 16.0 * (1.0 * 1.0 + 2.0 * 1.0)) * b_val**2
        c2 = (2.0 + 16.0 * 2.0 * 1.0) * b_val**2
        assert c1 == 50.0 * b_val**2 and c2 == 34.0 * b_val**2
        assert bound.value**2 == pytest.approx(2.0 * c1, rel=1e-12)
        assert bound.value == pytest.approx(10.0 * b_val, rel=1e-12)

    def test_certificate_sum_and_multiplicity(self):
        chain = make_chain(3)
        b = deviation_bound(0.45, 2.0)
        bound = chain_constant(chain, [b] * 3, 2.0)
        assert bound.multiplicity == 2
        assert sum(t.value for t in bound.terms) == pytest.approx(bound.value**2, rel=1e-12)

    def test_monotone_in_link_volumes(self):
        chain = make_chain(2)
        b = deviation_bound(0.45, 2.0)
        base = chain_constant(chain, [b, b], 2.0).value
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
        assert chain_constant(shrunk, [b, b], 2.0).value >= base
        assert chain_constant(grown, [b, b], 2.0).value <= base

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
                return chain_constant(chain, [b, b], 2.0).value

            assert build(taller) >= build(heights) - 1e-12

    def test_scaling_homogeneity(self):
        chain = make_chain(2)
        params = SpectralParams(p=2.0, n=2)
        bounds = [
            triple_constant(t, *(convex_cell_constant(c, params) for c in t.cells), 2.0)
            for t in chain.triples
        ]
        small = chain_constant(chain, bounds, 2.0)
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
            triple_constant(t, *(convex_cell_constant(c, params) for c in t.cells), 2.0)
            for t in scaled_triples
        ]
        big = chain_constant(scaled_chain, scaled_bounds, 2.0)
        assert big.value == pytest.approx(lam * small.value, rel=1e-12)

    def test_empty_chain_rejected(self):
        chain = make_chain(2)
        b = deviation_bound(0.45, 2.0)
        with pytest.raises(ValueError):
            chain_constant(chain, [b], 2.0)  # wrong number of bounds

    def test_double_sum_reorganization_agrees(self):
        # the reorganized suffix form and the raw double sum are the same
        # weights; any drift would be flagged in the certificate notes
        chain = make_chain(4)
        b = deviation_bound(0.45, 2.0)
        bound = chain_constant(chain, [b] * 4, 2.0)
        assert not any("drifted" in note for note in bound.notes)


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


class TestSnowflakeTail:
    def test_tail_small_versus_finite_part(self):
        spec = FractalTreeSpec(a=1.0, depth=12)
        finite_part = sum(snowflake_envelope_term(spec, 2.0, j) for j in range(1, 20))
        tail = snowflake_tail(spec, 2.0, start_level=20)
        assert 0.0 < tail < 1e-6 * finite_part

    def test_geometric_factor(self):
        spec = FractalTreeSpec(a=1.0, depth=12)
        # level terms behave like j * (2/9)^j at p = 2: ratio -> 2/9
        ratios = [
            snowflake_envelope_term(spec, 2.0, j + 1) / snowflake_envelope_term(spec, 2.0, j)
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
