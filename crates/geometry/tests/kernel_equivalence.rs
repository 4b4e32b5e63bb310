//! Bit-identity proofs for the chunked kernels of
//! [`wnrs_geometry::kernels`].
//!
//! Every shipped kernel must be indistinguishable from its scalar
//! reference loop — not merely "close": predicates agree on every input
//! (ties, signed zeros, strictness carried only by the last lane) and
//! numeric kernels agree **bit for bit** (`to_bits` equality), across
//! dimensionalities 1..=16 so every tail length `0..4 mod 4` and both
//! sides of the `dim_dispatch!` fixed/generic split are exercised.

use proptest::prelude::*;
use wnrs_geometry::kernels;
use wnrs_geometry::Point;

/// Maps a `(selector, grid, wide)` draw onto one coordinate, drawn from
/// a small integer-ish grid most of the time so exact ties (and
/// therefore the `!gt && lt` edge of the predicate) occur often, mixed
/// with signed zeros and wide-range values.
fn mix_coord(sel: u8, grid: i32, wide: f64) -> f64 {
    match sel {
        0..=3 => f64::from(grid) * 0.5,
        4 | 5 => wide,
        6 => 0.0,
        _ => -0.0,
    }
}

/// A vector of `n` mixed coordinates (see [`mix_coord`]).
fn arb_coords(n: impl Into<proptest::SizeRange>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u8..8, -8i32..9, -1000.0f64..1000.0), n)
        .prop_map(|v| v.into_iter().map(|(s, g, w)| mix_coord(s, g, w)).collect())
}

fn arb_dim() -> impl Strategy<Value = usize> {
    1usize..17
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dominates_chunked_matches_scalar(dim in arb_dim(), seed in arb_coords(32)) {
        let a = &seed[..dim];
        let b = &seed[16..16 + dim];
        prop_assert_eq!(
            kernels::dominates_chunked(a, b),
            kernels::dominates_scalar(a, b)
        );
        // Irreflexivity survives chunking (pure-tie row).
        prop_assert!(!kernels::dominates_chunked(a, a));
    }

    #[test]
    fn dominates_dyn_chunked_matches_scalar(dim in arb_dim(), seed in arb_coords(48)) {
        let a = &seed[..dim];
        let b = &seed[16..16 + dim];
        let q = &seed[32..32 + dim];
        prop_assert_eq!(
            kernels::dominates_dyn_chunked(a, b, q),
            kernels::dominates_dyn_scalar(a, b, q)
        );
    }

    #[test]
    fn dominates_global_chunked_matches_scalar(dim in arb_dim(), seed in arb_coords(48)) {
        let a = &seed[..dim];
        let b = &seed[16..16 + dim];
        let q = &seed[32..32 + dim];
        prop_assert_eq!(
            kernels::dominates_global_chunked(a, b, q),
            kernels::dominates_global_scalar(a, b, q)
        );
    }

    #[test]
    fn min_l1_chunked_matches_scalar_bitwise(
        dim in arb_dim(),
        seed in arb_coords(32),
        ext in prop::collection::vec(0.0f64..500.0, 16),
    ) {
        let lo = &seed[..dim];
        let hi: Vec<f64> = (0..dim).map(|i| lo[i] + ext[i]).collect();
        let q = &seed[16..16 + dim];
        let s = kernels::min_l1_scalar(lo, &hi, q);
        let c = kernels::min_l1_chunked(lo, &hi, q);
        prop_assert_eq!(s.to_bits(), c.to_bits());
    }

    #[test]
    fn min_dists_chunked_matches_scalar_bitwise(
        dim in arb_dim(),
        seed in arb_coords(32),
        ext in prop::collection::vec(0.0f64..500.0, 16),
    ) {
        let lo = &seed[..dim];
        let hi: Vec<f64> = (0..dim).map(|i| lo[i] + ext[i]).collect();
        let q = &seed[16..16 + dim];
        let mut scalar = Vec::new();
        let mut chunked = Vec::new();
        kernels::min_dists_into_scalar(lo, &hi, q, &mut scalar);
        kernels::min_dists_into_chunked(lo, &hi, q, &mut chunked);
        prop_assert_eq!(scalar.len(), chunked.len());
        for (s, c) in scalar.iter().zip(chunked.iter()) {
            prop_assert_eq!(s.to_bits(), c.to_bits());
        }
    }

    // The batched block kernels must agree with a plain per-row scalar
    // fold.
    #[test]
    fn block_kernels_match_rowwise_reference(
        dim in arb_dim(),
        block_seed in arb_coords(0..1024),
        t_seed in arb_coords(16),
    ) {
        let rows = block_seed.len() / dim;
        let block = &block_seed[..rows * dim];
        let t = &t_seed[..dim];
        let want_any = block
            .chunks_exact(dim)
            .any(|row| kernels::dominates_scalar(row, t));
        let want_count = block
            .chunks_exact(dim)
            .filter(|row| kernels::dominates_scalar(row, t))
            .count();
        prop_assert_eq!(kernels::any_dominates_block(block, dim, t), want_any);
        prop_assert_eq!(kernels::count_dominating_block(block, dim, t), want_count);
    }

    #[test]
    fn point_batch_helpers_match_pairwise_reference(
        dim in arb_dim(),
        block in arb_coords(0..512),
        seed in arb_coords(32),
    ) {
        let rows = block.len() / dim;
        let points: Vec<Point> = block[..rows * dim]
            .chunks_exact(dim)
            .map(|row| Point::new(row.to_vec()))
            .collect();
        let b = Point::new(seed[..dim].to_vec());
        let q = Point::new(seed[16..16 + dim].to_vec());
        prop_assert_eq!(
            kernels::any_dominates_dyn_points(&points, &b, &q),
            points
                .iter()
                .any(|p| kernels::dominates_dyn_scalar(p.coords(), b.coords(), q.coords()))
        );
        prop_assert_eq!(
            kernels::any_dominates_global_points(&points, b.coords(), &q),
            points
                .iter()
                .any(|p| kernels::dominates_global_scalar(p.coords(), b.coords(), q.coords()))
        );
    }

    #[test]
    fn strict_in_last_lane_only(dim in arb_dim(), base in arb_coords(16)) {
        // a ties b everywhere except the very last coordinate, where it
        // is strictly smaller: dominance must hold, and the symmetric
        // pair must not — the chunked tail carries the strictness bit.
        let a: Vec<f64> = base[..dim].to_vec();
        let mut b = a.clone();
        b[dim - 1] += 1.0;
        prop_assert!(kernels::dominates_chunked(&a, &b));
        prop_assert!(kernels::dominates_scalar(&a, &b));
        prop_assert!(!kernels::dominates_chunked(&b, &a));
    }

    #[test]
    fn blocks_with_strip_boundaries(dim in 1usize..9, t in arb_coords(8)) {
        // Deterministic block sized just past two strip widths so the
        // chunked path's full-strip/tail split is crossed: 129 rows of
        // alternating-sign magnitudes.
        let rows = 129usize;
        let block: Vec<f64> = (0..rows)
            .flat_map(|r| {
                let v = if r % 2 == 0 { r as f64 } else { -(r as f64) };
                std::iter::repeat_n(v, dim)
            })
            .collect();
        let t = &t[..dim];
        let want = block
            .chunks_exact(dim)
            .filter(|row| kernels::dominates_scalar(row, t))
            .count();
        prop_assert_eq!(kernels::count_dominating_block(&block, dim, t), want);
        prop_assert_eq!(kernels::any_dominates_block(&block, dim, t), want > 0);
    }
}
