//! Aspect 1: explaining *why* the customer is missing.

use wnrs_geometry::Point;
use wnrs_reverse_skyline::window_query_with;
use wnrs_rtree::{ItemId, NodeSource, WindowScratch};

/// The answer to "why is `c_t` not in `RSL(q)`?": the products the
/// customer finds more interesting than `q`.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// `Λ = window_query(c_t, q)` — every product dynamically dominating
    /// `q` with respect to `c_t`. Empty iff `c_t ∈ RSL(q)`.
    pub culprits: Vec<(ItemId, Point)>,
}

impl Explanation {
    /// Whether the customer is already a reverse-skyline point (nothing
    /// to explain).
    pub fn is_member(&self) -> bool {
        self.culprits.is_empty()
    }
}

/// Computes the explanation (Section III, first aspect): deleting every
/// culprit from `P` would admit `c_t` into `RSL(q)` (Lemma 1).
///
/// # Errors
///
/// Returns the index's error when a node read fails.
pub fn explain<S: NodeSource>(
    products: &S,
    c_t: &Point,
    q: &Point,
    exclude: Option<ItemId>,
) -> Result<Explanation, S::Error> {
    let _span = wnrs_obs::span!("explain");
    Ok(Explanation {
        culprits: window_query_with(products, c_t, q, exclude, &mut WindowScratch::new())?
            .to_items(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::{into_ok, RTreeConfig};

    #[test]
    fn paper_example_c1_prefers_p2() {
        let products = vec![
            Point::xy(7.5, 42.0),  // p2
            Point::xy(2.5, 70.0),  // p3
            Point::xy(7.5, 90.0),  // p4
            Point::xy(24.0, 20.0), // p5
            Point::xy(20.0, 50.0), // p6
            Point::xy(26.0, 70.0), // p7
            Point::xy(16.0, 80.0), // p8
        ];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let ex = into_ok(explain(
            &tree,
            &Point::xy(5.0, 30.0),
            &Point::xy(8.5, 55.0),
            None,
        ));
        assert!(!ex.is_member());
        assert_eq!(ex.culprits.len(), 1);
        assert!(ex.culprits[0].1.same_location(&Point::xy(7.5, 42.0)));
    }

    #[test]
    fn member_has_empty_explanation() {
        let products = vec![Point::xy(90.0, 90.0)];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let ex = into_ok(explain(
            &tree,
            &Point::xy(10.0, 10.0),
            &Point::xy(12.0, 12.0),
            None,
        ));
        assert!(ex.is_member());
    }
}
