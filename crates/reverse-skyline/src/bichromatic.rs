//! Index-accelerated bichromatic reverse skylines.
//!
//! The paper's bichromatic setting (distinct product set `P` and
//! customer set `C`) is evaluated naively — one window query per
//! customer. When customers are also indexed by an R\*-tree, whole
//! customer subtrees can be classified at once:
//!
//! * **All-out pruning** — a product `p` *blocks* an entire customer MBR
//!   `B` when `p` dynamically dominates `q` with respect to *every*
//!   `c ∈ B`. Per dimension this is a half-space test against the
//!   `p`/`q` midpoint hyperplane `m_i = (p_i + q_i)/2`: every customer
//!   in `B` is closer to `p` than to `q` iff `B` lies on `p`'s side.
//!   One such blocker disqualifies the whole subtree.
//! * **All-in pruning** — the union of the window rectangles of every
//!   `c ∈ B` is itself a rectangle (`[min(2·lo − q, q), max(2·hi − q,
//!   q)]` per dimension). If it contains no product at all, no customer
//!   in `B` can have a blocker: the whole subtree joins the reverse
//!   skyline.
//!
//! Subtrees that are neither fully blocked nor fully clear are
//! recursed; leaves fall back to the exact per-customer test. The
//! result is identical to [`crate::naive::rsl_bichromatic`].

use crate::window::is_reverse_skyline_member;
use wnrs_geometry::{Point, Rect};
use wnrs_rtree::{Child, ItemId, NodeId, RTree};

/// Whether product `p` dynamically dominates `q` w.r.t. **every** point
/// of the box `B` (sufficient condition: a common strict witness
/// dimension).
fn blocks_whole_box(p: &[f64], q: &Point, b: &Rect) -> bool {
    let d = q.dim();
    let mut strict = false;
    for i in 0..d {
        if p[i] == q[i] {
            // Equidistant for every c: fine, but never strict.
            continue;
        }
        let m = 0.5 * (p[i] + q[i]);
        if p[i] < q[i] {
            // Customers must sit at or below the midpoint.
            if b.hi()[i] > m {
                return false;
            }
            if b.hi()[i] < m {
                strict = true;
            }
        } else {
            if b.lo()[i] < m {
                return false;
            }
            if b.lo()[i] > m {
                strict = true;
            }
        }
    }
    strict
}

/// The union of the window rectangles of every customer in `B`: per
/// dimension, a customer at `c` spans `[min(2c − q, q), max(2c − q, q)]`.
fn union_window(b: &Rect, q: &Point) -> Rect {
    let d = q.dim();
    let mut lo = Vec::with_capacity(d);
    let mut hi = Vec::with_capacity(d);
    for i in 0..d {
        // Same rounding pad as `Rect::window` so every member window is
        // covered despite f64 round-trip loss (all-in pruning must stay
        // conservative).
        let pad = 16.0 * f64::EPSILON * (b.lo()[i].abs().max(b.hi()[i].abs()) + q[i].abs());
        lo.push((2.0 * b.lo()[i] - q[i]).min(q[i]) - pad);
        hi.push((2.0 * b.hi()[i] - q[i]).max(q[i]) + pad);
    }
    Rect::new(Point::new(lo), Point::new(hi))
}

/// Looks for a single product that blocks the whole customer box: probes
/// the blockers of the box centre (any whole-box blocker necessarily
/// blocks the centre too, so the centre's window query is a complete
/// candidate list).
fn find_whole_box_blocker(products: &RTree, b: &Rect, q: &Point) -> bool {
    // Heuristic gate: a box with extent comparable to its distance from
    // q is essentially never whole-box blocked (its members straddle the
    // midpoint hyperplanes), and probing it would scan a huge window.
    // Skipping the probe only costs a recursion, never correctness.
    let center = b.center();
    let spread: f64 = (0..b.dim()).map(|i| b.extent(i)).sum();
    if spread > center.l1(q) {
        return false;
    }
    // Early-exit traversal: stop at the first product that blocks the
    // whole box (window_any reports a surviving candidate; "skip"
    // everything that is not a whole-box blocker).
    let window = Rect::window(&center, q);
    products.window_any(&window, |_, p| !blocks_whole_box(p, q, b))
}

/// Bichromatic reverse skyline with customer-tree pruning. Returns the
/// item ids of the member customers, sorted. Exactly equivalent to
/// testing every customer individually.
pub fn rsl_bichromatic_indexed(products: &RTree, customers: &RTree, q: &Point) -> Vec<ItemId> {
    assert_eq!(products.dim(), q.dim(), "product dimensionality mismatch");
    assert_eq!(customers.dim(), q.dim(), "customer dimensionality mismatch");
    let mut members = Vec::new();
    if !customers.is_empty() {
        classify(products, customers, customers.root(), q, &mut members);
    }
    members.sort_unstable();
    members
}

fn collect_subtree(customers: &RTree, node: NodeId, out: &mut Vec<ItemId>) {
    let n = customers.node(node);
    for e in n.entries() {
        match e.child() {
            Child::Item(id) => out.push(id),
            Child::Node(c) => collect_subtree(customers, c, out),
        }
    }
}

fn classify(products: &RTree, customers: &RTree, node: NodeId, q: &Point, out: &mut Vec<ItemId>) {
    customers.record_visit();
    let n = customers.node(node);
    for e in n.entries() {
        match e.child() {
            Child::Item(id) => {
                if is_reverse_skyline_member(products, e.point(), q, None) {
                    out.push(id);
                }
            }
            Child::Node(child) => {
                let b = e.rect();
                // All-in: no product anywhere in the union window.
                if !products.window_any(&union_window(b, q), |_, _| false) {
                    collect_subtree(customers, child, out);
                    continue;
                }
                // All-out: one product blocks the entire box.
                if find_whole_box_blocker(products, b, q) {
                    continue;
                }
                classify(products, customers, child, q, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::rsl_bichromatic;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::RTreeConfig;

    fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| Point::xy(next() * 100.0, next() * 100.0))
            .collect()
    }

    #[test]
    fn matches_naive_on_random_data() {
        for seed in [1u64, 5, 9, 13] {
            let products = pseudo_points(400, seed);
            let customers = pseudo_points(300, seed ^ 0xFF);
            let pt = bulk_load(&products, RTreeConfig::with_max_entries(8));
            let ct = bulk_load(&customers, RTreeConfig::with_max_entries(8));
            let q = Point::xy(47.0, 61.0);
            let got: Vec<u32> = rsl_bichromatic_indexed(&pt, &ct, &q)
                .iter()
                .map(|id| id.0)
                .collect();
            let want: Vec<u32> = rsl_bichromatic(&pt, &customers, &q)
                .iter()
                .map(|&i| i as u32)
                .collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn matches_naive_with_clustered_customers() {
        // Clustering makes whole-box pruning actually fire.
        let products = pseudo_points(500, 3);
        let mut customers = Vec::new();
        for (cx, cy) in [(10.0, 10.0), (80.0, 80.0), (20.0, 85.0)] {
            for i in 0..100 {
                let f = i as f64;
                customers.push(Point::xy(cx + (f * 0.03) % 3.0, cy + (f * 0.07) % 3.0));
            }
        }
        let pt = bulk_load(&products, RTreeConfig::with_max_entries(8));
        let ct = bulk_load(&customers, RTreeConfig::with_max_entries(8));
        let q = Point::xy(50.0, 50.0);
        let got: Vec<u32> = rsl_bichromatic_indexed(&pt, &ct, &q)
            .iter()
            .map(|id| id.0)
            .collect();
        let want: Vec<u32> = rsl_bichromatic(&pt, &customers, &q)
            .iter()
            .map(|&i| i as u32)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pruning_saves_customer_node_visits() {
        let products = pseudo_points(500, 7);
        let mut customers = Vec::new();
        // One far-away dense blocked cluster + a sparse mixed set.
        for i in 0..500 {
            let f = i as f64;
            customers.push(Point::xy((f * 0.01) % 4.0, (f * 0.013) % 4.0));
        }
        customers.extend(pseudo_points(100, 11));
        let pt = bulk_load(&products, RTreeConfig::with_max_entries(8));
        let ct = bulk_load(&customers, RTreeConfig::with_max_entries(8));
        let q = Point::xy(50.0, 50.0);
        ct.reset_visits();
        let _ = rsl_bichromatic_indexed(&pt, &ct, &q);
        assert!(
            (ct.node_visits() as usize) < ct.node_count(),
            "pruning should skip customer subtrees: visited {} of {}",
            ct.node_visits(),
            ct.node_count()
        );
    }

    #[test]
    fn whole_box_blocker_test() {
        let q = Point::xy(10.0, 10.0);
        let p = [0.0, 0.0];
        // Midpoints are (5, 5): boxes strictly below-left are blocked.
        assert!(blocks_whole_box(
            &p,
            &q,
            &Rect::new(Point::xy(0.0, 0.0), Point::xy(4.0, 4.0))
        ));
        // Touching the midpoint in one dim is still blocked (weak) if
        // strict in the other.
        assert!(blocks_whole_box(
            &p,
            &q,
            &Rect::new(Point::xy(0.0, 0.0), Point::xy(5.0, 4.0))
        ));
        // Tie everywhere: not a strict dominator.
        assert!(!blocks_whole_box(
            &p,
            &q,
            &Rect::new(Point::xy(0.0, 0.0), Point::xy(5.0, 5.0))
        ));
        // Crossing the midpoint: some customers prefer q.
        assert!(!blocks_whole_box(
            &p,
            &q,
            &Rect::new(Point::xy(0.0, 0.0), Point::xy(6.0, 4.0))
        ));
    }

    #[test]
    fn union_window_covers_member_windows() {
        let q = Point::xy(10.0, 20.0);
        let b = Rect::new(Point::xy(0.0, 0.0), Point::xy(4.0, 4.0));
        let u = union_window(&b, &q);
        for &(cx, cy) in &[(0.0, 0.0), (4.0, 4.0), (2.0, 3.0), (0.0, 4.0)] {
            let w = Rect::window(&Point::xy(cx, cy), &q);
            assert!(
                u.contains_rect(&w),
                "window of ({cx},{cy}) escapes the union"
            );
        }
    }

    #[test]
    fn empty_customer_tree() {
        let products = pseudo_points(50, 1);
        let pt = bulk_load(&products, RTreeConfig::with_max_entries(8));
        let ct = RTree::new(2, RTreeConfig::with_max_entries(8));
        assert!(rsl_bichromatic_indexed(&pt, &ct, &Point::xy(1.0, 1.0)).is_empty());
    }
}
