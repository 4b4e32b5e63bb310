//! Bichromatic scenario: products and customer preferences are distinct
//! datasets (the paper's Definition 3 setting). An online marketplace
//! has a product catalogue and a separately collected set of customer
//! preference profiles; it evaluates a new listing against both.
//!
//! ```sh
//! cargo run --release --example bichromatic_market
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wnrs::core::{Customer, Question, Reply};
use wnrs::prelude::*;
use wnrs::reverse_skyline::rsl_bichromatic_indexed;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    // Catalogue: 30K cars on the market.
    let catalogue = wnrs::data::cardb(&mut rng, 30_000);
    // Preferences: 10K customer profiles, clustered around popular
    // configurations (people want similar cars).
    let unit = wnrs::data::clustered(&mut rng, 10_000, 2, 8, 0.02);
    let (plo, phi) = wnrs::data::cardb::PRICE_RANGE;
    let (mlo, mhi) = wnrs::data::cardb::MILEAGE_RANGE;
    let preferences: Vec<Point> = unit
        .iter()
        .map(|p| {
            Point::xy(
                plo + p[0] * (phi - plo) * 0.4,
                mlo + p[1] * (mhi - mlo) * 0.5,
            )
        })
        .collect();

    let products = bulk_load(&catalogue, RTreeConfig::paper_default(2));
    let customers = bulk_load(&preferences, RTreeConfig::paper_default(2));
    println!(
        "catalogue: {} cars | preference profiles: {}",
        products.len(),
        customers.len()
    );

    let listing = Point::xy(12_000.0, 45_000.0);
    println!("\nnew listing: {listing}");

    // Naive evaluation: one window query per profile.
    let t = Instant::now();
    let naive = wnrs::reverse_skyline::rsl_bichromatic(&products, &preferences, &listing);
    let naive_ms = t.elapsed().as_secs_f64() * 1e3;

    // Index-accelerated: classify whole preference clusters at once.
    customers.reset_visits();
    let t = Instant::now();
    let indexed = rsl_bichromatic_indexed(&products, &customers, &listing);
    let idx_ms = t.elapsed().as_secs_f64() * 1e3;

    assert_eq!(naive.len(), indexed.len());
    println!(
        "{} interested profiles | naive {naive_ms:.1} ms vs indexed {idx_ms:.1} ms \
         ({} of {} customer nodes visited)",
        naive.len(),
        customers.node_visits(),
        customers.node_count()
    );

    // Why-not analysis for an external profile that did not match.
    let engine = WhyNotEngine::new(catalogue);
    let missed = preferences
        .iter()
        .find(|c| !is_reverse_skyline_member(&products, c, &listing, None))
        .expect("some profile is not interested");
    println!("\nprofile {missed} is not interested; closest competitors:");
    for (id, p) in window_query(&products, missed, &listing, None)
        .iter()
        .take(3)
    {
        println!("  car #{:<6} {p}", id.0);
    }
    let customer = Customer::External(missed.clone());
    let q = listing.clone();
    let ask = |question| engine.answer(&question).expect("a 2-d question");
    if let Reply::Mwp(fix) = ask(Question::Mwp {
        customer: customer.clone(),
        q: q.clone(),
    }) {
        println!(
            "cheapest preference shift that makes the listing relevant: {} (cost {:.6})",
            fix.best().point,
            fix.best().cost
        );
    }
    if let Reply::Mqp(refit) = ask(Question::Mqp { customer, q }) {
        println!(
            "…or rework the listing to {} (cost {:.6})",
            refit.best().point,
            refit.best().cost
        );
    }
}
