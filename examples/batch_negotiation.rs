//! Batch negotiation: answer many why-not questions against one shared
//! safe region, then trade a few existing customers for a larger safe
//! region (the truncation/expansion flexibility Section V-B discusses).
//!
//! ```sh
//! cargo run --release --example batch_negotiation
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use wnrs::core::flexible::{expand_safe_region, truncate_safe_region};
use wnrs::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let market = wnrs::data::cardb(&mut rng, 10_000);
    let engine = WhyNotEngine::new(market);
    let q = Point::xy(11_000.0, 70_000.0);

    let rsl = engine.reverse_skyline(&q);
    println!("listing {q}: {} customers interested", rsl.len());

    // One safe region, many why-not questions (the paper's reuse point).
    let sr = engine.safe_region_for(&q, &rsl);
    println!(
        "safe region: {} rectangles, area {:.3}",
        sr.len(),
        sr.area()
    );

    // Ten random prospects outside the reverse skyline.
    let mut prospects = Vec::new();
    while prospects.len() < 10 {
        if let Some(id) = wnrs::data::select_why_not(engine.points(), &rsl, &mut rng) {
            if !prospects.contains(&id) {
                prospects.push(id);
            }
        }
    }

    // Every prospect's MWQ against one region: the exact one here, the
    // expanded one further down.
    let answer_all = |region: &Region| -> Vec<(ItemId, MwqAnswer)> {
        prospects
            .iter()
            .map(|&id| (id, engine.mwq(id, &q, region)))
            .collect()
    };

    println!("\nbatch why-not answers (shared safe region):");
    let answers = answer_all(&sr);
    let mut free = 0;
    for (id, ans) in &answers {
        match ans.case {
            MwqCase::Overlap => {
                free += 1;
                println!("  #{:<6} free: move listing to {}", id.0, ans.q_star);
            }
            MwqCase::Disjoint => println!(
                "  #{:<6} negotiate to {} (cost {:.6})",
                id.0,
                ans.c_star.as_ref().expect("case C2").point,
                ans.cost
            ),
        }
    }
    println!("{free}/{} prospects join for free", answers.len());

    // The vendor can only reprice between $8K and $14K: truncate.
    let bounds = Rect::new(Point::xy(8_000.0, 0.0), Point::xy(14_000.0, 300_000.0));
    let truncated = truncate_safe_region(&sr, &bounds);
    println!(
        "\ntruncated to the $8K–14K repricing corridor: {} rectangles, area {:.3}",
        truncated.len(),
        truncated.area()
    );

    // Or sacrifice up to two existing customers for more freedom.
    let expanded = expand_safe_region(&engine, &q, &rsl, 2);
    println!(
        "expanding by dropping {:?}: area {:.3} → {:.3}",
        expanded.dropped.iter().map(|id| id.0).collect::<Vec<_>>(),
        sr.area(),
        expanded.region.area()
    );
    let answers_after = answer_all(&expanded.region);
    let free_after = answers_after
        .iter()
        .filter(|(_, a)| matches!(a.case, MwqCase::Overlap))
        .count();
    println!(
        "with the expanded region, {free_after}/{} prospects join for free (was {free})",
        answers_after.len()
    );
}
