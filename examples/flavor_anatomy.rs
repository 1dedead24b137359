//! Flavor anatomy: inspect the Primitive Dictionary and watch vw-greedy
//! learn, call by call.
//!
//! Prints the registered flavor sets for a few signatures, then runs a
//! single adaptive instance over data whose best flavor flips mid-stream,
//! dumping the per-phase choices the bandit makes.
//!
//! ```sh
//! cargo run --release --example flavor_anatomy
//! ```

use std::sync::Arc;

use micro_adaptivity::core::policy::{VwGreedy, VwGreedyParams};
use micro_adaptivity::core::{AdaptiveDispatch, PolicyKind, SplitMix64};
use micro_adaptivity::primitives::{build_dictionary, SelColVal};

fn main() {
    let dict = build_dictionary();
    println!("Primitive Dictionary: {} signatures\n", dict.len());
    for sig in [
        "sel_lt_i32_col_val",
        "map_mul_i64_col_col",
        "sel_bloomfilter",
        "hash_insertcheck_multi_col",
        "mergejoin_i64_col_i64_col",
    ] {
        let set = dict.lookup::<SelColVal<i32>>("sel_lt_i32_col_val").unwrap();
        if sig == "sel_lt_i32_col_val" {
            let flavors: Vec<String> = set
                .infos()
                .iter()
                .map(|i| format!("{}{}", i.name, if i.alias { " (alias)" } else { "" }))
                .collect();
            println!("{sig}:\n  {}", flavors.join(", "));
        } else {
            println!("{sig}:\n  (registered: {})", dict.contains(sig));
        }
    }

    // Watch vw-greedy converge, then react to a mid-stream flip.
    println!("\nvw-greedy(256,32,8) over a selection whose selectivity flips at call 2000:");
    let set = dict
        .lookup::<SelColVal<i32>>("sel_lt_i32_col_val")
        .unwrap()
        .subset(&["branching", "no_branching"])
        .unwrap();
    let policy = VwGreedy::new(
        2,
        VwGreedyParams {
            explore_period: 256,
            exploit_period: 32,
            explore_length: 8,
        },
        SplitMix64::new(7),
    );
    let _ = PolicyKind::Fixed(0); // (see PolicyKind for the full policy zoo)
    let mut dispatch = AdaptiveDispatch::new(Arc::new(set), Box::new(policy));

    let mut rng = SplitMix64::new(99);
    let n = 1024;
    let mut res = vec![0u32; n];
    let mut counts = [[0u64; 2]; 4]; // phase × flavor
    for call in 0..4000u64 {
        // Selectivity ~99% before the flip (branching-friendly),
        // ~50% after (branch-hostile).
        let sel_pct = if call < 2000 { 990 } else { 500 };
        let data: Vec<i32> = (0..n).map(|_| (rng.next_u64() % 1000) as i32).collect();
        dispatch.invoke(n as u64, |f| {
            std::hint::black_box(f(&mut res, &data, sel_pct, None))
        });
        let phase = (call / 1000) as usize;
        counts[phase][dispatch.last_flavor()] += 1;
    }
    for (p, c) in counts.iter().enumerate() {
        println!(
            "  calls {:>4}-{:<4} branching {:>4}  no_branching {:>4}   <- {}",
            p * 1000,
            (p + 1) * 1000 - 1,
            c[0],
            c[1],
            if p < 2 {
                "99% selectivity"
            } else {
                "50% selectivity"
            }
        );
    }
    let profile = dispatch.profile();
    println!(
        "\n{} calls, {:.2} ticks/tuple lifetime average",
        profile.calls,
        profile.avg_cost()
    );
}
