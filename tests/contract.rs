//! The library's standing contract, checked by the default test command:
//!
//! * FTQS synthesis through the engine is bit-identical to the
//!   straightforward reference implementation in `ftqs_core::oracle`,
//!   including deep trees whose expansions span several waves;
//! * malformed inputs give typed errors, never a panic or a hang. Spec
//!   text whose times overflow the millisecond range is the case pinned
//!   here: it used to panic, hang, or accept a hard process whose worst
//!   case had wrapped around.

use ftqs::core::ftqs::FtqsConfig;
use ftqs::core::oracle::ftqs_reference;
use ftqs::core::tree_digest;
use ftqs::prelude::*;
use ftqs::workloads::{spec, synthetic};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn default_ftqs_is_bit_identical_to_the_oracle() {
    let mut session = Engine::new().session();
    for (size, seed) in [(10usize, 0xC0A1u64), (15, 0xC0A2), (20, 0xC0A3)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let app = synthetic::generate_schedulable(&GeneratorParams::paper(size), &mut rng, 50);
        for budget in [16usize, 24, 40] {
            let fast = session
                .synthesize(&app, &SynthesisRequest::ftqs(budget))
                .expect("generated applications are schedulable");
            let slow = ftqs_reference(&app, &FtqsConfig::with_budget(budget))
                .expect("generated applications are schedulable");
            assert_eq!(
                tree_digest(&fast.tree),
                tree_digest(&slow),
                "{size} processes, budget {budget}: tree diverges from the oracle"
            );
        }
    }
}

/// Specs whose worst-case cycle length overflows `u64` milliseconds:
/// `k = u64::MAX`, `µ = u64::MAX`, and a sum that fits only until it is
/// multiplied by `k`.
const OVERFLOWING_SPECS: [&str; 3] = [
    "period 300\nfaults 18446744073709551615 10\nprocess A hard 10 20 deadline 200\n",
    "period 300\nfaults 3 18446744073709551615\nprocess A hard 10 20 deadline 200\n",
    "period 18446744073709551615\nfaults 2 9223372036854775807\n\
     process A soft 10 9223372036854775807 utility 40\n\
     process B hard 10 20 deadline 18446744073709551615\nedge A B\n",
];

#[test]
fn overflowing_times_are_typed_errors() {
    for text in OVERFLOWING_SPECS {
        let err = spec::parse(text).expect_err("overflowing spec must be rejected");
        assert!(
            err.to_string().contains("overflows the time range"),
            "{text:?}: unexpected error {err}"
        );
    }
}
