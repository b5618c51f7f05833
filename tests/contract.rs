//! The library's standing contract, checked by the default test command:
//!
//! * FTQS synthesis through the engine is bit-identical to the
//!   straightforward reference implementation in `ftqs_core::oracle`,
//!   including deep trees whose expansions span several waves;
//! * malformed inputs give typed errors, never a panic or a hang. Spec
//!   text whose times overflow the millisecond range is the case pinned
//!   here: it used to panic, hang, or accept a hard process whose worst
//!   case had wrapped around.
//! * the fleet service's outcome cache answers a repeated request with
//!   exactly what a cold synthesis of the application gives — the same
//!   tree and utility bits, or the same error text — and keeps requests
//!   with different process limits apart.

use ftqs::core::ftqs::FtqsConfig;
use ftqs::core::oracle::ftqs_reference;
use ftqs::core::tree_digest;
use ftqs::prelude::*;
use ftqs::workloads::family::{build, Family};
use ftqs::workloads::{spec, synthetic};
use ftqs_service::{JobSource, Service, ServiceConfig, ServiceRequest};
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

#[test]
fn service_cache_hits_equal_cold_synthesis() {
    let mut service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let preset = |id: u64, seed: u64, request: SynthesisRequest| {
        let source = JobSource::Preset {
            family: "fig9".to_string(),
            size: 15,
            seed,
        };
        ServiceRequest::new(id, source, request)
    };
    let ftqs = SynthesisRequest::ftqs(4);
    let limited = ftqs.clone().with_max_processes(10);
    // fig9 seed 9 at size 15 is schedulable, seed 2 is not. With one
    // worker, responses arrive in submission order.
    let responses = service.run_batch(vec![
        preset(0, 9, ftqs.clone()),
        preset(1, 9, ftqs.clone()),
        preset(2, 2, ftqs.clone()),
        preset(3, 2, ftqs.clone()),
        preset(4, 9, limited.clone()),
        preset(5, 9, limited),
    ]);
    let hit_flags: Vec<bool> = responses.iter().map(|r| r.cache_hit).collect();
    assert_eq!(hit_flags, [false, true, false, true, false, true]);

    let mut session = Engine::new().session();
    for (response, seed) in [(&responses[1], 9), (&responses[3], 2)] {
        let cold = session.synthesize(&build(Family::Fig9, 15, seed), &ftqs);
        match (&response.outcome, cold) {
            (Ok(hit), Ok(cold)) => {
                assert_eq!(tree_digest(&hit.tree), tree_digest(&cold.tree));
                assert_eq!(
                    hit.utility.expected_average_case.to_bits(),
                    cold.utility.expected_average_case.to_bits()
                );
            }
            (Err(hit), Err(cold)) => assert_eq!(hit.to_string(), cold.to_string()),
            (hit, cold) => panic!("seed {seed}: hit {hit:?} differs from cold {cold:?}"),
        }
    }
    assert!(responses[2].outcome.is_err(), "seed 2 is unschedulable");
    for limited in &responses[4..] {
        let err = limited
            .outcome
            .as_ref()
            .expect_err("limit 10 < 15 processes");
        assert!(err.to_string().contains("15 processes"), "{err}");
    }
    assert_eq!(service.shutdown().cache.misses, 3);
}
