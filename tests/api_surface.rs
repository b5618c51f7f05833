//! Public-API surface smoke test: the [`Engine`]/[`Session`] front door is
//! the *only* synthesis entry point (the pre-0.2 free-function wrappers
//! `ftss`/`ftqs`/`ftsf` are gone), and the artifacts it produces feed
//! every downstream consumer — the online scheduler, the C exporter, and
//! serde round-trips.

use ftqs::prelude::*;
use ftqs_core::ftqs::ExpansionPolicy;
use ftqs_core::UtilityEstimator;

fn fig1() -> Application {
    let ms = Time::from_ms;
    let mut b = Application::builder(ms(300), FaultModel::new(1, ms(10)));
    let p1 = b.add_hard(
        "P1",
        ExecutionTimes::uniform(ms(30), ms(70)).unwrap(),
        ms(180),
    );
    let p2 = b.add_soft(
        "P2",
        ExecutionTimes::uniform(ms(30), ms(70)).unwrap(),
        UtilityFunction::step(40.0, [(ms(90), 20.0), (ms(200), 10.0), (ms(250), 0.0)]).unwrap(),
    );
    let p3 = b.add_soft(
        "P3",
        ExecutionTimes::uniform(ms(40), ms(80)).unwrap(),
        UtilityFunction::step(40.0, [(ms(110), 30.0), (ms(150), 10.0), (ms(220), 0.0)]).unwrap(),
    );
    b.add_dependency(p1, p2).unwrap();
    b.add_dependency(p1, p3).unwrap();
    b.build().unwrap()
}

#[test]
fn engine_session_covers_every_policy() {
    let app = fig1();
    let mut session = Engine::new().session();

    let ftss = session.synthesize(&app, &SynthesisRequest::ftss()).unwrap();
    assert_eq!(ftss.stats.schedules, 1);
    assert!(ftss.root_schedule().analyze(&app).is_schedulable());

    let ftqs = session
        .synthesize(&app, &SynthesisRequest::ftqs(4))
        .unwrap();
    assert!(ftqs.stats.schedules >= 2);

    let ftsf = session.synthesize(&app, &SynthesisRequest::ftsf()).unwrap();
    assert_eq!(ftsf.stats.schedules, 1);
    assert_eq!(session.completed(), 3);
}

#[test]
fn request_overrides_compose_on_one_builder() {
    // Every per-request knob stays reachable through the builder chain —
    // the compile-time shape of the public request surface.
    let app = fig1();
    let mut session = Engine::new().session();
    let request = SynthesisRequest::ftqs(6)
        .with_expansion_policy(ExpansionPolicy::MostSimilar)
        .with_interval_samples(128)
        .with_estimator(UtilityEstimator::AverageCase)
        .with_validation(true)
        .with_max_processes(16)
        .with_max_parallelism(2);
    let report = session.synthesize(&app, &request).unwrap();
    assert!(report.stats.schedules >= 2);
}

#[test]
fn engine_errors_are_typed() {
    let ms = Time::from_ms;
    let mut b = Application::builder(ms(100), FaultModel::new(3, ms(10)));
    b.add_hard(
        "H",
        ExecutionTimes::uniform(ms(50), ms(90)).unwrap(),
        ms(95),
    );
    let app = b.build().unwrap();
    let err = Engine::new()
        .session()
        .synthesize(&app, &SynthesisRequest::ftss())
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Scheduling(SchedulingError::Unschedulable { .. })
    ));
}

#[test]
fn engine_artifacts_feed_the_downstream_consumers() {
    let app = fig1();
    // An engine-built tree drives the online scheduler, the exporter, and
    // serde.
    let tree = Engine::new()
        .session()
        .synthesize(&app, &SynthesisRequest::ftqs(4))
        .unwrap()
        .into_tree();
    let out = OnlineScheduler::new(&app, &tree).run(&ExecutionScenario::average_case(&app));
    assert!(out.deadline_miss.is_none());

    let header = ftqs::core::export::tree_to_c(&app, &tree, "smoke");
    assert!(header.contains("smoke_tree"));

    let json = serde_json::to_string(&tree).unwrap();
    let back: QuasiStaticTree = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), tree.len());
    for ((_, a), (_, b)) in back.iter().zip(tree.iter()) {
        assert_eq!(back.schedule(a.schedule), tree.schedule(b.schedule));
        assert_eq!(a.arcs, b.arcs);
    }

    // A single-schedule report wraps into the arena-backed single tree.
    let single = Engine::new()
        .session()
        .synthesize(&app, &SynthesisRequest::ftss())
        .unwrap()
        .into_tree();
    assert_eq!(single.arena().allocations(), 1);
}
