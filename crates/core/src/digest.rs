//! Canonical content digests of synthesis inputs and outputs.
//!
//! The fleet service (`ftqs-service`) keys its cross-request outcome
//! cache on *what an application is*, not on where the request came
//! from: two requests carrying structurally identical applications must
//! map to the same cache entry in every run of every process. Rust's
//! `DefaultHasher` is explicitly unstable across releases and processes,
//! so the digests here are computed by a hand-rolled FNV-1a pair — two
//! independent 64-bit lanes with distinct offset bases, giving a 128-bit
//! [`ContentDigest`] that is deterministic forever (it is part of the
//! service's observable behavior and of test goldens).
//!
//! Three canonical encodings are provided:
//!
//! * [`application_digest`] — the full semantic content of an
//!   [`Application`]: period, fault model, every process (name, times,
//!   criticality with deadline or utility-function shape, per-process
//!   recovery override) in node-index order, and the dependency edges.
//!   Everything synthesis reads is covered; two applications with equal
//!   digests produce bit-identical synthesis results.
//! * [`tree_digest`] — the full content of a synthesized
//!   [`QuasiStaticTree`]: every schedule (entries, allowances, static
//!   drops, context) and every node (parent, depth, switch arcs). The
//!   cache-correctness tests pin cached outcomes to cold synthesis
//!   through this digest.
//! * [`Engine::config_digest`](crate::Engine::config_digest) and
//!   [`SynthesisRequest::knob_digest`](crate::SynthesisRequest::knob_digest)
//!   (defined with their types) — the request-knob half of the service's
//!   cache key.

use crate::tree::QuasiStaticTree;
use crate::{Application, Criticality, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 128-bit stable content digest (two independent FNV-1a lanes).
///
/// Displayed (and serialized) as 32 lowercase hex digits. Ordering and
/// hashing follow the numeric value, so digests work directly as
/// `HashMap`/`BTreeMap` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContentDigest {
    /// High 64 bits (lane A).
    hi: u64,
    /// Low 64 bits (lane B).
    lo: u64,
}

impl ContentDigest {
    /// The digest as 32 lowercase hex digits.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Folds another digest into this one (order-sensitive) — used to
    /// combine the application digest with the request-knob digests into
    /// one cache key.
    #[must_use]
    pub fn combine(self, other: ContentDigest) -> ContentDigest {
        let mut h = Hasher::new();
        h.write_u64(self.hi);
        h.write_u64(self.lo);
        h.write_u64(other.hi);
        h.write_u64(other.lo);
        h.finish()
    }
}

impl fmt::Display for ContentDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
// Lane B starts from a different basis (the FNV offset of the string
// "ftqs"), decorrelating the two lanes over identical byte streams.
const FNV_OFFSET_B: u64 = 0x8328_9aa4_6078_64f1;

/// Incremental FNV-1a-pair hasher behind every digest in this module.
/// Deterministic across runs, processes, and platforms.
#[derive(Debug, Clone)]
pub struct Hasher {
    a: u64,
    b: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher at the canonical offset bases.
    #[must_use]
    pub fn new() -> Self {
        Hasher {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte (enum discriminants, booleans).
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by its IEEE-754 bit pattern (bit-identity, not
    /// numeric equality: `-0.0` and `0.0` digest differently, exactly as
    /// they can produce different downstream float sequences).
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// Absorbs a [`Time`] (millisecond value).
    pub fn write_time(&mut self, t: Time) {
        self.write_u64(t.as_ms());
    }

    /// The accumulated digest.
    #[must_use]
    pub fn finish(&self) -> ContentDigest {
        ContentDigest {
            hi: self.a,
            lo: self.b,
        }
    }
}

/// Canonical content digest of an application (see the module docs).
#[must_use]
pub fn application_digest(app: &Application) -> ContentDigest {
    let mut h = Hasher::new();
    h.write_time(app.period());
    h.write_usize(app.faults().k);
    h.write_time(app.faults().mu);
    h.write_usize(app.len());
    for node in app.processes() {
        let p = app.process(node);
        h.write_str(p.name());
        h.write_time(p.times().bcet());
        h.write_time(p.times().aet());
        h.write_time(p.times().wcet());
        match p.criticality() {
            Criticality::Hard { deadline } => {
                h.write_u8(0);
                h.write_time(*deadline);
            }
            Criticality::Soft { utility } => {
                h.write_u8(1);
                utility.digest_into(&mut h);
            }
        }
        match p.recovery_overhead() {
            None => h.write_u8(0),
            Some(mu) => {
                h.write_u8(1);
                h.write_time(mu);
            }
        }
    }
    let edges: Vec<_> = app.graph().edges().collect();
    h.write_usize(edges.len());
    for (from, to) in edges {
        h.write_usize(from.index());
        h.write_usize(to.index());
    }
    h.finish()
}

/// Canonical content digest of a synthesized quasi-static tree: schedules
/// (entries, allowances, drops, contexts) and topology (parents, depths,
/// switch arcs). Two trees with equal digests are bit-identical artifacts.
#[must_use]
pub fn tree_digest(tree: &QuasiStaticTree) -> ContentDigest {
    let mut h = Hasher::new();
    h.write_usize(tree.arena().len());
    for i in 0..tree.arena().len() {
        let s = tree.schedule(crate::ScheduleId::from_index(i));
        h.write_usize(s.entries().len());
        for e in s.entries() {
            h.write_usize(e.process.index());
            h.write_usize(e.reexecutions);
        }
        h.write_usize(s.statically_dropped().len());
        for d in s.statically_dropped() {
            h.write_usize(d.index());
        }
        let ctx = s.context();
        h.write_time(ctx.start);
        h.write_usize(ctx.completed.len());
        for &c in &ctx.completed {
            h.write_u8(u8::from(c));
        }
        for &d in &ctx.dropped {
            h.write_u8(u8::from(d));
        }
    }
    h.write_usize(tree.len());
    for (_, node) in tree.iter() {
        h.write_usize(node.schedule.index());
        match node.parent {
            None => h.write_u8(0),
            Some(p) => {
                h.write_u8(1);
                h.write_usize(p);
            }
        }
        h.write_usize(node.depth);
        h.write_usize(node.arcs.len());
        for arc in &node.arcs {
            h.write_usize(arc.pivot_pos);
            h.write_usize(arc.pivot.index());
            h.write_time(arc.lo);
            h.write_time(arc.hi);
            h.write_usize(arc.child);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, ExecutionTimes, FaultModel, Session, SynthesisRequest, UtilityFunction};

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    fn fig1_app(period: u64) -> Application {
        let mut b = Application::builder(t(period), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", ExecutionTimes::uniform(t(30), t(70)).unwrap(), t(180));
        let p2 = b.add_soft(
            "P2",
            ExecutionTimes::uniform(t(30), t(70)).unwrap(),
            UtilityFunction::step(40.0, [(t(90), 20.0), (t(200), 10.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn digest_is_deterministic_and_content_based() {
        let a = fig1_app(300);
        let b = fig1_app(300);
        assert_eq!(application_digest(&a), application_digest(&b));
        assert_eq!(
            application_digest(&a).to_hex(),
            application_digest(&a).to_string()
        );
        assert_eq!(application_digest(&a).to_hex().len(), 32);
    }

    #[test]
    fn digest_is_sensitive_to_every_semantic_field() {
        let base = application_digest(&fig1_app(300));
        // Period.
        assert_ne!(base, application_digest(&fig1_app(301)));
        // Fault model.
        let mut b = Application::builder(t(300), FaultModel::new(2, t(10)));
        let p1 = b.add_hard("P1", ExecutionTimes::uniform(t(30), t(70)).unwrap(), t(180));
        let p2 = b.add_soft(
            "P2",
            ExecutionTimes::uniform(t(30), t(70)).unwrap(),
            UtilityFunction::step(40.0, [(t(90), 20.0), (t(200), 10.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        assert_ne!(base, application_digest(&b.build().unwrap()));
        // Utility shape.
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", ExecutionTimes::uniform(t(30), t(70)).unwrap(), t(180));
        let p2 = b.add_soft(
            "P2",
            ExecutionTimes::uniform(t(30), t(70)).unwrap(),
            UtilityFunction::step(40.0, [(t(91), 20.0), (t(200), 10.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        assert_ne!(base, application_digest(&b.build().unwrap()));
        // Edges.
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
        b.add_hard("P1", ExecutionTimes::uniform(t(30), t(70)).unwrap(), t(180));
        b.add_soft(
            "P2",
            ExecutionTimes::uniform(t(30), t(70)).unwrap(),
            UtilityFunction::step(40.0, [(t(90), 20.0), (t(200), 10.0)]).unwrap(),
        );
        assert_ne!(base, application_digest(&b.build().unwrap()));
        let _ = (p1, p2);
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = application_digest(&fig1_app(300));
        let b = application_digest(&fig1_app(400));
        assert_ne!(a.combine(b), b.combine(a));
        assert_eq!(a.combine(b), a.combine(b));
    }

    #[test]
    fn tree_digest_pins_identical_trees_and_separates_different_ones() {
        // Three processes so FTQS actually expands beyond the root
        // schedule (a single-node FTQS tree would legitimately digest
        // equal to FTSS).
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", ExecutionTimes::uniform(t(30), t(70)).unwrap(), t(180));
        let p2 = b.add_soft(
            "P2",
            ExecutionTimes::uniform(t(30), t(70)).unwrap(),
            UtilityFunction::step(40.0, [(t(90), 20.0), (t(200), 10.0)]).unwrap(),
        );
        let p3 = b.add_soft(
            "P3",
            ExecutionTimes::uniform(t(40), t(80)).unwrap(),
            UtilityFunction::step(40.0, [(t(110), 30.0), (t(150), 10.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        b.add_dependency(p1, p3).unwrap();
        let app = b.build().unwrap();
        let mut session: Session = Engine::new().session();
        let r1 = session
            .synthesize(&app, &SynthesisRequest::ftqs(4))
            .unwrap();
        let r2 = session
            .synthesize(&app, &SynthesisRequest::ftqs(4))
            .unwrap();
        assert_eq!(tree_digest(&r1.tree), tree_digest(&r2.tree));
        let ftss = session.synthesize(&app, &SynthesisRequest::ftss()).unwrap();
        assert_ne!(tree_digest(&r1.tree), tree_digest(&ftss.tree));
    }
}
