//! The application model: a polar process graph plus period and fault model.

use crate::{Process, Time};
use ftqs_graph::{topo, Dag, GraphError, NodeId};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// The transient-fault hypothesis (paper §2.2): at most `k` faults per
/// operation cycle, each recovery costing `mu` before re-execution starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultModel {
    /// Maximum number of transient faults in one operation cycle.
    pub k: usize,
    /// Worst-case recovery overhead µ paid before each re-execution.
    pub mu: Time,
}

impl FaultModel {
    /// Creates a fault model tolerating `k` faults with overhead `mu`.
    #[must_use]
    pub fn new(k: usize, mu: Time) -> Self {
        FaultModel { k, mu }
    }

    /// A fault-free model (`k = 0`), useful for baselines and tests.
    #[must_use]
    pub fn none() -> Self {
        FaultModel {
            k: 0,
            mu: Time::ZERO,
        }
    }
}

/// Errors produced while assembling an [`Application`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ApplicationError {
    /// The process graph is empty.
    Empty,
    /// The period is zero.
    ZeroPeriod,
    /// A hard deadline exceeds the period (the cycle would already be over).
    DeadlineBeyondPeriod {
        /// Offending process.
        process: NodeId,
        /// Its deadline.
        deadline: Time,
        /// The application period.
        period: Time,
    },
    /// The worst-case cycle length `Σ wcetᵢ + k · maxᵢ(wcetᵢ + µᵢ)` — or
    /// one process's recovery penalty `wcetᵢ + µᵢ` — does not fit the
    /// millisecond time range, so schedulability arithmetic would wrap.
    TimeOverflow,
    /// Graph construction failed (cycle, duplicate edge, ...).
    Graph(GraphError),
}

impl fmt::Display for ApplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplicationError::Empty => write!(f, "application has no processes"),
            ApplicationError::ZeroPeriod => write!(f, "application period must be positive"),
            ApplicationError::DeadlineBeyondPeriod {
                process,
                deadline,
                period,
            } => write!(
                f,
                "deadline {deadline} of process {process} exceeds period {period}"
            ),
            ApplicationError::TimeOverflow => write!(
                f,
                "worst-case cycle length (sum of WCETs plus k times the largest \
                 recovery penalty) overflows the time range"
            ),
            ApplicationError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for ApplicationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ApplicationError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ApplicationError {
    fn from(e: GraphError) -> Self {
        ApplicationError::Graph(e)
    }
}

/// An embedded application: a directed acyclic graph of [`Process`]es that
/// runs with period `T` on a single computation node under a transient
/// [`FaultModel`] (paper §2).
///
/// Use [`Application::builder`] to assemble one:
///
/// ```
/// use ftqs_core::{Application, ExecutionTimes, FaultModel, Time, UtilityFunction};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The application of Fig. 1: hard P1 feeding soft P2 and P3.
/// let mut b = Application::builder(Time::from_ms(300), FaultModel::new(1, Time::from_ms(10)));
/// let p1 = b.add_hard("P1", ExecutionTimes::uniform(30.into(), 70.into())?, Time::from_ms(180));
/// let p2 = b.add_soft(
///     "P2",
///     ExecutionTimes::uniform(30.into(), 70.into())?,
///     UtilityFunction::step(40.0, [(Time::from_ms(90), 20.0), (Time::from_ms(200), 10.0)])?,
/// );
/// let p3 = b.add_soft(
///     "P3",
///     ExecutionTimes::uniform(40.into(), 80.into())?,
///     UtilityFunction::step(40.0, [(Time::from_ms(110), 30.0), (Time::from_ms(150), 10.0)])?,
/// );
/// b.add_dependency(p1, p2)?;
/// b.add_dependency(p1, p3)?;
/// let app = b.build()?;
/// assert_eq!(app.len(), 3);
/// assert_eq!(app.hard_processes().count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Application {
    graph: Dag<Process>,
    period: Time,
    faults: FaultModel,
}

impl Application {
    /// Starts building an application with the given period and fault model.
    #[must_use]
    pub fn builder(period: Time, faults: FaultModel) -> ApplicationBuilder {
        ApplicationBuilder {
            graph: Dag::new(),
            period,
            faults,
        }
    }

    /// The process graph.
    #[must_use]
    pub fn graph(&self) -> &Dag<Process> {
        &self.graph
    }

    /// The period `T` of the operation cycle.
    #[must_use]
    pub fn period(&self) -> Time {
        self.period
    }

    /// The fault model (`k`, µ).
    #[must_use]
    pub fn faults(&self) -> &FaultModel {
        &self.faults
    }

    /// Number of processes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// Returns `true` if the application has no processes (never true for a
    /// built application; useful for partially-constructed test fixtures).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The process with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this application.
    #[must_use]
    pub fn process(&self, id: NodeId) -> &Process {
        self.graph.payload(id)
    }

    /// Iterates over all process ids.
    pub fn processes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes()
    }

    /// Iterates over the ids of hard processes (the set `H`).
    pub fn hard_processes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .nodes()
            .filter(|&n| self.graph.payload(n).is_hard())
    }

    /// Iterates over the ids of soft processes (the set `S`).
    pub fn soft_processes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .nodes()
            .filter(|&n| self.graph.payload(n).is_soft())
    }

    /// Returns `true` if `id` is hard.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this application.
    #[must_use]
    pub fn is_hard(&self, id: NodeId) -> bool {
        self.graph.payload(id).is_hard()
    }

    /// A deterministic topological order of all processes.
    #[must_use]
    pub fn topological_order(&self) -> Vec<NodeId> {
        topo::topological_order(&self.graph)
    }

    /// Sum of worst-case execution times of all processes — an upper bound
    /// on the no-fault schedule length.
    #[must_use]
    pub fn total_wcet(&self) -> Time {
        self.processes()
            .map(|n| self.process(n).times().wcet())
            .sum()
    }

    /// The recovery overhead µ of a process: its per-process override if
    /// set, the application-wide [`FaultModel::mu`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this application.
    #[must_use]
    pub fn recovery_overhead(&self, id: NodeId) -> Time {
        self.process(id)
            .recovery_overhead()
            .unwrap_or(self.faults.mu)
    }

    /// The per-fault recovery penalty of a process: `wcet + µ`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this application.
    #[must_use]
    pub fn recovery_penalty(&self, id: NodeId) -> Time {
        self.process(id).times().wcet() + self.recovery_overhead(id)
    }
}

/// Incremental builder for [`Application`]. Created by
/// [`Application::builder`].
#[derive(Debug)]
pub struct ApplicationBuilder {
    graph: Dag<Process>,
    period: Time,
    faults: FaultModel,
}

impl ApplicationBuilder {
    /// Adds a process and returns its id.
    pub fn add_process(&mut self, process: Process) -> NodeId {
        self.graph.add_node(process)
    }

    /// Convenience: adds a hard process.
    pub fn add_hard(
        &mut self,
        name: impl Into<String>,
        times: crate::ExecutionTimes,
        deadline: Time,
    ) -> NodeId {
        self.add_process(Process::hard(name, times, deadline))
    }

    /// Convenience: adds a soft process.
    pub fn add_soft(
        &mut self,
        name: impl Into<String>,
        times: crate::ExecutionTimes,
        utility: crate::UtilityFunction,
    ) -> NodeId {
        self.add_process(Process::soft(name, times, utility))
    }

    /// Adds a data dependency `from -> to`.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] (cycle, duplicate, unknown node).
    pub fn add_dependency(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        self.graph.add_edge(from, to)
    }

    /// Validates and finalizes the application.
    ///
    /// # Errors
    ///
    /// * [`ApplicationError::Empty`] if no process was added.
    /// * [`ApplicationError::ZeroPeriod`] if the period is zero.
    /// * [`ApplicationError::DeadlineBeyondPeriod`] if a hard deadline lies
    ///   beyond the period.
    /// * [`ApplicationError::TimeOverflow`] if the worst-case cycle length
    ///   `Σ wcetᵢ + k · maxᵢ(wcetᵢ + µᵢ)` overflows `u64` milliseconds.
    pub fn build(self) -> Result<Application, ApplicationError> {
        if self.graph.is_empty() {
            return Err(ApplicationError::Empty);
        }
        if self.period == Time::ZERO {
            return Err(ApplicationError::ZeroPeriod);
        }
        for n in self.graph.nodes() {
            if let Some(d) = self.graph.payload(n).criticality().deadline() {
                if d > self.period {
                    return Err(ApplicationError::DeadlineBeyondPeriod {
                        process: n,
                        deadline: d,
                        period: self.period,
                    });
                }
            }
        }
        if self.worst_case_cycle_ms().is_none() {
            return Err(ApplicationError::TimeOverflow);
        }
        Ok(Application {
            graph: self.graph,
            period: self.period,
            faults: self.faults,
        })
    }

    /// `Σ wcetᵢ + k · maxᵢ(wcetᵢ + µᵢ)` in checked `u64` arithmetic: every
    /// completion time synthesis and analysis compute is bounded by it.
    /// `None` on overflow, including a single `wcetᵢ + µᵢ`, which
    /// [`Application::recovery_penalty`] computes whatever `k` is.
    fn worst_case_cycle_ms(&self) -> Option<u64> {
        let mut total = 0u64;
        let mut max_penalty = 0u64;
        for n in self.graph.nodes() {
            let p = self.graph.payload(n);
            let wcet = p.times().wcet().as_ms();
            let mu = p.recovery_overhead().unwrap_or(self.faults.mu).as_ms();
            total = total.checked_add(wcet)?;
            max_penalty = max_penalty.max(wcet.checked_add(mu)?);
        }
        let k = u64::try_from(self.faults.k).ok()?;
        total.checked_add(k.checked_mul(max_penalty)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionTimes, UtilityFunction};

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    fn et(b: u64, w: u64) -> ExecutionTimes {
        ExecutionTimes::uniform(t(b), t(w)).unwrap()
    }

    #[test]
    fn builder_assembles_fig1_application() {
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", et(30, 70), t(180));
        let p2 = b.add_soft("P2", et(30, 70), UtilityFunction::constant(10.0).unwrap());
        let p3 = b.add_soft("P3", et(40, 80), UtilityFunction::constant(10.0).unwrap());
        b.add_dependency(p1, p2).unwrap();
        b.add_dependency(p1, p3).unwrap();
        let app = b.build().unwrap();
        assert_eq!(app.len(), 3);
        assert_eq!(app.period(), t(300));
        assert_eq!(app.faults().k, 1);
        assert_eq!(app.hard_processes().collect::<Vec<_>>(), vec![p1]);
        assert_eq!(app.soft_processes().count(), 2);
        assert!(app.is_hard(p1));
        assert!(!app.is_hard(p2));
        assert_eq!(app.total_wcet(), t(220));
        assert_eq!(app.recovery_penalty(p1), t(80));
    }

    #[test]
    fn empty_application_is_rejected() {
        let b = Application::builder(t(100), FaultModel::none());
        assert!(matches!(b.build(), Err(ApplicationError::Empty)));
    }

    #[test]
    fn zero_period_is_rejected() {
        let mut b = Application::builder(Time::ZERO, FaultModel::none());
        b.add_soft("P", et(1, 2), UtilityFunction::constant(1.0).unwrap());
        assert!(matches!(b.build(), Err(ApplicationError::ZeroPeriod)));
    }

    #[test]
    fn overflowing_worst_case_cycle_is_rejected() {
        let overflows =
            |b: ApplicationBuilder| matches!(b.build(), Err(ApplicationError::TimeOverflow));
        // k · (wcet + µ) overflows.
        let mut b = Application::builder(t(300), FaultModel::new(usize::MAX, t(10)));
        b.add_hard("A", et(10, 20), t(200));
        assert!(overflows(b));
        // wcet + µ overflows on its own.
        let mut b = Application::builder(t(300), FaultModel::new(3, Time::MAX));
        b.add_hard("A", et(10, 20), t(200));
        assert!(overflows(b));
        // Σ wcet and max(wcet + µ) fit, k times the latter does not.
        let half = u64::MAX / 2;
        let mut b = Application::builder(Time::MAX, FaultModel::new(2, t(half)));
        let a = b.add_soft("A", et(10, half), UtilityFunction::constant(40.0).unwrap());
        let h = b.add_hard("B", et(10, 20), Time::MAX);
        b.add_dependency(a, h).unwrap();
        assert!(overflows(b));
        // The largest cycle that fits is accepted.
        let mut b = Application::builder(Time::MAX, FaultModel::new(1, Time::ZERO));
        b.add_soft("A", et(10, half), UtilityFunction::constant(1.0).unwrap());
        assert!(b.build().is_ok(), "{half} + 1 · {half} fits in u64");
    }

    #[test]
    fn deadline_beyond_period_is_rejected() {
        let mut b = Application::builder(t(100), FaultModel::none());
        b.add_hard("P", et(1, 2), t(150));
        assert!(matches!(
            b.build(),
            Err(ApplicationError::DeadlineBeyondPeriod { .. })
        ));
    }

    #[test]
    fn dependency_cycle_is_rejected() {
        let mut b = Application::builder(t(100), FaultModel::none());
        let a = b.add_soft("A", et(1, 2), UtilityFunction::constant(1.0).unwrap());
        let c = b.add_soft("B", et(1, 2), UtilityFunction::constant(1.0).unwrap());
        b.add_dependency(a, c).unwrap();
        assert!(b.add_dependency(c, a).is_err());
    }

    #[test]
    fn topological_order_covers_all() {
        let mut b = Application::builder(t(100), FaultModel::none());
        let a = b.add_soft("A", et(1, 2), UtilityFunction::constant(1.0).unwrap());
        let c = b.add_soft("B", et(1, 2), UtilityFunction::constant(1.0).unwrap());
        b.add_dependency(a, c).unwrap();
        let app = b.build().unwrap();
        assert_eq!(app.topological_order(), vec![a, c]);
    }

    #[test]
    fn error_display_and_source() {
        let e = ApplicationError::ZeroPeriod;
        assert!(e.to_string().contains("period"));
        let g: ApplicationError = GraphError::SelfLoop(NodeId::from_index(0)).into();
        assert!(Error::source(&g).is_some());
    }
}
