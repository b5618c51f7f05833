//! Time/utility functions (TUFs) for soft processes.
//!
//! Each soft process `Pi` carries a utility function `Ui(t)`, "any
//! non-increasing monotonic function of the completion time of a process"
//! (paper §2.1). The overall application utility is the sum of the soft
//! processes' utilities at their completion times, each scaled by the
//! stale-value coefficient αᵢ (see [`crate::stale`]).
//!
//! [`UtilityFunction`] supports the three shapes used in the paper's figures
//! and evaluation: constants, downward step functions (Fig. 2, Fig. 4a) and
//! piecewise-linear descents, all validated to be non-increasing and
//! non-negative.

use crate::Time;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error returned when constructing an invalid utility function.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum UtilityError {
    /// A utility value was negative or non-finite.
    InvalidValue(f64),
    /// Breakpoints must be strictly increasing in time.
    UnsortedBreakpoints,
    /// Values must be non-increasing over time.
    Increasing,
    /// A piecewise-linear function needs at least one point.
    Empty,
}

impl fmt::Display for UtilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UtilityError::InvalidValue(v) => write!(f, "invalid utility value {v}"),
            UtilityError::UnsortedBreakpoints => {
                write!(f, "breakpoints must be strictly increasing in time")
            }
            UtilityError::Increasing => write!(f, "utility functions must be non-increasing"),
            UtilityError::Empty => write!(f, "utility function needs at least one point"),
        }
    }
}

impl Error for UtilityError {}

/// A validated non-increasing, non-negative time/utility function.
///
/// # Example
///
/// The function `Ua(t)` of Fig. 2a — worth 40 up to 40 ms, 20 up to some
/// later point, 0 afterwards — and its evaluation at the completion time
/// 60 ms used in the paper ("its utility would equal to 20"):
///
/// ```
/// use ftqs_core::{Time, UtilityFunction};
///
/// # fn main() -> Result<(), ftqs_core::UtilityError> {
/// let ua = UtilityFunction::step(40.0, [(Time::from_ms(40), 20.0), (Time::from_ms(100), 0.0)])?;
/// assert_eq!(ua.value(Time::from_ms(30)), 40.0);
/// assert_eq!(ua.value(Time::from_ms(60)), 20.0);
/// assert_eq!(ua.value(Time::from_ms(500)), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilityFunction {
    kind: Kind,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Kind {
    /// Constant value at all completion times.
    Constant(f64),
    /// `initial` for `t <= first breakpoint time`; after each breakpoint
    /// `(b, v)` the value is `v` for `b < t <= next b`.
    Step {
        initial: f64,
        steps: Vec<(Time, f64)>,
    },
    /// Linear interpolation between `points`; clamped to the first value
    /// before the first point and to the last value after the last point.
    Linear { points: Vec<(Time, f64)> },
}

impl UtilityFunction {
    /// A constant utility, independent of completion time.
    ///
    /// # Errors
    ///
    /// [`UtilityError::InvalidValue`] if `value` is negative or non-finite.
    pub fn constant(value: f64) -> Result<Self, UtilityError> {
        check_value(value)?;
        Ok(UtilityFunction {
            kind: Kind::Constant(value),
        })
    }

    /// A downward step function: worth `initial` up to and including the
    /// first breakpoint time, then the value attached to each breakpoint.
    ///
    /// `U(t) = initial` for `t ≤ b₁`; `U(t) = vᵢ` for `bᵢ < t ≤ bᵢ₊₁`;
    /// `U(t) = v_last` for `t > b_last`. Pass a final `(t, 0.0)` step to make
    /// the utility vanish, as the paper's figures do.
    ///
    /// # Errors
    ///
    /// * [`UtilityError::InvalidValue`] for negative/non-finite values.
    /// * [`UtilityError::UnsortedBreakpoints`] if times are not strictly
    ///   increasing.
    /// * [`UtilityError::Increasing`] if any value exceeds its predecessor.
    pub fn step(
        initial: f64,
        steps: impl IntoIterator<Item = (Time, f64)>,
    ) -> Result<Self, UtilityError> {
        check_value(initial)?;
        let steps: Vec<(Time, f64)> = steps.into_iter().collect();
        let mut prev_v = initial;
        let mut prev_t: Option<Time> = None;
        for &(t, v) in &steps {
            check_value(v)?;
            if let Some(pt) = prev_t {
                if t <= pt {
                    return Err(UtilityError::UnsortedBreakpoints);
                }
            }
            if v > prev_v {
                return Err(UtilityError::Increasing);
            }
            prev_t = Some(t);
            prev_v = v;
        }
        Ok(UtilityFunction {
            kind: Kind::Step { initial, steps },
        })
    }

    /// A piecewise-linear function through `points`, clamped outside the
    /// covered range.
    ///
    /// # Errors
    ///
    /// Same conditions as [`UtilityFunction::step`], plus
    /// [`UtilityError::Empty`] for an empty point list.
    pub fn linear(points: impl IntoIterator<Item = (Time, f64)>) -> Result<Self, UtilityError> {
        let points: Vec<(Time, f64)> = points.into_iter().collect();
        if points.is_empty() {
            return Err(UtilityError::Empty);
        }
        let mut prev: Option<(Time, f64)> = None;
        for &(t, v) in &points {
            check_value(v)?;
            if let Some((pt, pv)) = prev {
                if t <= pt {
                    return Err(UtilityError::UnsortedBreakpoints);
                }
                if v > pv {
                    return Err(UtilityError::Increasing);
                }
            }
            prev = Some((t, v));
        }
        Ok(UtilityFunction {
            kind: Kind::Linear { points },
        })
    }

    /// A linear ramp from `peak` (worth until `hold`) down to zero at `zero`.
    ///
    /// Convenience for the common "full value until t₁, fading to nothing at
    /// t₂" soft-deadline shape.
    ///
    /// # Errors
    ///
    /// [`UtilityError::UnsortedBreakpoints`] if `zero <= hold`;
    /// [`UtilityError::InvalidValue`] if `peak` is negative or non-finite.
    pub fn ramp(peak: f64, hold: Time, zero: Time) -> Result<Self, UtilityError> {
        Self::linear([(hold, peak), (zero, 0.0)])
    }

    /// Evaluates the utility of completing at time `t`.
    ///
    /// The result is always finite, non-negative, and non-increasing in `t`.
    #[must_use]
    pub fn value(&self, t: Time) -> f64 {
        match &self.kind {
            Kind::Constant(v) => *v,
            Kind::Step { initial, steps } => {
                let mut v = *initial;
                for &(bt, bv) in steps {
                    if t > bt {
                        v = bv;
                    } else {
                        break;
                    }
                }
                v
            }
            Kind::Linear { points } => {
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t >= t0 && t <= t1 {
                        let frac = (t - t0).as_f64() / (t1 - t0).as_f64();
                        return v0 + (v1 - v0) * frac;
                    }
                }
                unreachable!("points cover the interior range")
            }
        }
    }

    /// The maximum utility this function can yield (its value at time 0).
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.value(Time::ZERO)
    }

    /// Returns this function delayed by `offset`: the shifted function
    /// satisfies `shifted.value(t + offset) == self.value(t)` (and holds
    /// its initial value on `[0, offset]`).
    ///
    /// Hyper-period composition uses this to express "the j-th activation
    /// of a process, released at `j·T`, earns what the original earns
    /// relative to its own release" (paper §2: multi-rate graph sets are
    /// merged over the LCM of their periods).
    #[must_use]
    pub fn shifted(&self, offset: Time) -> UtilityFunction {
        let kind = match &self.kind {
            Kind::Constant(v) => Kind::Constant(*v),
            Kind::Step { initial, steps } => Kind::Step {
                initial: *initial,
                steps: steps.iter().map(|&(t, v)| (t + offset, v)).collect(),
            },
            Kind::Linear { points } => Kind::Linear {
                points: points.iter().map(|&(t, v)| (t + offset, v)).collect(),
            },
        };
        UtilityFunction { kind }
    }

    /// Absorbs this function's exact shape (kind, breakpoints, f64 bit
    /// patterns) into a content digest — see [`crate::digest`].
    pub(crate) fn digest_into(&self, h: &mut crate::digest::Hasher) {
        match &self.kind {
            Kind::Constant(v) => {
                h.write_u8(0);
                h.write_f64(*v);
            }
            Kind::Step { initial, steps } => {
                h.write_u8(1);
                h.write_f64(*initial);
                h.write_usize(steps.len());
                for &(t, v) in steps {
                    h.write_time(t);
                    h.write_f64(v);
                }
            }
            Kind::Linear { points } => {
                h.write_u8(2);
                h.write_usize(points.len());
                for &(t, v) in points {
                    h.write_time(t);
                    h.write_f64(v);
                }
            }
        }
    }

    /// Compiles this function into the flat [`CompiledUtility`] form used
    /// by batched evaluation (see that type's docs). The compiled form is
    /// bit-identical to [`UtilityFunction::value`] at every integer time —
    /// except that a literal `-0.0` value (admitted by validation, since
    /// it is non-negative) evaluates as `+0.0`; the two compare equal
    /// everywhere and sums of scaled utilities are unaffected.
    #[must_use]
    pub fn compiled(&self) -> CompiledUtility {
        CompiledUtility::new(self)
    }

    /// The earliest time after which the utility is (and stays) zero, or
    /// `None` if the utility never reaches zero.
    #[must_use]
    pub fn zero_from(&self) -> Option<Time> {
        match &self.kind {
            Kind::Constant(v) => (*v == 0.0).then_some(Time::ZERO),
            Kind::Step { initial, steps } => {
                if *initial == 0.0 {
                    return Some(Time::ZERO);
                }
                steps.iter().find(|&&(_, v)| v == 0.0).map(|&(t, _)| t)
            }
            Kind::Linear { points } => {
                if points[points.len() - 1].1 > 0.0 {
                    return None;
                }
                // Non-increasing and ending at zero: the first zero-valued
                // point is where the descent lands (interpolation from a
                // positive value reaches zero exactly at that point).
                points.iter().find(|&&(_, v)| v == 0.0).map(|&(t, _)| t)
            }
        }
    }
}

/// A [`UtilityFunction`] compiled into flat, sorted structure-of-arrays
/// breakpoint tables for branchless scalar evaluation and batched sweeps.
///
/// All three shapes normalize into the same layout: `bounds` partitions
/// the time axis into *slots* — slot `i` covers `bounds[i-1] < t <=
/// bounds[i]` (with slot `bounds.len()` covering everything past the last
/// bound) — and each slot evaluates the single expression
///
/// ```text
/// value(t) = base[i] + delta[i] * ((t - seg_start[i]) / denom[i])
/// ```
///
/// with `delta = 0` for flat slots, so [`CompiledUtility::value`] is a
/// predication-free count-then-index: the slot is the number of bounds
/// strictly below `t` (a branchless accumulating loop the vectorizer
/// flattens), followed by one fused evaluation. The expression mirrors
/// [`UtilityFunction::value`]'s arithmetic term for term, so results are
/// **bit-identical** to the interpreted walk — the property tests pin
/// this on dense grids for every shape.
///
/// [`CompiledUtility::sweep_into`] evaluates a whole ascending sample
/// grid in one forward merge over the slots — O(samples + breakpoints)
/// instead of the O(samples × breakpoints) of repeated scalar walks — and
/// [`CompiledUtility::accumulate_shifted`] is the fused
/// `acc[j] += scale * value(grid[j] + offset)` form the interval-
/// partitioning sweep is built on (see [`crate::ftqs`]'s Performance
/// notes).
///
/// Construction normalizes `-0.0` values to `+0.0` (the two compare equal
/// everywhere; normalizing keeps the flat-slot evaluation exact).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledUtility {
    /// Slot boundaries in milliseconds, non-decreasing.
    bounds: Vec<u64>,
    /// Per-slot base value (`bounds.len() + 1` entries).
    base: Vec<f64>,
    /// Per-slot linear descent `v1 - v0`; `0.0` for flat slots.
    delta: Vec<f64>,
    /// Per-slot segment start time for the interpolation numerator.
    seg_start: Vec<u64>,
    /// Per-slot segment length `(t1 - t0) as f64`; `1.0` for flat slots.
    denom: Vec<f64>,
}

impl CompiledUtility {
    /// Compiles `function` (see [`UtilityFunction::compiled`]).
    #[must_use]
    pub fn new(function: &UtilityFunction) -> Self {
        let mut c = CompiledUtility {
            bounds: Vec::new(),
            base: Vec::new(),
            delta: Vec::new(),
            seg_start: Vec::new(),
            denom: Vec::new(),
        };
        match &function.kind {
            Kind::Constant(v) => c.push_flat(*v),
            Kind::Step { initial, steps } => {
                c.push_flat(*initial);
                for &(t, v) in steps {
                    c.bounds.push(t.as_ms());
                    c.push_flat(v);
                }
            }
            Kind::Linear { points } if points.len() == 1 => c.push_flat(points[0].1),
            Kind::Linear { points } => {
                // Slot 0: clamped to the first value up to and including
                // the first point.
                c.push_flat(points[0].1);
                c.bounds.push(points[0].0.as_ms());
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    c.base.push(v0 + 0.0);
                    c.delta.push(v1 - v0);
                    c.seg_start.push(t0.as_ms());
                    c.denom.push((t1 - t0).as_f64());
                    c.bounds.push(t1.as_ms());
                }
                // The interpreted walk returns the clamped last value
                // *at* the last point (before interpolation would), so
                // the final interpolating slot ends one integer ms short
                // of it. `t_last - 1` may collide with the previous bound
                // when points are adjacent milliseconds; the duplicate
                // merely makes the last interpolating slot unreachable,
                // which is exactly right.
                let last = points[points.len() - 1];
                *c.bounds.last_mut().expect("at least one segment") = last.0.as_ms() - 1;
                c.push_flat(last.1);
            }
        }
        debug_assert_eq!(c.base.len(), c.bounds.len() + 1);
        c
    }

    /// Appends one flat slot worth `v` (normalizing `-0.0`).
    fn push_flat(&mut self, v: f64) {
        self.base.push(v + 0.0);
        self.delta.push(0.0);
        self.seg_start.push(0);
        self.denom.push(1.0);
    }

    /// The slot containing `t`: the number of bounds strictly below it.
    /// Branchless — the comparison folds to an integer accumulate.
    #[inline]
    fn slot_of(&self, t_ms: u64) -> usize {
        let mut idx = 0usize;
        for &b in &self.bounds {
            idx += usize::from(b < t_ms);
        }
        idx
    }

    /// The single per-slot evaluation expression; flat slots degrade to
    /// `base + 0.0 * (t / 1.0)`, which is exact for the normalized
    /// non-negative values stored here.
    #[inline]
    fn eval_in_slot(&self, idx: usize, t_ms: u64) -> f64 {
        self.base[idx] + self.delta[idx] * ((t_ms - self.seg_start[idx]) as f64 / self.denom[idx])
    }

    /// Evaluates the utility of completing at time `t` — bit-identical to
    /// [`UtilityFunction::value`] on the source function.
    #[must_use]
    pub fn value(&self, t: Time) -> f64 {
        let t_ms = t.as_ms();
        self.eval_in_slot(self.slot_of(t_ms), t_ms)
    }

    /// Fills `out[i] = value(lo + i·step)` for the whole ascending sample
    /// grid in one forward merge pass over the slots: each slot's sample
    /// range is located once and filled with a tight loop the compiler
    /// autovectorizes, so the cost is O(samples + breakpoints).
    ///
    /// `step` must be non-zero.
    pub fn sweep_into(&self, lo: Time, step: Time, out: &mut [f64]) {
        let lo = lo.as_ms();
        let step = step.as_ms();
        assert!(step > 0, "sweep grids need a non-zero step");
        let n = out.len();
        let mut i = 0usize;
        for idx in 0..=self.bounds.len() {
            if i >= n {
                break;
            }
            // Samples in slot `idx`: those with `lo + i·step <= hi`.
            let end = match self.bounds.get(idx) {
                Some(&hi) if hi < lo => i,
                Some(&hi) => n.min(((hi - lo) / step + 1) as usize),
                None => n,
            };
            if end <= i {
                continue;
            }
            if self.delta[idx] == 0.0 {
                out[i..end].fill(self.base[idx] + 0.0);
            } else {
                let (base, delta) = (self.base[idx], self.delta[idx]);
                let (t0, denom) = (self.seg_start[idx], self.denom[idx]);
                for (j, slot) in out.iter_mut().enumerate().take(end).skip(i) {
                    let t = lo + j as u64 * step;
                    *slot = base + delta * ((t - t0) as f64 / denom);
                }
            }
            i = end;
        }
    }

    /// Accumulates `acc[j] += scale * value(grid[j] + offset)` over an
    /// ascending (not necessarily uniform) sample grid, in one forward
    /// merge pass. This is the workhorse of the segmented suffix-utility
    /// sweep: `offset` is an entry's completion offset from the sweep
    /// variable and `scale` its stale-value coefficient, and the per-
    /// sample arithmetic (`scale * value`) matches the scalar
    /// `alpha * utility.value(now)` term bit for bit.
    pub fn accumulate_shifted(&self, grid: &[u64], offset: u64, scale: f64, acc: &mut [f64]) {
        debug_assert_eq!(grid.len(), acc.len());
        debug_assert!(grid.windows(2).all(|w| w[0] <= w[1]), "grid must ascend");
        let n = grid.len();
        let mut i = 0usize;
        for idx in 0..=self.bounds.len() {
            if i >= n {
                break;
            }
            let mut end = i;
            match self.bounds.get(idx) {
                Some(&hi) => {
                    while end < n && grid[end] + offset <= hi {
                        end += 1;
                    }
                }
                None => end = n,
            }
            if end <= i {
                continue;
            }
            if self.delta[idx] == 0.0 {
                // Hoisting `scale * base` out of the loop keeps the same
                // bits: every sample in the slot adds the identical term.
                let term = scale * (self.base[idx] + 0.0);
                for slot in &mut acc[i..end] {
                    *slot += term;
                }
            } else {
                let (base, delta) = (self.base[idx], self.delta[idx]);
                let (t0, denom) = (self.seg_start[idx], self.denom[idx]);
                for (slot, &g) in acc[i..end].iter_mut().zip(&grid[i..end]) {
                    let t = g + offset;
                    *slot += scale * (base + delta * ((t - t0) as f64 / denom));
                }
            }
            i = end;
        }
    }
}

fn check_value(v: f64) -> Result<(), UtilityError> {
    if v.is_finite() && v >= 0.0 {
        Ok(())
    } else {
        Err(UtilityError::InvalidValue(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    #[test]
    fn fig2_utilities() {
        // Fig. 2b: Ub worth 30 early, 15 later; Uc worth 20 early, 10 later.
        // "Pb completes at 50 ms and Pc at 110 ms giving utilities 15 and 10".
        let ub = UtilityFunction::step(30.0, [(t(40), 15.0), (t(120), 0.0)]).unwrap();
        let uc = UtilityFunction::step(20.0, [(t(90), 10.0), (t(200), 0.0)]).unwrap();
        assert_eq!(ub.value(t(50)), 15.0);
        assert_eq!(uc.value(t(110)), 10.0);
        assert_eq!(ub.value(t(50)) + uc.value(t(110)), 25.0);
    }

    #[test]
    fn step_boundaries_are_inclusive_on_the_left_value() {
        let u = UtilityFunction::step(40.0, [(t(100), 20.0)]).unwrap();
        assert_eq!(u.value(t(100)), 40.0, "value holds through the breakpoint");
        assert_eq!(u.value(t(101)), 20.0);
    }

    #[test]
    fn constant_is_flat() {
        let u = UtilityFunction::constant(7.5).unwrap();
        assert_eq!(u.value(Time::ZERO), 7.5);
        assert_eq!(u.value(t(1_000_000)), 7.5);
        assert_eq!(u.peak(), 7.5);
        assert_eq!(u.zero_from(), None);
    }

    #[test]
    fn linear_interpolates() {
        let u = UtilityFunction::ramp(100.0, t(50), t(150)).unwrap();
        assert_eq!(u.value(t(0)), 100.0);
        assert_eq!(u.value(t(50)), 100.0);
        assert_eq!(u.value(t(100)), 50.0);
        assert_eq!(u.value(t(150)), 0.0);
        assert_eq!(u.value(t(400)), 0.0);
        assert_eq!(u.zero_from(), Some(t(150)));
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(UtilityFunction::constant(-1.0).is_err());
        assert!(UtilityFunction::constant(f64::NAN).is_err());
        assert!(UtilityFunction::step(10.0, [(t(5), 20.0)]).is_err()); // increasing
        assert!(UtilityFunction::step(10.0, [(t(5), 5.0), (t(5), 1.0)]).is_err()); // unsorted
        assert!(UtilityFunction::linear([]).is_err());
        assert!(UtilityFunction::ramp(10.0, t(100), t(100)).is_err());
    }

    #[test]
    fn value_is_non_increasing_over_a_sweep() {
        let u = UtilityFunction::step(40.0, [(t(30), 25.0), (t(60), 10.0), (t(90), 0.0)]).unwrap();
        let mut prev = f64::INFINITY;
        for ms in 0..200 {
            let v = u.value(t(ms));
            assert!(v <= prev, "utility increased at t={ms}");
            prev = v;
        }
    }

    #[test]
    fn zero_from_step() {
        let u = UtilityFunction::step(40.0, [(t(30), 25.0), (t(90), 0.0)]).unwrap();
        assert_eq!(u.zero_from(), Some(t(90)));
        let never = UtilityFunction::step(40.0, [(t(30), 25.0)]).unwrap();
        assert_eq!(never.zero_from(), None);
    }

    #[test]
    fn peak_is_value_at_zero() {
        let u = UtilityFunction::step(40.0, [(t(30), 25.0)]).unwrap();
        assert_eq!(u.peak(), 40.0);
    }

    #[test]
    fn shifted_translates_the_time_axis() {
        let u = UtilityFunction::step(40.0, [(t(30), 25.0), (t(90), 0.0)]).unwrap();
        let s = u.shifted(t(100));
        for probe in [0u64, 10, 30, 31, 90, 91, 500] {
            assert_eq!(s.value(t(probe + 100)), u.value(t(probe)), "at {probe}");
        }
        assert_eq!(
            s.value(t(50)),
            40.0,
            "initial value holds before the offset"
        );
        assert_eq!(s.zero_from(), Some(t(190)));

        // Linear and constant shapes shift too.
        let r = UtilityFunction::ramp(10.0, t(20), t(40))
            .unwrap()
            .shifted(t(5));
        assert_eq!(r.value(t(25)), 10.0);
        assert_eq!(r.value(t(45)), 0.0);
        let c = UtilityFunction::constant(3.0).unwrap().shifted(t(1000));
        assert_eq!(c.value(t(0)), 3.0);
    }
}
