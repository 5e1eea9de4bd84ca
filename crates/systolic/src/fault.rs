//! Fault-injection hooks for the simulation engines.
//!
//! Mirrors the [`crate::trace::TraceSink`] pattern: every engine entry point
//! has a `_faulted` form taking a [`FaultInjector`], and the no-op injector
//! [`NoFaults`] sets `ENABLED = false` so the fault paths compile away and
//! the faultless engines stay exactly as fast as before. The concrete
//! seed-deterministic plan type (`FaultPlan` in `bitlevel-fault`) lives one
//! crate up; this module only defines the hook the engines call.
//!
//! Determinism contract: an injector must answer every hook as a pure
//! function of its arguments — [`FaultInjector::on_output`] descriptions in
//! particular may depend only on `(cycle, point, processor)`, never on the
//! bundle content, so the compiled backend can re-derive the event stream
//! without re-running the value phase.

use bitlevel_linalg::IVec;

/// What happens to one token transfer under fault injection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TransferFault {
    /// The transfer proceeds normally.
    #[default]
    None,
    /// The token is lost on the wire: the consumer sees no input (and the
    /// engines skip the consumption bookkeeping entirely).
    Drop,
    /// The link re-delivers the *previous* token of the same edge class
    /// instead of the current one (a stale duplicate).
    Duplicate,
}

/// Deterministic fault-injection hook threaded through the interpreted
/// clocked engine, the mapped timing simulator and the compiled backend.
///
/// All three engines consult the same three questions in the same order, so
/// an identical injector produces bit-identical faulted runs on every
/// backend (see the engine-agreement tests in `tests/fault_injection.rs`).
pub trait FaultInjector<B> {
    /// `false` for [`NoFaults`] lets the engines compile every fault branch
    /// away; real injectors keep the default `true`.
    const ENABLED: bool = true;

    /// True iff the PE at `processor` is dead for the whole run. The mapped
    /// timing simulator uses this to suppress the point's activity; the
    /// value-carrying engines instead silence the output in
    /// [`FaultInjector::on_output`] so the token structure stays complete.
    fn pe_dead(&self, processor: &IVec) -> bool;

    /// Applies output-side faults (dead PE, stuck-at, transient flips) to
    /// the bundle `point` just computed, returning one human-readable kind
    /// string per fault actually injected here. Descriptions must depend
    /// only on `(cycle, point, processor)`, never on the bundle content.
    fn on_output(&self, cycle: i64, point: &IVec, processor: &IVec, bundle: &mut B) -> Vec<String>;

    /// The fault (if any) on the transfer arriving at `point` along
    /// dependence `column` in `cycle`.
    fn on_transfer(&self, cycle: i64, point: &IVec, column: usize) -> TransferFault;
}

/// The no-op injector: `ENABLED = false`, every hook inert. Passing
/// `&NoFaults` makes a `_faulted` engine entry point identical to its
/// faultless original.
pub struct NoFaults;

impl<B> FaultInjector<B> for NoFaults {
    const ENABLED: bool = false;

    #[inline(always)]
    fn pe_dead(&self, _processor: &IVec) -> bool {
        false
    }

    #[inline(always)]
    fn on_output(
        &self,
        _cycle: i64,
        _point: &IVec,
        _processor: &IVec,
        _bundle: &mut B,
    ) -> Vec<String> {
        Vec::new()
    }

    #[inline(always)]
    fn on_transfer(&self, _cycle: i64, _point: &IVec, _column: usize) -> TransferFault {
        TransferFault::None
    }
}

/// Signal bundles whose bits a fault plan can address generically.
///
/// Bit indices are bundle-defined but must be stable: a plan written for
/// one run must mean the same wires in the next.
pub trait FaultableBundle: Clone {
    /// Number of addressable signal bits in the bundle.
    fn fault_bits() -> usize;

    /// Human-readable name of signal bit `bit` (for fault descriptions).
    fn bit_name(bit: usize) -> &'static str;

    /// Inverts signal bit `bit`.
    fn flip_bit(&mut self, bit: usize);

    /// Forces signal bit `bit` to `value` (stuck-at fault).
    fn set_bit(&mut self, bit: usize, value: bool);

    /// The bundle a dead PE emits: all signals silent.
    fn dead() -> Self;
}

/// The unit bundle of the timing-only mapped simulator: no addressable
/// bits, so output faults (other than `dead_pe`) degenerate to no-ops there.
impl FaultableBundle for () {
    fn fault_bits() -> usize {
        0
    }

    fn bit_name(_bit: usize) -> &'static str {
        ""
    }

    fn flip_bit(&mut self, _bit: usize) {}

    fn set_bit(&mut self, _bit: usize, _value: bool) {}

    fn dead() -> Self {}
}

impl FaultableBundle for crate::clocked::MatmulSignals {
    fn fault_bits() -> usize {
        5
    }

    fn bit_name(bit: usize) -> &'static str {
        ["x", "y", "s", "c", "cp"][bit % 5]
    }

    fn flip_bit(&mut self, bit: usize) {
        match bit % 5 {
            0 => self.x = !self.x,
            1 => self.y = !self.y,
            2 => self.s = !self.s,
            3 => self.c = !self.c,
            _ => self.cp = !self.cp,
        }
    }

    fn set_bit(&mut self, bit: usize, value: bool) {
        match bit % 5 {
            0 => self.x = value,
            1 => self.y = value,
            2 => self.s = value,
            3 => self.c = value,
            _ => self.cp = value,
        }
    }

    fn dead() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocked::MatmulSignals;

    #[test]
    fn no_faults_is_disabled_and_inert() {
        const { assert!(!<NoFaults as FaultInjector<MatmulSignals>>::ENABLED) };
        let mut b = MatmulSignals::default();
        let before = b;
        let p = IVec::from([1, 1]);
        assert!(!FaultInjector::<MatmulSignals>::pe_dead(&NoFaults, &p));
        assert!(NoFaults.on_output(0, &p, &p, &mut b).is_empty());
        assert_eq!(b, before);
        assert_eq!(
            FaultInjector::<MatmulSignals>::on_transfer(&NoFaults, 0, &p, 0),
            TransferFault::None
        );
    }

    #[test]
    fn matmul_signals_bits_round_trip() {
        let mut b = MatmulSignals::default();
        for bit in 0..MatmulSignals::fault_bits() {
            b.flip_bit(bit);
        }
        assert_eq!(
            b,
            MatmulSignals {
                x: true,
                y: true,
                s: true,
                c: true,
                cp: true
            }
        );
        for bit in 0..MatmulSignals::fault_bits() {
            b.set_bit(bit, false);
        }
        assert_eq!(b, MatmulSignals::dead());
        assert_eq!(MatmulSignals::bit_name(2), "s");
    }
}
