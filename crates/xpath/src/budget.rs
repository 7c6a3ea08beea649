//! Thread-local evaluation step budget.
//!
//! A *step* is one node considered by XPath axis traversal or one binding
//! iterated by XQuery FLWOR/quantifier evaluation — the same events the
//! `xpath_nodes_visited` / `xquery_bindings_visited` observability
//! counters record. Arming a budget caps the total steps the current
//! thread may spend before evaluation bails out with
//! `EvalError::BudgetExhausted`; the service arms one per request
//! deadline around the whole check, so a pathological
//! constraint/document pair is answered with a timeout instead of a hang.
//!
//! The budget is thread-local and scoped by an RAII [`BudgetGuard`], so a
//! budgeted region cannot leak into later evaluations even on early
//! return or panic.

use std::cell::Cell;

thread_local! {
    static REMAINING: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A step allowance for one budgeted evaluation region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalBudget {
    steps: u64,
}

impl EvalBudget {
    /// A budget of `steps` evaluation steps.
    pub fn new(steps: u64) -> EvalBudget {
        EvalBudget { steps }
    }

    /// The step allowance.
    pub fn steps(self) -> u64 {
        self.steps
    }
}

/// The marker error returned by [`charge`] when the armed budget runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted;

/// Scope guard restoring the previously armed budget (usually none) on
/// drop.
#[derive(Debug)]
pub struct BudgetGuard {
    prev: Option<u64>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        REMAINING.with(|r| r.set(self.prev));
    }
}

/// Arm `budget` for the current thread until the returned guard drops.
/// Nested arms stack: the inner guard restores the outer allowance.
#[must_use = "the budget is disarmed when the guard drops"]
pub fn arm(budget: EvalBudget) -> BudgetGuard {
    let prev = REMAINING.with(|r| r.replace(Some(budget.steps)));
    BudgetGuard { prev }
}

/// The remaining allowance, or `None` when no budget is armed.
pub fn remaining() -> Option<u64> {
    REMAINING.with(|r| r.get())
}

/// Deduct `n` steps from the armed budget (no-op when disarmed). Fails
/// once the allowance would go negative; the allowance is pinned at zero
/// so every later charge also fails until the guard drops.
#[inline]
pub fn charge(n: u64) -> Result<(), Exhausted> {
    REMAINING.with(|r| match r.get() {
        None => Ok(()),
        Some(rem) if rem >= n => {
            r.set(Some(rem - n));
            Ok(())
        }
        Some(_) => {
            r.set(Some(0));
            Err(Exhausted)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_charge_is_free() {
        assert_eq!(remaining(), None);
        assert!(charge(u64::MAX).is_ok());
    }

    #[test]
    fn charges_deduct_and_exhaust() {
        let g = arm(EvalBudget::new(5));
        assert!(charge(3).is_ok());
        assert_eq!(remaining(), Some(2));
        assert!(charge(3).is_err());
        assert_eq!(remaining(), Some(0));
        assert!(charge(0).is_ok());
        assert!(charge(1).is_err());
        drop(g);
        assert_eq!(remaining(), None);
        assert!(charge(100).is_ok());
    }

    #[test]
    fn guards_nest_and_restore() {
        let outer = arm(EvalBudget::new(10));
        assert!(charge(4).is_ok());
        {
            let _inner = arm(EvalBudget::new(2));
            assert!(charge(2).is_ok());
            assert_eq!(remaining(), Some(0));
        }
        // Outer allowance unaffected by the inner region.
        assert_eq!(remaining(), Some(6));
        drop(outer);
        assert_eq!(remaining(), None);
    }
}
