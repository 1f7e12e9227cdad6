//! The three why-not solvers (BS, AdvancedBS, KcRBased) and their
//! approximate variants: one Algorithm-4 driver ([`driver`]) with a
//! per-layer verifier for each.

mod approx;
mod basic;
mod count;
mod driver;
mod kcr;
mod shared;

pub use approx::{answer_approx_advanced, answer_approx_basic, answer_approx_kcr};
pub use basic::{
    answer_advanced, answer_basic, answer_basic_with_budget, answer_counted, AdvancedOptions,
};
pub use kcr::{answer_kcr, KcrOptions};
