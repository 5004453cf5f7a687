//! Branch prediction for the REESE simulators.
//!
//! The paper's Table 1 machine predicts branch directions with
//! **gshare** (McFarling, "Combining Branch Predictors", DEC WRL
//! TN-36), and its experiments never vary the predictor, so [`Gshare`]
//! is the only direction predictor here. [`BranchUnit`] wires it
//! together with a branch target buffer and a return-address stack.
//!
//! # Example
//!
//! ```
//! use reese_bpred::{BranchUnit, PredictorConfig};
//!
//! let mut bu = BranchUnit::new(PredictorConfig::paper());
//! // Once the 12-bit global history has filled with taken outcomes,
//! // the branch indexes one counter, and it learns the bias.
//! for _ in 0..16 {
//!     let p = bu.predict_branch(0x1000);
//!     bu.resolve_branch(0x1000, p, true);
//! }
//! assert!(bu.predict_branch(0x1000));
//! ```

mod btb;
mod counter;
mod gshare;
mod unit;

pub use btb::{Btb, Ras, RasSnapshot};
pub use counter::TwoBit;
pub use gshare::Gshare;
pub use unit::{BranchSnapshot, BranchStats, BranchUnit, PredictorConfig};
