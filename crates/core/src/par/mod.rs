//! Parallel runs: halo exchange, the step programs of Algorithm 1
//! (original) and Algorithm 2 (communication-avoiding) that
//! [`crate::Integrator`] executes and the static analyzer (`agcm-verify`)
//! certifies, and the two algorithms' constructor facades.

pub mod alg1;
pub mod alg2;
pub mod exchange;
pub mod schedule;

pub use alg1::{gather_state_impl, Alg1Model, GlobalState};
pub use alg2::CaModel;
pub use exchange::{
    dir_index, link_messages, state_fields, wire_tag, with_fields, ExField, HaloExchanger,
    LinkMessage, LinkPart,
};
pub use schedule::{ExFields, ExchangeOp, FieldShape, StepOp};
