//! **vortex-runtime** — compiled-model inference for programmed crossbars.
//!
//! The training side of the workspace (vortex-core) spends its time in a
//! fabricate → map → program → calibrate loop; the *product* of that loop
//! is a programmed differential pair whose read path never changes again.
//! This crate is the serving side of that split:
//!
//! * [`CompiledModel`] freezes a programmed pair's read path — conductance
//!   state, differential-pair scale, calibrated IR-drop attenuation, row
//!   routing and converter resolutions — into an immutable object whose
//!   [`CompiledModel::infer`] is a pure, allocation-light batched read.
//! * [`CompiledModel::infer_batch`] fans a batch out over the
//!   deterministic executor of `vortex_nn::executor`; predictions are
//!   bit-identical for every [`Parallelism`](vortex_nn::executor::Parallelism)
//!   setting.
//! * [`artifact`] gives the model a versioned on-disk format (magic,
//!   format version, length-prefixed sections, CRC-32) with typed errors
//!   on version or checksum mismatch — self-contained, no external serde.
//!
//! The frozen read is bit-exact with the live read of
//! [`vortex_xbar::pair::DifferentialPair::read`]: the ideal path computes
//! the very same `gᵀx` products, and the calibrated path forms each
//! effective conductance `gᵢⱼ·aᵢⱼ` inside the read, the same product
//! [`vortex_xbar::irdrop::ComputeAttenuationMap::compute`] stores per
//! sample — the values, and the floating-point operation order, are
//! unchanged.

#![warn(missing_docs)]

pub mod artifact;
pub mod checkpoint;
pub mod kernels;
pub mod model;

pub use artifact::ArtifactError;
pub use checkpoint::TrainingCheckpoint;
pub use model::{CanarySet, CellFault, CompiledModel, Fidelity, ReadOptions};

/// Canonical imports for the serving side:
/// `use vortex_runtime::prelude::*;`.
pub mod prelude {
    pub use crate::{
        ArtifactError, CanarySet, CellFault, CompiledModel, Fidelity, ReadOptions, RuntimeError,
        TrainingCheckpoint,
    };
    pub use vortex_nn::executor::Parallelism;
    pub use vortex_xbar::encoding::{EncodingScheme, EncodingSpec, EncodingTable, WeightEncoding};
}

/// Errors produced by the inference runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The violated requirement.
        requirement: &'static str,
    },
    /// An underlying crossbar operation (calibration, nodal solve) failed.
    Xbar(vortex_xbar::XbarError),
    /// An artifact encode/decode operation failed.
    Artifact(ArtifactError),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::InvalidParameter { name, requirement } => {
                write!(f, "invalid parameter `{name}`: {requirement}")
            }
            RuntimeError::Xbar(e) => write!(f, "crossbar error: {e}"),
            RuntimeError::Artifact(e) => write!(f, "artifact error: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Xbar(e) => Some(e),
            RuntimeError::Artifact(e) => Some(e),
            RuntimeError::InvalidParameter { .. } => None,
        }
    }
}

impl From<vortex_xbar::XbarError> for RuntimeError {
    fn from(e: vortex_xbar::XbarError) -> Self {
        RuntimeError::Xbar(e)
    }
}

impl From<ArtifactError> for RuntimeError {
    fn from(e: ArtifactError) -> Self {
        RuntimeError::Artifact(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = RuntimeError::InvalidParameter {
            name: "x",
            requirement: "y",
        };
        assert!(e.to_string().contains("invalid parameter"));
        let e: RuntimeError = ArtifactError::BadMagic.into();
        assert!(e.to_string().contains("artifact"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
    }
}
