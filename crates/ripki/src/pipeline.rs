//! The historical import path of the study's model types.
//!
//! The measurement lives in [`crate::engine`] and the types in
//! [`crate::model`]; `ripki::pipeline::{PipelineConfig, StudyResults, …}`
//! is the path the serving plane, the proxy fabric and the repository
//! benchmark import them through, so it stays as a re-export.

pub use crate::model::{
    DomainMeasurement, DomainTable, NameMeasurement, PairState, PipelineConfig, StudyResults,
};
