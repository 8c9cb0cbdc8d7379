//! Error type of the out-of-core store.

use gesmc_graph::io::IoError;
use std::fmt;

/// Errors surfaced by the `gesmc-exmem` crate.
#[derive(Debug)]
pub enum ExmemError {
    /// The underlying file could not be read or written.
    Io(String),
    /// The file's bytes violate the `GESMCEL1` format rules.
    Format(String),
}

impl fmt::Display for ExmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExmemError::Io(msg) => write!(f, "i/o error: {msg}"),
            ExmemError::Format(msg) => write!(f, "invalid GESMCEL1 data: {msg}"),
        }
    }
}

impl std::error::Error for ExmemError {}

impl From<IoError> for ExmemError {
    fn from(e: IoError) -> Self {
        match e {
            IoError::Io(e) => ExmemError::Io(e.to_string()),
            IoError::Binary(msg) => ExmemError::Format(msg),
            other => ExmemError::Format(other.to_string()),
        }
    }
}
