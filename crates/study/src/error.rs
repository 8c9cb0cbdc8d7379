//! Error type of the study pipeline.

use gesmc_engine::EngineError;

/// Errors raised while parsing a study spec or running a study.
#[derive(Debug)]
pub enum StudyError {
    /// The study spec (JSON) is malformed or inconsistent.
    Spec(String),
    /// An engine call failed while preparing a cell (generating its graph).
    Engine(EngineError),
    /// A sweep cell's randomization job failed or panicked on the engine's
    /// job pool: the cell's job name and the engine's error text.
    Job(String),
    /// Reading or writing report files failed.
    Io(std::io::Error),
    /// A report file could not be parsed back (resume, CI assertions).
    Report(String),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StudyError::Spec(msg) => write!(f, "invalid study spec: {msg}"),
            StudyError::Engine(e) => write!(f, "job failed: {e}"),
            StudyError::Job(msg) => write!(f, "job failed: {msg}"),
            StudyError::Io(e) => write!(f, "I/O error: {e}"),
            StudyError::Report(msg) => write!(f, "invalid report: {msg}"),
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::Engine(e) => Some(e),
            StudyError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for StudyError {
    fn from(e: EngineError) -> Self {
        StudyError::Engine(e)
    }
}

impl From<std::io::Error> for StudyError {
    fn from(e: std::io::Error) -> Self {
        StudyError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_class() {
        assert!(StudyError::Spec("x".into()).to_string().contains("study spec"));
        assert!(StudyError::Report("y".into()).to_string().contains("report"));
        let io = StudyError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("gone"));
    }
}
