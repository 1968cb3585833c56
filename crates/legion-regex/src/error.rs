//! Error type for pattern compilation.

use std::fmt;

/// A syntax or resource error found while parsing a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    /// Byte offset into the pattern where the error was detected.
    pub position: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl RegexError {
    pub(crate) fn new(position: usize, message: impl Into<String>) -> Self {
        RegexError { position, message: message.into() }
    }
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at offset {}: {}", self.position, self.message)
    }
}

impl std::error::Error for RegexError {}
