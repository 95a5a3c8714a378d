//! Error taxonomy for the graph substrate.

use std::fmt;

/// Errors from graph construction and random walks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id was outside the graph.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the graph.
        len: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, len } => {
                write!(f, "node {node} out of range for graph of {len} nodes")
            }
        }
    }
}

impl std::error::Error for GraphError {}
