//! A single processor: memory size, speed, and a machine-kind tag.

use serde::{Deserialize, Serialize};

/// One processor `p_j` of the computing system.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Processor {
    /// Machine-kind name (e.g. `"C2"`), for reporting.
    pub kind: String,
    /// Normalised CPU speed `s_j`; the execution time of task `u` on this
    /// processor is `w_u / s_j`.
    pub speed: f64,
    /// Memory size `M_j` (normalised GB in the paper's configuration).
    pub memory: f64,
}

impl Processor {
    /// Creates a processor with the given kind tag, speed, and memory.
    pub fn new(kind: impl Into<String>, speed: f64, memory: f64) -> Self {
        assert!(speed > 0.0, "processor speed must be positive");
        assert!(memory > 0.0, "processor memory must be positive");
        Self {
            kind: kind.into(),
            speed,
            memory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        Processor::new("x", 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "memory must be positive")]
    fn zero_memory_rejected() {
        Processor::new("x", 1.0, 0.0);
    }
}
