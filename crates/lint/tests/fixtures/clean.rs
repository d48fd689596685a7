use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Deterministic projection: the hash map is only probed by key, the
/// iteration order comes from the sorted tree.
pub fn sorted_values(m: &HashMap<usize, u64>, keys: &[usize]) -> Vec<u64> {
    let sorted: BTreeMap<usize, u64> = keys
        .iter()
        .filter_map(|k| m.get(k).map(|v| (*k, *v)))
        .collect();
    sorted.values().copied().collect()
}

/// One guard at a time: the store guard drops before anything else
/// locks.
pub fn tick(m: &Mutex<u64>) -> u64 {
    let mut g = m.lock();
    *g += 1;
    *g
}

/// Golden-JSON discipline: Option fields skip, counters default.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GoodRecord {
    pub completed: usize,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub note: Option<String>,
    #[serde(default)]
    pub spill_count: u64,
}

/// Fallbacks, not panics.
pub fn safe(x: Option<u8>) -> u8 {
    x.unwrap_or(7)
}
