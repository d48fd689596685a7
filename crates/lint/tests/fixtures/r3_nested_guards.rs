use parking_lot::Mutex;

/// Moves every entry from one map into its sibling while both
/// guards are held (bad: two threads locking in opposite orders deadlock).
pub fn transfer(a: &Mutex<Vec<u64>>, b: &Mutex<Vec<u64>>) {
    let mut left = a.lock();
    let mut right = b.lock();
    right.append(&mut left);
}

pub fn both(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {
    *a.lock() + *b.lock()
}
