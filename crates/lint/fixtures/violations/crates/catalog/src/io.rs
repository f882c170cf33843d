//! Must-fire: W-DEADPUB on a fn that only a benchmark test calls, and on
//! a `pub fn` that shipped code of its own crate alone calls.

pub fn read_binary() {}

pub fn write_binary() -> usize {
    header_len()
}

pub fn header_len() -> usize {
    48
}
