//! Must-fire: W-DEADPUB on a fn that only a benchmark test calls.

pub fn read_binary() {}
