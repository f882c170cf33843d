//! Must-fire: W-CAST — a bare narrowing cast in catalog parsing.

pub fn header_count(raw: u64) -> u32 {
    raw as u32
}

pub fn read_binary() {}
