//! `benchmark/src` keeps items alive, but the report pins each item only
//! it reaches.

fn main() {
    write_binary();
    read_binary();
    let _ = Engine.traversal_kind();
}
