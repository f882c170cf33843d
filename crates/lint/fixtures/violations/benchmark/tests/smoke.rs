//! A benchmark test is a test: not a caller.

#[test]
fn reads() {
    read_binary();
}
