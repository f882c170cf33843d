//! A benchmark test is a test: not a caller, though it names the fns
//! outside their crates.

#[test]
fn reads() {
    read_binary();
    assert_eq!(orphan_scale(2), 4);
}
