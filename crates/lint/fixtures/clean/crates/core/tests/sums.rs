//! An integration test is outside its crate: it names the exempted
//! oracle, so `naive_sum` may stay `pub`.

#[test]
fn parallel_sum_matches_the_oracle() {
    assert_eq!(naive_sum(&[1.0, 2.0]), 3.0);
}
