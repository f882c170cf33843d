//! Must-not-fire for W-DEADPUB: an example is a caller, so every
//! `pub fn` of the clean tree it names is called.

fn main() {
    let _ = (build_profile(), mean_of_two(1.0, 3.0));
    let _ = (cell_count(&Grid::new(4)), Engine, write_binary());
}
