//! Must-not-fire for W-DEADPUB: an example is a caller outside every
//! library crate, so every `pub fn` of the clean tree it names is called
//! and named outside its crate.

fn main() {
    let _ = (build_profile(), mean_of_two(1.0, 3.0));
    let grid = Grid::new(4);
    let _ = (cell_count(&grid), grid.cells(), Engine, write_binary());
}
