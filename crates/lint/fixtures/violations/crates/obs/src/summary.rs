//! Must-fire: W-DEADPUB on a fn that only the facade re-exports — a
//! `pub use` is not a caller.

pub fn render_summary(title: &str) -> String {
    title.to_string()
}
