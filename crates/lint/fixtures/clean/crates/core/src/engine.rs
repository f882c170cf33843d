//! Must-not-fire for W-ENV: a read under a reasoned suppression, and a
//! knob name that is not a string literal.

/// Not a knob such as GALACTOS_MESH: only the build's profile.
pub fn build_profile() -> Option<String> {
    // lint:allow(W-ENV): the build's profile, not a runtime knob
    std::env::var("PROFILE").ok()
}
