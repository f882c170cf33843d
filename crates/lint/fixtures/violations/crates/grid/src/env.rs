//! Must-fire: W-ENV three times — an env read and a knob literal, both
//! outside the designated resolution modules, and a read under a bare
//! suppression, which is itself a W-ALLOW finding and suppresses
//! nothing.

pub fn sneak_a_knob() -> Option<String> {
    std::env::var("GALACTOS_MESH").ok()
}

pub fn home() -> Option<std::ffi::OsString> {
    // lint:allow(W-ENV)
    std::env::var_os("HOME")
}
