//! lint ws fixture: a crate whose one dependency edge is allowed.

/// No finding anywhere in this crate.
pub fn scenario_probe() {}
