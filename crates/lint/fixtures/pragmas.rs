//! lint-fixture-path: crates/net/src/fixture.rs
//!
//! Pragma behaviour: a well-formed pragma suppresses exactly its rules
//! on its own line and the next; malformed pragmas are L000 findings.

fn above() -> bool {
    // fiveg-lint: allow(S002) -- read once at start-up, passed down
    std::env::var("FIVEG_FIXTURE_A").is_ok()
}

fn trailing() -> bool {
    std::env::var("FIVEG_FIXTURE_B").is_ok() // fiveg-lint: allow(S002) -- start-up read
}

fn not_covered() -> bool {
    // fiveg-lint: allow(S002) -- only shields the next line
    let a = std::env::var("FIVEG_FIXTURE_C").is_ok();
    let b = std::env::var("FIVEG_FIXTURE_D").is_ok(); //~ S002
    a && b
}

fn wrong_rule() -> bool {
    // fiveg-lint: allow(F001) -- names another rule
    std::env::var("FIVEG_FIXTURE_E").is_ok() //~ S002
}

// fiveg-lint: allow(S002)
//~^ L000
fn missing_reason() -> bool {
    std::env::var("FIVEG_FIXTURE_F").is_ok() //~ S002
}

// fiveg-lint: allow(Z999) -- unknown rule id
//~^ L000
fn unknown_rule() {}

// fiveg-lint: allow(U001) -- moved to clippy::unwrap_used
//~^ L000
fn migrated_rule() {}
