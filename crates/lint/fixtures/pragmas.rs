//! lint-fixture-path: crates/net/src/fixture.rs
//!
//! Pragma behaviour: a well-formed pragma suppresses exactly its rules
//! on its own line and the next; malformed pragmas are L000 findings.
//! Every seed is a float accumulation in a parallel closure (F001).

fn above(xs: &[f64]) {
    par_map_with(xs, 2, || (), |_, _, x| {
        // fiveg-lint: allow(F001) -- combined in index order after the join
        acc += 1.0;
    });
}

fn trailing(xs: &[f64]) {
    par_map_with(xs, 2, || (), |_, _, x| {
        acc += 1.0; // fiveg-lint: allow(F001) -- combined after the join
    });
}

fn not_covered(xs: &[f64]) {
    par_map_with(xs, 2, || (), |_, _, x| {
        // fiveg-lint: allow(F001) -- only shields the next line
        a += 1.0;
        b += 1.0; //~ F001
    });
}

fn wrong_rule(xs: &[f64]) {
    par_map_with(xs, 2, || (), |_, _, x| {
        // fiveg-lint: allow(S001) -- names another rule
        acc += 1.0; //~ F001
    });
}

// fiveg-lint: allow(F001)
//~^ L000
fn missing_reason(xs: &[f64]) {
    par_map_with(xs, 2, || (), |_, _, x| {
        acc += 1.0; //~ F001
    });
}

// fiveg-lint: allow(Z999) -- unknown rule id
//~^ L000
fn unknown_rule() {}

// fiveg-lint: allow(U001) -- moved to clippy::unwrap_used
//~^ L000
fn migrated_rule() {}

// fiveg-lint: allow(S002) -- moved to clippy::disallowed_methods
//~^ L000
fn migrated_env_rule() {}
