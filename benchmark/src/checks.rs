//! The tally behind `attempted` and `failed`: every pass declares how many
//! checks it will run, so a pass that panics part-way counts the checks it
//! never reached as failed.

use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    run_in_pass: u64,
}

impl Checks {
    /// Runs `body`, which is to make `declared` checks. A panic in it is
    /// caught (the default hook has already printed it) and `None` comes
    /// back; either way, declared checks that did not run count as
    /// attempted and failed.
    ///
    /// # Panics
    ///
    /// Panics when `body` ran more checks than declared, which is a bug in
    /// the harness.
    pub fn pass<R>(&mut self, declared: u64, body: impl FnOnce(&mut Checks) -> R) -> Option<R> {
        self.run_in_pass = 0;
        let result = catch_unwind(AssertUnwindSafe(|| body(self))).ok();
        assert!(self.run_in_pass <= declared, "a pass ran undeclared checks");
        let missing = declared - self.run_in_pass;
        if missing > 0 {
            self.attempted += missing;
            self.failed += missing;
            self.failures
                .push(format!("{missing} declared check(s) never ran"));
        }
        result
    }

    /// Records one check; `detail` is only built when it failed.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.run_in_pass += 1;
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{name}: {}", detail()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_that_never_ran_count_as_failed() {
        let mut checks = Checks::default();
        let done = checks.pass(2, |c| {
            c.check("a", true, || {
                unreachable!("a passing check builds no detail")
            });
            c.check("b", false, || "wrong".into());
            7
        });
        assert_eq!(done, Some(7));
        assert_eq!((checks.attempted, checks.failed), (2, 1));

        let done = checks.pass(4, |c| {
            c.check("a", true, String::new);
            panic!("the pass dies here (this message is expected in the test output)");
        });
        assert_eq!(done, None::<()>);
        assert_eq!((checks.attempted, checks.failed), (6, 4));
        assert_eq!(
            checks.failures,
            ["b: wrong", "3 declared check(s) never ran"]
        );
    }
}
