//! Fault-injection points for testing the analysis pipeline's isolation
//! guarantees.
//!
//! Pipeline stages call [`hit`] with a stable point name. In normal builds
//! that is a no-op compiled to nothing. Under the `fault-injection` cargo
//! feature a test (or the `ARAA_FAULTPOINT` environment variable) can
//! `arm` a point (only compiled under that feature) so that its Nth hit
//! panics — which is exactly the kind
//! of unexpected failure the driver's per-procedure `catch_unwind`
//! isolation must contain.
//!
//! Named points in the pipeline:
//!
//! | name                    | fires in                                      |
//! |-------------------------|-----------------------------------------------|
//! | `ipl::summarize`        | `ipa::local::summarize_procedure`             |
//! | `stall::ipl`            | `summarize_procedure` (spins until budget or  |
//! |                         | deadline denies charges — a data fault)       |
//! | `ipa::translate`        | `ipa::propagate::translate_record`            |
//! | `fm::eliminate`         | `regions::fourier_motzkin::eliminate`         |
//! | `extract::rows`         | `araa::extract` per-procedure rows            |
//! | `persist::torn_write`   | `support::persist::atomic_write`, mid-payload |
//! | `persist::pre_sync`     | `atomic_write`, before the temp-file fsync    |
//! | `persist::pre_rename`   | `atomic_write`, before the commit rename      |
//! | `persist::post_rename`  | `atomic_write`, after the commit rename       |
//! | `persist::entry_write`  | `SessionStore::persist`, between cache entries|
//! | `persist::pre_manifest` | `SessionStore::persist`, before the manifest  |
//! | `persist::post_manifest`| `SessionStore::persist`, after the manifest   |
//! | `persist::gc`           | `SessionStore::persist`, during old-entry GC  |
//! | `persist::short_read`   | `read_file_raw` (truncates the buffer)        |
//! | `persist::bit_flip`     | `read_file_raw` (flips one bit)               |
//! | `lint::contain`         | `lint` per-procedure rule evaluation          |
//! | `lint::sarif`           | `lint::sarif` document emission               |
//! | `memory::charge`        | `support::memory::checkpoint` (denies the     |
//! |                         | charge — forces memory-budget exhaustion)     |
//! | `serve::project::<name>`| `dragon serve` request dispatch, per project  |
//! | `serve::wedge`          | `dragon serve` worker (spins off-checkpoint   |
//! |                         | until the supervisor replaces the thread)     |
//!
//! The `persist::short_read` / `persist::bit_flip` points are *data*
//! faults: they fire through [`fires`] (mutating the read buffer) rather
//! than panicking. So are `memory::charge` and `serve::wedge`.
//!
//! `ARAA_FAULTPOINT=name[:n]` arms `name` to fire on its `n`th hit
//! (default 1) at first use, so the dragon binary can be fault-tested
//! end-to-end without a test harness. `ARAA_FAULTPOINT=name:always` arms
//! the point *sticky*: it fires on every hit and never disarms — the knob
//! behind "this project panics every single time" chaos scenarios.

/// Marks a potential fault site. No-op unless the `fault-injection`
/// feature is enabled and the point was armed.
#[inline]
pub fn hit(name: &str) {
    #[cfg(feature = "fault-injection")]
    imp::hit(name);
    #[cfg(not(feature = "fault-injection"))]
    let _ = name;
}

/// Non-panicking variant of [`hit`]: returns `true` when the armed point
/// fires (and disarms/decrements it), letting the call site inject a *data*
/// fault — a truncated buffer, a flipped bit — instead of a crash. Always
/// `false` without the `fault-injection` feature.
#[inline]
pub fn fires(name: &str) -> bool {
    #[cfg(feature = "fault-injection")]
    {
        imp::fires(name)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = name;
        false
    }
}

#[cfg(feature = "fault-injection")]
pub use imp::{arm, arm_sticky, disarm_all};

#[cfg(feature = "fault-injection")]
mod imp {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    /// Armed points: name → remaining hits before firing.
    static ARMED: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();

    fn registry() -> &'static Mutex<HashMap<String, u64>> {
        ARMED.get_or_init(|| {
            let mut map = HashMap::new();
            // `ARAA_FAULTPOINT=name[:n]` arms a point from the environment.
            if let Ok(spec) = std::env::var("ARAA_FAULTPOINT") {
                // Point names contain `::`, so only a trailing `:<number>`
                // is a hit count — `ipl::summarize:3` arms `ipl::summarize`.
                let (name, n) = match spec.rsplit_once(':') {
                    Some((head, "always")) => (head, STICKY),
                    Some((head, tail)) => match tail.parse() {
                        Ok(n) => (head, n),
                        Err(_) => (spec.as_str(), 1),
                    },
                    None => (spec.as_str(), 1),
                };
                if !name.is_empty() {
                    map.insert(name.to_string(), n.max(1));
                }
            }
            Mutex::new(map)
        })
    }

    /// Remaining-hit sentinel meaning "fires on every hit, never disarms".
    const STICKY: u64 = u64::MAX;

    /// Arms `name` to panic on its `nth` hit (1 = next hit).
    pub fn arm(name: &str, nth: u64) {
        let mut map = registry().lock().unwrap_or_else(|p| p.into_inner());
        map.insert(name.to_string(), nth.max(1).min(STICKY - 1));
    }

    /// Arms `name` sticky: it fires on every hit until [`disarm_all`].
    pub fn arm_sticky(name: &str) {
        let mut map = registry().lock().unwrap_or_else(|p| p.into_inner());
        map.insert(name.to_string(), STICKY);
    }

    /// Disarms every point (tests should call this in cleanup).
    pub fn disarm_all() {
        let mut map = registry().lock().unwrap_or_else(|p| p.into_inner());
        map.clear();
    }

    pub fn fires(name: &str) -> bool {
        let fired = {
            let mut map = registry().lock().unwrap_or_else(|p| p.into_inner());
            match map.get_mut(name) {
                Some(left) if *left == STICKY => true,
                Some(left) if *left <= 1 => {
                    map.remove(name);
                    true
                }
                Some(left) => {
                    *left -= 1;
                    false
                }
                None => false,
            }
        };
        if fired {
            crate::obs::incr(crate::obs::Counter::FaultpointTrips);
        }
        fired
    }

    pub fn hit(name: &str) {
        if fires(name) {
            panic!("fault injected: {name}");
        }
    }
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_are_silent() {
        disarm_all();
        hit("tests::never-armed");
    }

    #[test]
    fn armed_point_fires_on_nth_hit() {
        arm("tests::third", 3);
        hit("tests::third");
        hit("tests::third");
        let err = std::panic::catch_unwind(|| hit("tests::third"))
            .expect_err("third hit must fire");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("fault injected: tests::third"), "got: {msg}");
        // Fired points disarm themselves.
        hit("tests::third");
    }

    #[test]
    fn disarm_all_clears_pending() {
        arm("tests::pending", 1);
        disarm_all();
        hit("tests::pending");
    }

    #[test]
    fn sticky_point_fires_every_hit() {
        arm_sticky("tests::sticky");
        assert!(fires("tests::sticky"));
        assert!(fires("tests::sticky"), "sticky points never disarm");
        assert!(fires("tests::sticky"));
        disarm_all();
        assert!(!fires("tests::sticky"));
    }
}
