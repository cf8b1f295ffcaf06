//! Fault-injection failpoints for chaos-testing the batch runtime.
//!
//! Compiled only under the `failpoints` cargo feature; without it every
//! call site reduces to an empty inline function, so production builds pay
//! nothing. With the feature on, each pipeline stage in the executor calls
//! [`hit`] with the stage name and the raw document source, and a global
//! registry decides whether to panic or sleep there.
//!
//! Actions can be unconditional (`Panic`, `Delay`) or *marker-targeted*
//! (`PanicIf`, `DelayIf`): the action fires only for documents whose raw
//! source contains a marker substring. Marker targeting is what makes
//! chaos tests deterministic across thread counts — "the 8 documents
//! carrying `CHAOS_PANIC` panic" holds regardless of which worker picks
//! which document, while count-based triggers ("the first 8 hits") would
//! depend on scheduling.
//!
//! Configuration is programmatic (`set`/`clear`) or, for process-level
//! tests of the CLI binary, via the `XSDF_FAILPOINTS` environment
//! variable, read once on first use:
//!
//! ```text
//! XSDF_FAILPOINTS="parse=panic;select=delay(50);disambiguate=panic-if(CHAOS)"
//! ```

#![cfg_attr(not(feature = "failpoints"), allow(unused_variables))]

use std::time::Duration;

/// What a triggered failpoint does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic unconditionally.
    Panic,
    /// Sleep unconditionally for the given duration.
    Delay(Duration),
    /// Panic only when the document source contains the marker.
    PanicIf(String),
    /// Sleep only when the document source contains the marker.
    DelayIf(String, Duration),
}

/// Evaluates the failpoint named `stage` against the document context
/// `ctx` (the raw XML source). No-op unless the `failpoints` feature is
/// enabled and an action is registered for the stage.
#[inline(always)]
pub fn hit(stage: &str, ctx: &str) {
    #[cfg(feature = "failpoints")]
    imp::hit(stage, ctx);
}

/// Whether fault injection is compiled in.
pub const fn enabled() -> bool {
    cfg!(feature = "failpoints")
}

#[cfg(feature = "failpoints")]
pub use imp::{clear, set};

#[cfg(feature = "failpoints")]
mod imp {
    use super::FaultAction;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    fn registry() -> &'static Mutex<HashMap<String, FaultAction>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, FaultAction>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(from_env(std::env::var("XSDF_FAILPOINTS").as_deref())))
    }

    /// Parses `stage=action;stage=action`. Unparseable entries are ignored
    /// (a chaos harness must not turn a typo into a production outage).
    fn from_env(spec: Result<&str, &std::env::VarError>) -> HashMap<String, FaultAction> {
        let mut map = HashMap::new();
        let Ok(spec) = spec else {
            return map;
        };
        for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
            let Some((stage, action)) = entry.split_once('=') else {
                continue;
            };
            if let Some(action) = parse_action(action.trim()) {
                map.insert(stage.trim().to_string(), action);
            }
        }
        map
    }

    fn parse_action(s: &str) -> Option<FaultAction> {
        if s == "panic" {
            return Some(FaultAction::Panic);
        }
        if let Some(arg) = s
            .strip_prefix("panic-if(")
            .and_then(|r| r.strip_suffix(')'))
        {
            return Some(FaultAction::PanicIf(arg.to_string()));
        }
        if let Some(arg) = s.strip_prefix("delay(").and_then(|r| r.strip_suffix(')')) {
            let ms: u64 = arg.trim().parse().ok()?;
            return Some(FaultAction::Delay(Duration::from_millis(ms)));
        }
        if let Some(arg) = s
            .strip_prefix("delay-if(")
            .and_then(|r| r.strip_suffix(')'))
        {
            let (marker, ms) = arg.rsplit_once(',')?;
            let ms: u64 = ms.trim().parse().ok()?;
            return Some(FaultAction::DelayIf(
                marker.trim().to_string(),
                Duration::from_millis(ms),
            ));
        }
        None
    }

    /// Registers (or replaces) the action for a stage.
    pub fn set(stage: &str, action: FaultAction) {
        lock().insert(stage.to_string(), action);
    }

    /// Removes every registered failpoint.
    pub fn clear() {
        lock().clear();
    }

    fn lock() -> std::sync::MutexGuard<'static, HashMap<String, FaultAction>> {
        // A panic from a *fired* failpoint never happens while this lock is
        // held (the action runs after the guard is dropped), so poisoning
        // can only come from a panicking test harness thread; recover.
        registry()
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn hit(stage: &str, ctx: &str) {
        let action = lock().get(stage).cloned();
        match action {
            Some(FaultAction::Panic) => panic!("failpoint '{stage}' fired"),
            Some(FaultAction::PanicIf(marker)) if ctx.contains(&marker) => {
                panic!("failpoint '{stage}' fired on marker '{marker}'");
            }
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::DelayIf(marker, d)) if ctx.contains(&marker) => {
                std::thread::sleep(d);
            }
            _ => {}
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn env_spec_parses_all_forms() {
            let map = from_env(Ok(
                "parse=panic; select=delay(25);disambiguate=panic-if(CHAOS);preprocess=delay-if(SLOW, 10);bogus;x=unknown()",
            ));
            assert_eq!(map.get("parse"), Some(&FaultAction::Panic));
            assert_eq!(
                map.get("select"),
                Some(&FaultAction::Delay(Duration::from_millis(25)))
            );
            assert_eq!(
                map.get("disambiguate"),
                Some(&FaultAction::PanicIf("CHAOS".into()))
            );
            assert_eq!(
                map.get("preprocess"),
                Some(&FaultAction::DelayIf(
                    "SLOW".into(),
                    Duration::from_millis(10)
                ))
            );
            assert_eq!(map.len(), 4, "malformed entries are dropped");
        }

        #[test]
        fn unset_env_is_empty() {
            assert!(from_env(Err(&std::env::VarError::NotPresent)).is_empty());
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_reflects_the_feature() {
        assert_eq!(super::enabled(), cfg!(feature = "failpoints"));
    }
}
