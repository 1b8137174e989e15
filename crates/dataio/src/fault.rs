//! Deterministic, seeded I/O fault injection for crash-safety testing.
//!
//! A fault *plan* is a list of specs, each naming an injection **site**,
//! a fault [`FaultKind`], and the 1-based ordinal of the matching
//! operation to fire on. Plans come from the `PPGNN_FAULTS` knob or are
//! installed programmatically by tests via [`install`]. With no plan
//! installed the facility costs one relaxed atomic load per injection
//! point — the same disabled-path discipline as `ppgnn-telemetry`.
//!
//! Grammar (specs joined with `;`):
//!
//! ```text
//! PPGNN_FAULTS = spec (";" spec)*
//! spec         = site ":" kind ":" nth ["+"] ["@" scope]
//!              | "seed=" u64
//! kind         = "write" | "read" | "torn" | "flip"
//! ```
//!
//! `nth` counts matching operations from 1; a trailing `+` makes the
//! spec *sticky* (it fires on the nth and every later operation —
//! modelling a process killed at that point, since nothing after the
//! kill point succeeds either). `@scope` restricts a spec to paths
//! containing the substring, so parallel tests in one process cannot
//! cross-fire. `seed=<u64>` installs no specs; it parameterizes the
//! chaos suite, which derives per-round plans from it (see
//! [`env_seed`]).
//!
//! Injection sites wired through the store stack:
//!
//! | site              | operation                                   |
//! |-------------------|---------------------------------------------|
//! | `hop`             | hop-file atomic write                       |
//! | `manifest`        | store/preprop manifest atomic write         |
//! | `sharded-manifest`| `sharded.txt` atomic write                  |
//! | `sidecar`         | rows/labels/nodes sidecar atomic write      |
//! | `journal`         | completed-units journal append              |
//! | `read`            | hop payload read in the feature store       |
//!
//! Write sites accept `write` (the write call errors), `torn` (half the
//! bytes land, then an error — the commit protocol must leave no
//! half-written visible file), and `flip` (one deterministic bit is
//! flipped but the write *succeeds* — checksums must catch it on read).
//! The read site accepts `read`.

use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use ppgnn_tensor::knobs;

/// What a firing fault does to the operation it intercepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write call fails with an injected I/O error.
    WriteErr,
    /// The read call fails with an injected I/O error.
    ReadErr,
    /// Half the bytes are written, then the call errors (torn write).
    Torn,
    /// One bit of the written bytes is flipped; the call succeeds.
    BitFlip,
}

impl FaultKind {
    fn is_write_side(self) -> bool {
        !matches!(self, FaultKind::ReadErr)
    }

    /// Short wire name of the kind, as written in `PPGNN_FAULTS` specs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::WriteErr => "write",
            FaultKind::ReadErr => "read",
            FaultKind::Torn => "torn",
            FaultKind::BitFlip => "flip",
        }
    }
}

/// One firing of a fault, returned from [`write_fault`] / [`read_fault`]
/// for the caller to apply.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// What to do to the intercepted operation.
    pub kind: FaultKind,
    /// Ordinal of the firing within its spec — seeds the deterministic
    /// bit-flip position.
    ord: u64,
    salt: u64,
}

impl Fault {
    /// Deterministic (byte, bit) position for a [`FaultKind::BitFlip`]
    /// over a buffer of `len` bytes.
    pub fn flip_position(&self, len: usize) -> (usize, u32) {
        let h = fnv1a(&(self.salt ^ self.ord.wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_le_bytes());
        ((h % len.max(1) as u64) as usize, (h >> 32) as u32 % 8)
    }

    /// An injected-error payload naming the site ordinal, so test
    /// failures print which firing produced them.
    pub fn to_io_error(&self) -> std::io::Error {
        std::io::Error::other(format!(
            "injected {} fault (op #{})",
            self.kind.name(),
            self.ord
        ))
    }
}

/// FNV-1a over `bytes` — the store's byte-wise checksum, reused to derive
/// deterministic flip positions.
fn fnv1a(bytes: &[u8]) -> u64 {
    crate::store::fnv1a_bytes(crate::store::FNV_OFFSET, bytes)
}

#[derive(Debug, Clone)]
struct Spec {
    site: String,
    kind: FaultKind,
    nth: u64,
    sticky: bool,
    scope: Option<String>,
    hits: u64,
}

/// A set of fault specs to arm via [`install`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    specs: Vec<Spec>,
    seed: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (installs as disarmed).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends a spec; `nth` is 1-based, `sticky` keeps it firing from
    /// the nth matching operation onward.
    #[must_use]
    pub fn with_spec(mut self, site: &str, kind: FaultKind, nth: u64, sticky: bool) -> Self {
        self.specs.push(Spec {
            site: site.to_string(),
            kind,
            nth: nth.max(1),
            sticky,
            scope: None,
            hits: 0,
        });
        self
    }

    /// A single one-shot fault at the nth matching operation.
    pub fn one_shot(site: &str, kind: FaultKind, nth: u64) -> Self {
        FaultPlan::new().with_spec(site, kind, nth, false)
    }

    /// A sticky write error from the nth operation onward — the closest
    /// analogue of killing the process at that point.
    pub fn kill_at(site: &str, nth: u64) -> Self {
        FaultPlan::new().with_spec(site, FaultKind::WriteErr, nth, true)
    }

    /// Restricts every spec in the plan to paths containing `scope`.
    #[must_use]
    pub fn scoped(mut self, scope: &str) -> Self {
        for s in &mut self.specs {
            s.scope = Some(scope.to_string());
        }
        self
    }

    /// Whether the plan injects anything (a bare `seed=` plan does not).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The `seed=` value, if the plan carries one.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Parses the `PPGNN_FAULTS` grammar (see the module docs).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed spec.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for raw in text.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            if let Some(seed) = raw.strip_prefix("seed=") {
                plan.seed = Some(
                    seed.parse::<u64>()
                        .map_err(|_| format!("bad seed in fault spec `{raw}`"))?,
                );
                continue;
            }
            let (body, scope) = match raw.split_once('@') {
                Some((b, s)) if !s.is_empty() => (b, Some(s.to_string())),
                Some((b, _)) => (b, None),
                None => (raw, None),
            };
            let mut parts = body.split(':');
            let (site, kind, nth) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(site), Some(kind), Some(nth), None) if !site.is_empty() => (site, kind, nth),
                _ => {
                    return Err(format!(
                        "bad fault spec `{raw}`: want site:kind:nth[+][@scope]"
                    ))
                }
            };
            let kind = match kind {
                "write" => FaultKind::WriteErr,
                "read" => FaultKind::ReadErr,
                "torn" => FaultKind::Torn,
                "flip" => FaultKind::BitFlip,
                other => return Err(format!("unknown fault kind `{other}` in `{raw}`")),
            };
            let (nth, sticky) = match nth.strip_suffix('+') {
                Some(n) => (n, true),
                None => (nth, false),
            };
            let nth = nth
                .parse::<u64>()
                .map_err(|_| format!("bad ordinal in fault spec `{raw}`"))?;
            plan = plan.with_spec(site, kind, nth, sticky);
            if let Some(spec) = plan.specs.last_mut() {
                spec.scope = scope;
            }
        }
        Ok(plan)
    }
}

const STATE_UNKNOWN: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Whether any fault specs are armed. One relaxed load once the
/// `PPGNN_FAULTS` knob has been latched.
fn armed() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// One-time slow path of [`armed`]: parse and latch `PPGNN_FAULTS`.
///
/// # Panics
///
/// Panics on a malformed plan — a mistyped fault spec silently
/// injecting nothing would defeat the test using it.
#[cold]
fn init_from_env() -> bool {
    let plan = match knobs::string_value(knobs::FAULTS) {
        Some(text) => match FaultPlan::parse(&text) {
            Ok(plan) => Some(plan),
            Err(e) => panic!("invalid PPGNN_FAULTS: {e}"),
        },
        None => None,
    };
    let on = plan.as_ref().is_some_and(|p| !p.is_empty());
    *lock_plan() = plan;
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

fn lock_plan() -> std::sync::MutexGuard<'static, Option<FaultPlan>> {
    PLAN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Programmatically arms a fault plan, overriding `PPGNN_FAULTS`.
/// Tests install per-case plans (usually [`FaultPlan::scoped`] to their
/// own temp dir) and [`clear`] them when done.
pub fn install(plan: FaultPlan) {
    let on = !plan.is_empty();
    *lock_plan() = Some(plan);
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Disarms all fault injection.
pub fn clear() {
    *lock_plan() = None;
    STATE.store(STATE_OFF, Ordering::Relaxed);
}

/// The chaos-suite seed: the `seed=<u64>` spec from `PPGNN_FAULTS`,
/// latched on first call. The seed is a session constant — it survives
/// [`install`]/[`clear`] cycles, so chaos tests that arm and disarm
/// per-round plans still derive every round from the one seed the CI
/// leg (or a reproducing developer) exported.
pub fn env_seed() -> Option<u64> {
    static ENV_SEED: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    *ENV_SEED.get_or_init(|| {
        let text = knobs::string_value(knobs::FAULTS)?;
        match FaultPlan::parse(&text) {
            Ok(plan) => plan.seed,
            Err(e) => panic!("invalid PPGNN_FAULTS: {e}"),
        }
    })
}

fn check(site: &str, path: &Path, write_side: bool) -> Option<Fault> {
    if !armed() {
        return None;
    }
    let mut guard = lock_plan();
    let plan = guard.as_mut()?;
    let path_str = path.to_string_lossy();
    for s in &mut plan.specs {
        if s.kind.is_write_side() != write_side || s.site != site {
            continue;
        }
        if let Some(scope) = &s.scope {
            if !path_str.contains(scope.as_str()) {
                continue;
            }
        }
        s.hits += 1;
        let fire = if s.sticky {
            s.hits >= s.nth
        } else {
            s.hits == s.nth
        };
        if fire {
            return Some(Fault {
                kind: s.kind,
                ord: s.hits,
                salt: fnv1a(s.site.as_bytes()),
            });
        }
    }
    None
}

/// Asks the armed plan whether this write operation should fault.
/// `site` names the injection point (see the module docs); `path` is
/// the destination file, matched against spec scopes.
pub fn write_fault(site: &str, path: &Path) -> Option<Fault> {
    check(site, path, true)
}

/// Asks the armed plan whether this read operation should fault.
pub fn read_fault(site: &str, path: &Path) -> Option<Fault> {
    check(site, path, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fault state is process-global: serialize the tests that arm it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_accepts_full_grammar() {
        let p = FaultPlan::parse("hop:write:2;read:read:1+@/tmp/x;seed=42;manifest:flip:3")
            .expect("fixture invariant holds");
        assert_eq!(p.specs.len(), 3);
        assert_eq!(p.seed(), Some(42));
        assert_eq!(p.specs[0].site, "hop");
        assert_eq!(p.specs[0].kind, FaultKind::WriteErr);
        assert_eq!(p.specs[0].nth, 2);
        assert!(!p.specs[0].sticky);
        assert!(p.specs[1].sticky);
        assert_eq!(p.specs[1].scope.as_deref(), Some("/tmp/x"));
        assert_eq!(p.specs[2].kind, FaultKind::BitFlip);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("hop:write").is_err());
        assert!(FaultPlan::parse("hop:sideways:1").is_err());
        assert!(FaultPlan::parse("hop:write:zero").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse(":write:1").is_err());
    }

    #[test]
    fn one_shot_fires_exactly_on_the_nth_operation() {
        let _guard = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        install(FaultPlan::one_shot("hop", FaultKind::WriteErr, 2));
        let p = Path::new("/any/hop_0.ppgt");
        assert!(write_fault("hop", p).is_none());
        assert!(write_fault("manifest", p).is_none()); // other site: no count
        let f = write_fault("hop", p).expect("fixture invariant holds");
        assert_eq!(f.kind, FaultKind::WriteErr);
        assert!(write_fault("hop", p).is_none()); // one-shot: spent
        clear();
        assert!(write_fault("hop", p).is_none());
    }

    #[test]
    fn sticky_kill_keeps_firing_and_scope_filters_paths() {
        let _guard = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        install(FaultPlan::kill_at("hop", 1).scoped("/store-a/"));
        let a = Path::new("/store-a/hop_0.ppgt");
        let b = Path::new("/store-b/hop_0.ppgt");
        assert!(write_fault("hop", b).is_none());
        assert!(write_fault("hop", a).is_some());
        assert!(write_fault("hop", a).is_some()); // sticky
        assert!(write_fault("hop", b).is_none());
        clear();
    }

    #[test]
    fn flip_positions_are_deterministic_and_in_range() {
        let f = Fault {
            kind: FaultKind::BitFlip,
            ord: 3,
            salt: fnv1a(b"hop"),
        };
        let (byte, bit) = f.flip_position(1000);
        assert_eq!((byte, bit), f.flip_position(1000));
        assert!(byte < 1000);
        assert!(bit < 8);
        assert_eq!(f.flip_position(0).0, 0); // empty buffers stay safe
    }
}
