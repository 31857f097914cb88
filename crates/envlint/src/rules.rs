//! The Env2Vec workspace lint rules: ids, rationale, and scope.
//!
//! Every rule is deny-by-default inside its scope. The only escape hatch
//! is an inline control comment on the offending line (or the line
//! directly above):
//!
//! ```text
//! // envlint: allow(no-panic) — reason the invariant holds here
//! ```
//!
//! A directive with no reason text does not suppress anything; it is
//! itself reported (as `bad-allow`), so every exception stays documented.

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `unwrap()` / `expect()` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` in non-test code. A panic in library code kills a
    /// whole screening run; return `Result` or document the invariant.
    NoPanic,
    /// Direct `==` / `!=` against a floating-point literal or float
    /// constant outside tests. Exact comparisons hide rounding bugs that
    /// corrupt regenerated tables; use a tolerance or document why the
    /// exact bit-pattern check is intended (e.g. a division guard).
    FloatCmp,
    /// `HashMap` / `HashSet` in deterministic code paths (model,
    /// training, eval, telemetry). Iteration order is randomised per
    /// process, so vocab ids, scraped series, and report rows silently
    /// reorder across runs; use `BTreeMap` / `BTreeSet` or sorted
    /// iteration.
    HashIter,
    /// Wall-clock or OS-entropy access (`SystemTime::now`,
    /// `Instant::now`, `thread_rng`, `from_entropy`) in crates that feed
    /// the repro tables. Repro runs must be a pure function of the seed.
    WallClock,
    /// `as` cast to an integer type narrower than 64 bits inside the
    /// `linalg` hot kernels, where a silently truncated index corrupts
    /// results at production matrix sizes.
    CastTruncation,
    /// A lock guard (`.lock()` / `.read()` / `.write()` binding) live
    /// across a call that hands work to `par` (`par::scope`, `spawn`,
    /// `spawn_named`, `par_map`, ...). The caller waits in the join or
    /// runs the jobs itself, so a job that takes the held lock
    /// deadlocks against its own spawner.
    LockAcrossSpawn,
    /// Two distinct lock acquisitions live in the same scope. With lock
    /// domains in `par`'s slots, the TSDB, the alarm store and the `obs`
    /// registries, inconsistent nesting order between any two sites is
    /// an ABBA deadlock waiting for load; allowed only with a reason
    /// proving the order is globally fixed.
    LockOrder,
    /// An `unsafe` block, fn, or impl without a `// SAFETY:` comment on
    /// or directly above it documenting why the invariants hold.
    UnsafeBlock,
    /// A lock guard live across a blocking file/network call. Device
    /// latency under a lock serializes every thread waiting for that
    /// lock behind the disk.
    GuardAcrossIo,
    /// An `envlint: allow` directive with no reason text, or naming an
    /// unknown rule. Emitted by the analyzer itself.
    BadAllow,
}

/// Crates whose output lands in the repro tables or scraped telemetry:
/// the `wall-clock` rule's positive scope. Paired with
/// [`WALL_CLOCK_EXEMPT`]; the two lists must jointly cover every
/// workspace member (enforced by `tests/scope_coverage.rs`), so a new
/// crate cannot silently fall outside the rule.
pub const WALL_CLOCK_SCOPE: [&str; 11] = [
    "core",
    "nn",
    "baselines",
    "linalg",
    "htm",
    "datagen",
    "eval",
    "par",
    "introspect",
    "telemetry",
    // `obs` joined the scope when it grew `obs::trace`: trace ids must
    // be deterministic (seeded counters, never the clock), so the crate
    // is now checked and its two legitimate timestamp sites (span
    // start/stop, log lines) carry reasoned `allow(wall-clock)`s.
    "obs",
];

/// Crates documented as *intentionally* outside `wall-clock`: the CLI
/// and bench driver measure wall time by design, `serve` times requests
/// and paces storms, `envlint` holds no model state, and `xtests` is
/// test code.
pub const WALL_CLOCK_EXEMPT: [&str; 5] = ["cli", "bench", "serve", "envlint", "xtests"];

/// Crates exempt from `hash-iter`: flag parsing and the bench driver do
/// I/O, not numerics; `envlint` itself holds no model state.
pub const HASH_ITER_EXEMPT: [&str; 4] = ["cli", "bench", "envlint", "xtests"];

impl RuleId {
    /// All reportable rules, in severity order.
    pub const ALL: [RuleId; 10] = [
        RuleId::NoPanic,
        RuleId::FloatCmp,
        RuleId::HashIter,
        RuleId::WallClock,
        RuleId::CastTruncation,
        RuleId::LockAcrossSpawn,
        RuleId::LockOrder,
        RuleId::UnsafeBlock,
        RuleId::GuardAcrossIo,
        RuleId::BadAllow,
    ];

    /// The four concurrency rules introduced with the block-scoped
    /// analyzer, in one place so CI can gate specifically on them.
    pub const CONCURRENCY: [RuleId; 4] = [
        RuleId::LockAcrossSpawn,
        RuleId::LockOrder,
        RuleId::UnsafeBlock,
        RuleId::GuardAcrossIo,
    ];

    /// The stable id used in output and in `allow(...)` directives.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::NoPanic => "no-panic",
            RuleId::FloatCmp => "float-cmp",
            RuleId::HashIter => "hash-iter",
            RuleId::WallClock => "wall-clock",
            RuleId::CastTruncation => "cast-truncation",
            RuleId::LockAcrossSpawn => "lock-across-spawn",
            RuleId::LockOrder => "lock-order",
            RuleId::UnsafeBlock => "unsafe-block",
            RuleId::GuardAcrossIo => "guard-across-io",
            RuleId::BadAllow => "bad-allow",
        }
    }

    /// Parses a rule id as written in an `allow(...)` directive.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.id() == s)
    }

    /// One-line description shown by `envlint --rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::NoPanic => {
                "no unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! in non-test code"
            }
            RuleId::FloatCmp => {
                "no == / != against float literals or float constants outside tests"
            }
            RuleId::HashIter => {
                "no HashMap/HashSet in deterministic code paths (use BTreeMap/BTreeSet)"
            }
            RuleId::WallClock => {
                "no SystemTime/Instant::now or OS-entropy RNG in repro-table crates"
            }
            RuleId::CastTruncation => "no narrowing integer `as` casts in linalg hot kernels",
            RuleId::LockAcrossSpawn => {
                "no lock guard live across par::scope/spawn/par_map (pool deadlock risk)"
            }
            RuleId::LockOrder => {
                "no two lock guards live in the same scope without a reasoned ordering allow"
            }
            RuleId::UnsafeBlock => "no unsafe without a `// SAFETY:` comment on or above it",
            RuleId::GuardAcrossIo => {
                "no lock guard live across blocking file/network calls (shard serialization)"
            }
            RuleId::BadAllow => "envlint: allow directive without a reason or with an unknown rule",
        }
    }

    /// Whether the rule applies inside the crate living at
    /// `crates/<crate_dir>` (or `xtests`).
    ///
    /// Scopes encode which invariant each part of the workspace carries:
    /// everything must be panic-free and float-comparison-clean;
    /// determinism rules target the crates whose output lands in the
    /// repro tables or the scraped telemetry; the cast rule targets the
    /// numeric kernels.
    pub fn applies_to(self, crate_dir: &str) -> bool {
        match self {
            RuleId::NoPanic | RuleId::FloatCmp | RuleId::BadAllow => true,
            // The concurrency rules apply everywhere: a deadlock or an
            // undocumented unsafe is a hazard regardless of which crate
            // it lives in.
            RuleId::LockAcrossSpawn
            | RuleId::LockOrder
            | RuleId::UnsafeBlock
            | RuleId::GuardAcrossIo => true,
            RuleId::HashIter => !HASH_ITER_EXEMPT.contains(&crate_dir),
            // `par` is in scope: its determinism contract forbids timing
            // from influencing results, so any clock use there must carry
            // a reasoned allow (pool-utilisation metrics only).
            // `introspect` is in scope for the same reason: the
            // self-monitor's alarms land in tier-1 test assertions, so
            // its series must be indexed by logical ticks, never wall
            // time.
            // `telemetry` is in scope since the TSDB became
            // self-instrumenting: stored samples and query results must
            // stay a pure function of the writes, so the engine's one
            // latency-timer call site carries a reasoned allow.
            RuleId::WallClock => WALL_CLOCK_SCOPE.contains(&crate_dir),
            RuleId::CastTruncation => crate_dir == "linalg",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.id()), Some(r));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }

    #[test]
    fn scopes() {
        assert!(RuleId::NoPanic.applies_to("cli"));
        assert!(!RuleId::HashIter.applies_to("cli"));
        assert!(RuleId::HashIter.applies_to("core"));
        assert!(RuleId::WallClock.applies_to("linalg"));
        assert!(RuleId::WallClock.applies_to("par"));
        assert!(RuleId::WallClock.applies_to("introspect"));
        assert!(RuleId::WallClock.applies_to("telemetry"));
        assert!(RuleId::WallClock.applies_to("obs"));
        assert!(!RuleId::WallClock.applies_to("serve"));
        assert!(RuleId::CastTruncation.applies_to("linalg"));
        assert!(!RuleId::CastTruncation.applies_to("nn"));
        for rule in RuleId::CONCURRENCY {
            for c in [
                "core",
                "par",
                "telemetry",
                "obs",
                "cli",
                "envlint",
                "xtests",
            ] {
                assert!(rule.applies_to(c), "{} must apply to {c}", rule.id());
            }
        }
    }

    #[test]
    fn wall_clock_scope_and_exempt_are_disjoint() {
        for c in WALL_CLOCK_SCOPE {
            assert!(
                !WALL_CLOCK_EXEMPT.contains(&c),
                "{c} is in both the scope and the exempt list"
            );
        }
    }
}
