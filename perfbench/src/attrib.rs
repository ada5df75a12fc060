//! Exclusive attribution of a request's virtual time to its stages.
//!
//! Stage spans overlap: on one QP the eager `doorbell-post` and the
//! `cq-drain` derived from the same fabric completions cover the same
//! interval, striped lanes drain side by side, and the pipelined seal
//! persists early runs while later ones are still in flight. Summing
//! span durations therefore over-counts. Here every nanosecond of a
//! window (a request's `total` span, or its client `rpc` span) goes to
//! exactly one stage: the highest in a fixed precedence among those
//! covering it. Nanoseconds no listed stage covers are unattributed, so
//! attributed plus unattributed always equals the window.

use std::collections::BTreeMap;

use portus_sim::Stage;

/// Precedence inside a daemon request's `total` span, highest first.
/// The fabric transfer wins over the seal work it overlaps (it is what
/// the request waits for until the last byte lands); the catalog probe
/// wins over the validation span that contains it; the doorbell post
/// only keeps what the completions do not cover.
pub const DAEMON_PRECEDENCE: &[Stage] = &[
    Stage::RetryBackoff,
    Stage::CqDrain,
    Stage::Persist,
    Stage::Checksum,
    Stage::CarryCopy,
    Stage::Dedup,
    Stage::CatalogLookup,
    Stage::HeaderFlip,
    Stage::WqeBuild,
    Stage::Validate,
    Stage::DoorbellPost,
];

/// Precedence inside a client's `rpc` span: the daemon's own work, then
/// its queueing; the remainder is the control-channel round trip.
pub const RPC_PRECEDENCE: &[Stage] = &[Stage::Total, Stage::DispatchWait];

/// One window's exclusive breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Window length in ns.
    pub window_ns: u64,
    /// Exclusive ns per stage (stages with none are absent).
    pub by_stage: BTreeMap<Stage, u64>,
    /// Window ns no listed stage covers.
    pub unattributed_ns: u64,
}

impl Attribution {
    /// Exclusive ns of `stage` (0 when it never held the window).
    #[cfg(test)]
    pub fn get(&self, stage: Stage) -> u64 {
        self.by_stage.get(&stage).copied().unwrap_or(0)
    }

    /// Sum of every stage's exclusive ns.
    pub fn attributed_ns(&self) -> u64 {
        self.by_stage.values().sum()
    }
}

/// Attributes `[window.0, window.1)` over `spans` (`(stage, start_ns,
/// end_ns)`), clipping each span to the window. Stages missing from
/// `precedence` are ignored. A sweep over span boundaries keeps one
/// open-span count per precedence rank, so the cost is
/// `O(spans · log spans)`.
pub fn attribute(
    window: (u64, u64),
    spans: &[(Stage, u64, u64)],
    precedence: &[Stage],
) -> Attribution {
    let (w0, w1) = window;
    let mut out = Attribution {
        window_ns: w1.saturating_sub(w0),
        ..Attribution::default()
    };
    // (instant, rank, +1 open / -1 close)
    let mut events: Vec<(u64, usize, i32)> = Vec::with_capacity(spans.len() * 2);
    for &(stage, s, e) in spans {
        let Some(rank) = precedence.iter().position(|&p| p == stage) else {
            continue;
        };
        let (s, e) = (s.max(w0), e.min(w1));
        if s < e {
            events.push((s, rank, 1));
            events.push((e, rank, -1));
        }
    }
    events.sort_unstable();
    let mut open = vec![0i32; precedence.len()];
    let mut cursor = w0;
    let mut i = 0;
    while i < events.len() {
        let at = events[i].0;
        if at > cursor {
            let len = at - cursor;
            match open.iter().position(|&c| c > 0) {
                Some(rank) => *out.by_stage.entry(precedence[rank]).or_default() += len,
                None => out.unattributed_ns += len,
            }
            cursor = at;
        }
        while i < events.len() && events[i].0 == at {
            open[events[i].1] += events[i].2;
            i += 1;
        }
    }
    out.unattributed_ns += w1.saturating_sub(cursor.max(w0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_exact(a: &Attribution) {
        assert_eq!(a.attributed_ns() + a.unattributed_ns, a.window_ns);
    }

    #[test]
    fn overlapping_post_and_drain_count_once() {
        // Single-QP shape: the eager post covers the whole transfer
        // plus a little queueing before it; the drain covers the
        // transfer itself.
        let spans = [
            (Stage::Validate, 0, 10),
            (Stage::WqeBuild, 10, 12),
            (Stage::DoorbellPost, 12, 100),
            (Stage::CqDrain, 15, 100),
            (Stage::Persist, 100, 130),
            (Stage::Checksum, 130, 160),
            (Stage::HeaderFlip, 160, 161),
        ];
        let a = attribute((0, 170), &spans, DAEMON_PRECEDENCE);
        check_exact(&a);
        assert_eq!(a.get(Stage::CqDrain), 85);
        assert_eq!(a.get(Stage::DoorbellPost), 3);
        assert_eq!(a.get(Stage::Validate), 10);
        assert_eq!(a.get(Stage::Persist), 30);
        assert_eq!(a.unattributed_ns, 9);
        // Naive sums would report 88 + 85 of fabric time in a 170 ns op.
        let naive: u64 = spans.iter().map(|&(_, s, e)| e - s).sum();
        assert!(naive > a.window_ns);
    }

    #[test]
    fn striped_lanes_and_pipelined_seal_are_exclusive() {
        let spans = [
            (Stage::CqDrain, 10, 50),  // lane 0
            (Stage::CqDrain, 12, 70),  // lane 1
            (Stage::Persist, 50, 60),  // lane-0 run persisted under lane 1
            (Stage::Checksum, 60, 66), // ... and digested
            (Stage::Persist, 70, 80),
            (Stage::Checksum, 80, 86),
            (Stage::HeaderFlip, 86, 87),
        ];
        let a = attribute((0, 90), &spans, DAEMON_PRECEDENCE);
        check_exact(&a);
        assert_eq!(a.get(Stage::CqDrain), 60);
        assert_eq!(a.get(Stage::Persist), 10);
        assert_eq!(a.get(Stage::Checksum), 6);
        assert_eq!(a.get(Stage::HeaderFlip), 1);
        assert_eq!(a.unattributed_ns, 13);
    }

    #[test]
    fn spans_are_clipped_to_the_window_and_unknown_stages_ignored() {
        let spans = [
            (Stage::DispatchWait, 0, 40), // outside `total`'s precedence
            (Stage::Persist, 30, 55),
            (Stage::Checksum, 95, 130),
        ];
        let a = attribute((50, 100), &spans, DAEMON_PRECEDENCE);
        check_exact(&a);
        assert_eq!(a.get(Stage::Persist), 5);
        assert_eq!(a.get(Stage::Checksum), 5);
        assert_eq!(a.unattributed_ns, 40);
    }

    #[test]
    fn catalog_probe_wins_over_its_validation_span() {
        let spans = [(Stage::Validate, 0, 20), (Stage::CatalogLookup, 0, 15)];
        let a = attribute((0, 20), &spans, DAEMON_PRECEDENCE);
        check_exact(&a);
        assert_eq!(a.get(Stage::CatalogLookup), 15);
        assert_eq!(a.get(Stage::Validate), 5);
    }

    #[test]
    fn rpc_window_splits_into_queueing_daemon_and_transit() {
        let spans = [
            (Stage::DispatchWait, 5, 9),
            (Stage::Total, 9, 90),
            (Stage::Persist, 20, 30),
        ];
        let a = attribute((0, 100), &spans, RPC_PRECEDENCE);
        check_exact(&a);
        assert_eq!(a.get(Stage::Total), 81);
        assert_eq!(a.get(Stage::DispatchWait), 4);
        assert_eq!(a.unattributed_ns, 15);
    }

    #[test]
    fn empty_and_degenerate_windows() {
        let a = attribute((10, 10), &[(Stage::Persist, 0, 20)], DAEMON_PRECEDENCE);
        assert_eq!(a, Attribution::default());
        let a = attribute((0, 7), &[], DAEMON_PRECEDENCE);
        assert_eq!(a.unattributed_ns, 7);
        check_exact(&a);
    }

    #[test]
    fn exact_on_pseudo_random_span_sets() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _ in 0..500 {
            let w0 = next(1000);
            let w1 = w0 + next(5000);
            let n = next(40) as usize;
            let spans: Vec<(Stage, u64, u64)> = (0..n)
                .map(|_| {
                    let stage = DAEMON_PRECEDENCE[next(DAEMON_PRECEDENCE.len() as u64) as usize];
                    let s = next(7000);
                    (stage, s, s + next(2000))
                })
                .collect();
            let a = attribute((w0, w1), &spans, DAEMON_PRECEDENCE);
            check_exact(&a);
            // Each stage's exclusive time never exceeds its clipped union.
            for (&stage, &ns) in &a.by_stage {
                let clipped: u64 = spans
                    .iter()
                    .filter(|s| s.0 == stage)
                    .map(|&(_, s, e)| e.min(w1).saturating_sub(s.max(w0)))
                    .sum();
                assert!(ns <= clipped);
            }
        }
    }
}
