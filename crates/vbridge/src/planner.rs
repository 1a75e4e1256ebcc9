//! Cost-based walk planning for plan-mode extraction.
//!
//! The ViewCL side lowers a pane program into a walk-plan IR
//! (`viewcl::plan`); this module owns the pieces that belong to the
//! bridge: which execution mode a session runs in ([`ExecMode`]), how a
//! plan is scheduled against a given backend ([`PlanMode`]), and the
//! latency-profile-driven span merging ([`SpanPlanner`]) whose spans
//! `Target::fetch_span` pulls.
//!
//! The cost model is the same one Table 4 is built on: a wire packet
//! costs `base_ns + len * per_byte_ns`. Two byte ranges are worth
//! fetching as one span exactly when the gap between them is cheaper to
//! ship than a second round trip, i.e. when
//! `gap_bytes * per_byte_ns < base_ns`. On a high-latency KGDB link
//! (`base_ns` = 4.9 ms) that threshold is ~408 bytes; on the QEMU gdb
//! stub (~85 us) it is ~2.8 KiB; on the free profile merging is
//! unconstrained and only the span cap applies.

use crate::profile::LatencyProfile;
use crate::target::MAX_SPAN;

/// How a session turns ViewCL source into a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The classic recursive interpreter walk (default).
    Interp,
    /// Plan-mode: compile a walk-plan, warm the cache with scheduled
    /// spans, then run the same interpreter over the warm cache.
    Plan,
}

impl ExecMode {
    /// Stable wire name, used in `.vrec` capture meta.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Interp => "interp",
            ExecMode::Plan => "plan",
        }
    }

    /// Parse a wire name back; `None` for unknown strings.
    pub fn from_str_opt(s: &str) -> Option<ExecMode> {
        match s {
            "interp" => Some(ExecMode::Interp),
            "plan" => Some(ExecMode::Plan),
            _ => None,
        }
    }
}

/// How the plan executor schedules walks against the active backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Discovery walks run concurrently over a `Sync` view of the
    /// backend (overlapped round trips); all metered traffic — root
    /// resolution and the scheduled span fetches — stays sequential in
    /// deterministic node order. SimBackend only.
    Parallel,
    /// Discovery reads go through the metered target one at a time in
    /// node order, so the wire sequence is fully deterministic and
    /// `.vrec` captures replay exactly. Used for Record/Replay.
    Serialized,
    /// No cache to warm: plan execution degrades to the plain
    /// interpreter walk (graphs and stats identical to interp mode).
    Disabled,
}

impl PlanMode {
    /// Pick the scheduling mode for a target: parallel needs both a
    /// block cache to warm and a `Sync`-capable backend; a cache alone
    /// gets the serializing mode; no cache disables planning.
    pub fn choose(cache_enabled: bool, has_sync_view: bool) -> PlanMode {
        if !cache_enabled {
            PlanMode::Disabled
        } else if has_sync_view {
            PlanMode::Parallel
        } else {
            PlanMode::Serialized
        }
    }

    /// Short display name (`parallel` / `serialized` / `off`).
    pub fn as_str(self) -> &'static str {
        match self {
            PlanMode::Parallel => "parallel",
            PlanMode::Serialized => "serialized",
            PlanMode::Disabled => "off",
        }
    }
}

/// Merges the byte ranges a plan node will touch into wire spans, gap
/// threshold chosen from the active [`LatencyProfile`].
#[derive(Debug, Clone, Copy)]
pub struct SpanPlanner {
    /// Merge two ranges when the gap between them is at most this many
    /// bytes (`base_ns / per_byte_ns`).
    pub gap_threshold: u64,
    /// Never grow a merged span beyond this many bytes.
    pub span_cap: u64,
}

impl SpanPlanner {
    /// Derive the merge threshold from a latency profile. A free wire
    /// (`per_byte_ns == 0`) merges without a gap limit — fewer packets
    /// always wins when bytes are free.
    pub fn for_profile(profile: &LatencyProfile) -> SpanPlanner {
        let gap_threshold = profile
            .base_ns
            .checked_div(profile.per_byte_ns)
            .unwrap_or(u64::MAX);
        SpanPlanner {
            gap_threshold,
            span_cap: MAX_SPAN,
        }
    }

    /// Merge `(addr, len)` ranges into fetch spans: sort, drop empties,
    /// then fold neighbours whose gap is within the threshold as long
    /// as the merged span stays under the cap. Deterministic for a
    /// given input set regardless of input order.
    pub fn merge(&self, mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        ranges.retain(|&(_, len)| len > 0);
        ranges.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (addr, len) in ranges {
            let end = addr.saturating_add(len);
            if let Some(last) = out.last_mut() {
                let last_end = last.0.saturating_add(last.1);
                let merged_len = end.saturating_sub(last.0);
                if addr <= last_end.saturating_add(self.gap_threshold)
                    && merged_len <= self.span_cap
                {
                    if merged_len > last.1 {
                        last.1 = merged_len;
                    }
                    continue;
                }
            }
            out.push((addr, len));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_round_trips_through_wire_names() {
        for mode in [ExecMode::Interp, ExecMode::Plan] {
            assert_eq!(ExecMode::from_str_opt(mode.as_str()), Some(mode));
        }
        assert_eq!(ExecMode::from_str_opt("warp"), None);
    }

    #[test]
    fn plan_mode_selection_matches_backend_capabilities() {
        assert_eq!(PlanMode::choose(false, true), PlanMode::Disabled);
        assert_eq!(PlanMode::choose(false, false), PlanMode::Disabled);
        assert_eq!(PlanMode::choose(true, true), PlanMode::Parallel);
        assert_eq!(PlanMode::choose(true, false), PlanMode::Serialized);
    }

    #[test]
    fn kgdb_threshold_merges_near_ranges_only() {
        // kgdb_rpi400: 4_900_000 / 12_000 = 408 bytes.
        let p = SpanPlanner::for_profile(&LatencyProfile::kgdb_rpi400());
        assert_eq!(p.gap_threshold, 408);
        let spans = p.merge(vec![(0x1000, 8), (0x1100, 8), (0x2000, 8)]);
        // 0x1000..0x1108 merge (gap 248 <= 408); 0x2000 is its own span.
        assert_eq!(spans, vec![(0x1000, 0x108), (0x2000, 8)]);
    }

    #[test]
    fn free_profile_merges_up_to_the_cap() {
        let p = SpanPlanner::for_profile(&LatencyProfile::free());
        assert_eq!(p.gap_threshold, u64::MAX);
        let spans = p.merge(vec![(0, 8), (100_000, 8)]);
        // 100 KB apart but the merged span would exceed the 4 KiB cap.
        assert_eq!(spans.len(), 2);
        let spans = p.merge(vec![(0, 8), (2048, 8)]);
        assert_eq!(spans, vec![(0, 2056)]);
    }

    #[test]
    fn merge_is_order_insensitive_and_dedups_overlaps() {
        let p = SpanPlanner {
            gap_threshold: 0,
            span_cap: 4096,
        };
        let a = p.merge(vec![(0x10, 16), (0x20, 16), (0x18, 8)]);
        let b = p.merge(vec![(0x18, 8), (0x10, 16), (0x20, 16)]);
        assert_eq!(a, b);
        assert_eq!(a, vec![(0x10, 0x20)]);
    }
}
