//! Structured tracing/metrics shared by all three simulation engines.
//!
//! The paper's architecture claims are about *measured* behaviour — execution
//! time (4.5)/(4.8), PE counts, link usage — and this module makes the
//! measurements observable per cycle instead of only as end-of-run
//! aggregates. Every engine's general entry point
//! ([`crate::clocked::run_clocked_faulted`],
//! [`crate::mapped::simulate_mapped_faulted`],
//! [`crate::compiled::CompiledSchedule::execute_faulted`] and
//! [`crate::compiled::CompiledSchedule::mapped_report_faulted`], each with
//! [`crate::fault::NoFaults`] for a clean run) emits [`TraceEvent`]s into a
//! caller-chosen [`TraceSink`]:
//!
//! * [`NullSink`] — the default, statically zero-overhead: its
//!   `ENABLED = false` associated constant lets the emission guards
//!   monomorphise away, so the untraced entry points cost nothing;
//! * [`RecordingSink`] — in-memory capture with incrementally maintained
//!   [`TraceRollup`] counters (per-PE fires, wavefront width per cycle,
//!   per-column token counts and in-flight high-water marks, per-link
//!   occupancy) plus Chrome-trace/JSON ([`RecordingSink::to_chrome_trace`])
//!   and CSV ([`RecordingSink::to_csv`]) exporters.
//!
//! The two clocked engines emit **identical event streams** for identical
//! `(alg, T, P)` inputs — the compiled backend reconstructs events during its
//! bookkeeping replay, after the value phase has settled every token —
//! which `tests/engine_agreement.rs` pins down.

use bitlevel_json::Json;
use bitlevel_linalg::IVec;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a [`RecordingSink`] retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Keep the full per-event list (needed for the Chrome-trace/CSV
    /// exporters and event-stream equality tests). [`TraceRollup`] counters
    /// are maintained either way.
    pub events: bool,
    /// Optional cap on the retained event list. Once the list is full,
    /// further events still update the rollup but are dropped from the list
    /// and counted in [`TraceRollup::dropped_events`] — long fault campaigns
    /// cannot grow memory unboundedly.
    pub max_events: Option<usize>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            events: true,
            max_events: None,
        }
    }
}

/// One observable simulation event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A dependence column was routed at pre-route/compile time.
    ColumnRoute {
        /// Dependence column index.
        column: usize,
        /// Hop count of the chosen route.
        hops: i64,
        /// Per-primitive usage counts (by column index of `P`).
        usage: IVec,
    },
    /// A dependence column admits no route on this machine.
    ColumnUnroutable {
        /// Dependence column index.
        column: usize,
    },
    /// An index point fired on its processor.
    PointFired {
        /// Scheduled cycle.
        cycle: i64,
        /// The index point.
        point: IVec,
        /// Processor coordinates `S·q̄`.
        processor: IVec,
    },
    /// A token left its producer along a dependence column.
    TokenLaunched {
        /// Launch cycle (= the producer's firing cycle).
        cycle: i64,
        /// Dependence column index.
        column: usize,
        /// Producing index point.
        from: IVec,
    },
    /// A token was consumed by a firing point.
    TokenConsumed {
        /// Consumption cycle.
        cycle: i64,
        /// Dependence column index.
        column: usize,
        /// Consuming index point.
        at: IVec,
        /// Cycles the token spent in flight (consumer cycle − producer cycle).
        slack: i64,
    },
    /// A timing/routing/conflict violation, rendered.
    Violation {
        /// Cycle at which the violation was observed.
        cycle: i64,
        /// Human-readable description (the engine's `ClockedViolation`).
        description: String,
    },
    /// In-flight token count on one column's wire set after a launch.
    BufferOccupancy {
        /// Cycle of the launch.
        cycle: i64,
        /// Dependence column index.
        column: usize,
        /// Tokens currently in flight on this column.
        in_flight: u64,
    },
    /// A fault injector perturbed the run at this point.
    FaultInjected {
        /// Cycle of the injection.
        cycle: i64,
        /// The index point whose output or input was perturbed.
        point: IVec,
        /// Processor coordinates of the perturbed point.
        processor: IVec,
        /// The dependence column for transfer faults; `None` for
        /// output-side faults (flips, stuck-at, dead PE).
        column: Option<usize>,
        /// Human-readable fault kind (e.g. `transient_flip bit=s`).
        kind: String,
    },
    /// An engine substituted another backend for the requested one.
    BackendFallback {
        /// The backend that could not run.
        from: String,
        /// The backend that ran instead.
        to: String,
        /// Why (e.g. a rendered `CompileError`).
        reason: String,
    },
    /// The compile cache answered a schedule lookup.
    CacheQuery {
        /// Hex rendering of the content-hash cache key.
        key: String,
        /// `memory-hit`, `disk-hit`, or `miss-compiled`.
        outcome: String,
    },
    /// A requested batch width was clamped into the legal lane range.
    BatchWidthClamped {
        /// The width the caller asked for.
        requested: usize,
        /// The width actually used (`1..=MAX_LANES`).
        used: usize,
    },
}

impl TraceEvent {
    /// The cycle this event is anchored to, when it has one.
    pub fn cycle(&self) -> Option<i64> {
        match self {
            TraceEvent::PointFired { cycle, .. }
            | TraceEvent::TokenLaunched { cycle, .. }
            | TraceEvent::TokenConsumed { cycle, .. }
            | TraceEvent::Violation { cycle, .. }
            | TraceEvent::BufferOccupancy { cycle, .. }
            | TraceEvent::FaultInjected { cycle, .. } => Some(*cycle),
            _ => None,
        }
    }
}

/// Receiver of simulation events.
///
/// Engines guard every emission with `if K::ENABLED { sink.record(..) }`, so
/// a sink with `ENABLED = false` (i.e. [`NullSink`]) compiles to the exact
/// untraced hot loop.
pub trait TraceSink {
    /// Whether this sink observes anything at all. Defaults to `true`.
    const ENABLED: bool = true;

    /// Receives one event.
    fn record(&mut self, event: TraceEvent);
}

/// The no-op sink: statically disabled, zero overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

/// Rollup counters maintained incrementally by a [`RecordingSink`].
#[derive(Debug, Clone, Default)]
pub struct TraceRollup {
    /// Total points fired.
    pub fires: u64,
    /// Fires per processor (PE utilisation numerators).
    pub pe_fires: BTreeMap<IVec, u64>,
    /// Wavefront width (points fired) per cycle.
    pub wavefront: BTreeMap<i64, u64>,
    /// Tokens launched per dependence column.
    pub launched: Vec<u64>,
    /// Tokens consumed per dependence column.
    pub consumed: Vec<u64>,
    /// In-flight high-water mark per dependence column.
    pub in_flight_peak: Vec<u64>,
    /// Traversals per interconnect primitive (by column index of `P`),
    /// accumulated from consumed tokens on clocked traces.
    pub link_occupancy: Vec<u64>,
    /// Total violation events.
    pub violations: u64,
    /// Total fault-injection events.
    pub faults: u64,
    /// Events dropped by a [`TraceConfig::max_events`] cap (counters above
    /// still include them).
    pub dropped_events: u64,
    /// Compile-cache lookups answered from the in-memory or disk layer.
    pub cache_hits: u64,
    /// Compile-cache lookups that fell through to a fresh compile.
    pub cache_misses: u64,
    /// Per-column route usage, remembered from `ColumnRoute` events.
    column_usage: Vec<Option<IVec>>,
}

impl TraceRollup {
    fn grow(v: &mut Vec<u64>, len: usize) {
        if v.len() < len {
            v.resize(len, 0);
        }
    }

    fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::ColumnRoute { column, usage, .. } => {
                if self.column_usage.len() <= *column {
                    self.column_usage.resize(*column + 1, None);
                }
                Self::grow(&mut self.link_occupancy, usage.dim());
                self.column_usage[*column] = Some(usage.clone());
            }
            TraceEvent::ColumnUnroutable { column } => {
                if self.column_usage.len() <= *column {
                    self.column_usage.resize(*column + 1, None);
                }
            }
            TraceEvent::PointFired {
                cycle, processor, ..
            } => {
                self.fires += 1;
                *self.pe_fires.entry(processor.clone()).or_insert(0) += 1;
                *self.wavefront.entry(*cycle).or_insert(0) += 1;
            }
            TraceEvent::TokenLaunched { column, .. } => {
                Self::grow(&mut self.launched, column + 1);
                self.launched[*column] += 1;
            }
            TraceEvent::TokenConsumed { column, .. } => {
                Self::grow(&mut self.consumed, column + 1);
                self.consumed[*column] += 1;
                if let Some(Some(usage)) = self.column_usage.get(*column) {
                    for (l, &cnt) in usage.iter().enumerate() {
                        self.link_occupancy[l] += cnt as u64;
                    }
                }
            }
            TraceEvent::BufferOccupancy {
                column, in_flight, ..
            } => {
                Self::grow(&mut self.in_flight_peak, column + 1);
                self.in_flight_peak[*column] = self.in_flight_peak[*column].max(*in_flight);
            }
            TraceEvent::Violation { .. } => self.violations += 1,
            TraceEvent::FaultInjected { .. } => self.faults += 1,
            TraceEvent::BackendFallback { .. } => {}
            TraceEvent::CacheQuery { outcome, .. } => {
                if outcome.ends_with("hit") {
                    self.cache_hits += 1;
                } else {
                    self.cache_misses += 1;
                }
            }
            TraceEvent::BatchWidthClamped { .. } => {}
        }
    }

    /// Total points fired.
    pub fn fire_total(&self) -> u64 {
        self.fires
    }

    /// First-to-last busy cycle, inclusive (0 when nothing fired) — the
    /// traced counterpart of the engines' `cycles`.
    pub fn cycle_span(&self) -> i64 {
        match (
            self.wavefront.keys().next(),
            self.wavefront.keys().next_back(),
        ) {
            (Some(a), Some(b)) => b - a + 1,
            _ => 0,
        }
    }

    /// Widest wavefront (peak points fired in one cycle).
    pub fn peak_wavefront(&self) -> u64 {
        self.wavefront.values().copied().max().unwrap_or(0)
    }

    /// Fires divided by `observed PEs × cycle span` — measured utilisation.
    pub fn utilization(&self) -> f64 {
        let span = self.cycle_span();
        if span > 0 && !self.pe_fires.is_empty() {
            self.fires as f64 / (self.pe_fires.len() as f64 * span as f64)
        } else {
            0.0
        }
    }
}

/// In-memory sink: captures events (per [`TraceConfig`]) and maintains a
/// [`TraceRollup`] incrementally.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    config: TraceConfig,
    events: Vec<TraceEvent>,
    rollup: TraceRollup,
}

impl RecordingSink {
    /// A sink that keeps the full event list.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// A sink with explicit retention configuration.
    pub fn with_config(config: TraceConfig) -> Self {
        RecordingSink {
            config,
            ..RecordingSink::default()
        }
    }

    /// The captured events (empty when `config.events` is off).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The rollup counters.
    pub fn rollup(&self) -> &TraceRollup {
        &self.rollup
    }

    /// Rendered descriptions of all captured violation events, in order.
    pub fn violation_descriptions(&self) -> Vec<String> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Violation { description, .. } => Some(description.clone()),
                _ => None,
            })
            .collect()
    }

    /// Exports the capture in the Chrome trace-event JSON format
    /// (`chrome://tracing` / Perfetto): each fired point becomes a complete
    /// (`"X"`) event of duration 1 on its processor's track, the per-cycle
    /// wavefront width becomes a counter (`"C"`) series, and violations and
    /// backend fallbacks become instant (`"i"`) events. Timestamps are
    /// cycles, rebased to 0.
    pub fn to_chrome_trace(&self) -> String {
        let min_cycle = self
            .events
            .iter()
            .filter_map(TraceEvent::cycle)
            .min()
            .unwrap_or(0);
        let instant = |name: &str, cat: &str, ts: i64, args: Vec<(&str, Json)>| {
            Json::obj(vec![
                ("name", Json::str(name)),
                ("cat", Json::str(cat)),
                ("ph", Json::str("i")),
                ("s", Json::str("g")),
                ("ts", Json::Int(ts)),
                ("pid", Json::Int(0)),
                ("tid", Json::Int(0)),
                ("args", Json::obj(args)),
            ])
        };
        let mut tids: BTreeMap<IVec, u64> = BTreeMap::new();
        let mut out = Vec::new();
        for ev in &self.events {
            match ev {
                TraceEvent::PointFired {
                    cycle,
                    point,
                    processor,
                } => {
                    let next = tids.len() as u64;
                    let tid = *tids.entry(processor.clone()).or_insert(next);
                    out.push(Json::obj(vec![
                        ("name", Json::str(point.to_string())),
                        ("cat", Json::str("fire")),
                        ("ph", Json::str("X")),
                        ("ts", Json::Int(cycle - min_cycle)),
                        ("dur", Json::Int(1)),
                        ("pid", Json::Int(0)),
                        ("tid", Json::from(tid)),
                        (
                            "args",
                            Json::obj(vec![("processor", Json::str(processor.to_string()))]),
                        ),
                    ]));
                }
                TraceEvent::Violation { cycle, description } => out.push(instant(
                    "violation",
                    "violation",
                    cycle - min_cycle,
                    vec![("description", Json::str(description.as_str()))],
                )),
                TraceEvent::FaultInjected {
                    cycle, point, kind, ..
                } => out.push(instant(
                    "fault",
                    "fault",
                    cycle - min_cycle,
                    vec![
                        ("point", Json::str(point.to_string())),
                        ("kind", Json::str(kind.as_str())),
                    ],
                )),
                TraceEvent::BackendFallback { from, to, reason } => out.push(instant(
                    "backend-fallback",
                    "meta",
                    0,
                    vec![
                        ("from", Json::str(from.as_str())),
                        ("to", Json::str(to.as_str())),
                        ("reason", Json::str(reason.as_str())),
                    ],
                )),
                _ => {}
            }
        }
        for (c, w) in &self.rollup.wavefront {
            out.push(Json::obj(vec![
                ("name", Json::str("wavefront")),
                ("cat", Json::str("rollup")),
                ("ph", Json::str("C")),
                ("ts", Json::Int(c - min_cycle)),
                ("pid", Json::Int(0)),
                ("args", Json::obj(vec![("width", Json::from(*w))])),
            ]));
        }
        Json::obj(vec![("traceEvents", Json::Arr(out))]).render()
    }

    /// Exports every captured event as one CSV row
    /// (`kind,cycle,column,point,processor,detail`; vector-valued fields are
    /// quoted).
    pub fn to_csv(&self) -> String {
        fn q(s: &str) -> String {
            format!("\"{}\"", s.replace('"', "\"\""))
        }
        let mut out = String::from("kind,cycle,column,point,processor,detail\n");
        for ev in &self.events {
            let row = match ev {
                TraceEvent::ColumnRoute {
                    column,
                    hops,
                    usage,
                } => format!(
                    "column_route,,{column},,,{}",
                    q(&format!("hops={hops} usage={usage}"))
                ),
                TraceEvent::ColumnUnroutable { column } => {
                    format!("column_unroutable,,{column},,,")
                }
                TraceEvent::PointFired {
                    cycle,
                    point,
                    processor,
                } => format!(
                    "point_fired,{cycle},,{},{},",
                    q(&point.to_string()),
                    q(&processor.to_string())
                ),
                TraceEvent::TokenLaunched {
                    cycle,
                    column,
                    from,
                } => {
                    format!("token_launched,{cycle},{column},{},,", q(&from.to_string()))
                }
                TraceEvent::TokenConsumed {
                    cycle,
                    column,
                    at,
                    slack,
                } => format!(
                    "token_consumed,{cycle},{column},{},,{}",
                    q(&at.to_string()),
                    q(&format!("slack={slack}"))
                ),
                TraceEvent::Violation { cycle, description } => {
                    format!("violation,{cycle},,,,{}", q(description))
                }
                TraceEvent::BufferOccupancy {
                    cycle,
                    column,
                    in_flight,
                } => format!(
                    "buffer_occupancy,{cycle},{column},,,{}",
                    q(&format!("in_flight={in_flight}"))
                ),
                TraceEvent::FaultInjected {
                    cycle,
                    point,
                    processor,
                    column,
                    kind,
                } => format!(
                    "fault_injected,{cycle},{},{},{},{}",
                    column.map(|c| c.to_string()).unwrap_or_default(),
                    q(&point.to_string()),
                    q(&processor.to_string()),
                    q(kind)
                ),
                TraceEvent::BackendFallback { from, to, reason } => format!(
                    "backend_fallback,,,,,{}",
                    q(&format!("from={from} to={to} reason={reason}"))
                ),
                TraceEvent::CacheQuery { key, outcome } => format!(
                    "cache_query,,,,,{}",
                    q(&format!("key={key} outcome={outcome}"))
                ),
                TraceEvent::BatchWidthClamped { requested, used } => format!(
                    "batch_width_clamped,,,,,{}",
                    q(&format!("requested={requested} used={used}"))
                ),
            };
            let _ = writeln!(out, "{row}");
        }
        out
    }
}

impl TraceSink for RecordingSink {
    fn record(&mut self, event: TraceEvent) {
        self.rollup.observe(&event);
        if self.config.events {
            match self.config.max_events {
                Some(cap) if self.events.len() >= cap => self.rollup.dropped_events += 1,
                _ => self.events.push(event),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire(cycle: i64, point: &[i64], proc_: &[i64]) -> TraceEvent {
        TraceEvent::PointFired {
            cycle,
            point: IVec(point.to_vec()),
            processor: IVec(proc_.to_vec()),
        }
    }

    #[test]
    fn null_sink_is_statically_disabled() {
        const { assert!(!NullSink::ENABLED) };
        const { assert!(RecordingSink::ENABLED) };
        // And recording is the trait default.
        struct Custom;
        impl TraceSink for Custom {
            fn record(&mut self, _e: TraceEvent) {}
        }
        const { assert!(Custom::ENABLED) };
    }

    #[test]
    fn rollup_tracks_fires_wavefront_and_tokens() {
        let mut sink = RecordingSink::new();
        sink.record(TraceEvent::ColumnRoute {
            column: 0,
            hops: 2,
            usage: IVec::from([2, 0]),
        });
        sink.record(fire(5, &[1, 1], &[0, 0]));
        sink.record(fire(5, &[1, 2], &[0, 1]));
        sink.record(fire(7, &[2, 1], &[0, 0]));
        sink.record(TraceEvent::TokenLaunched {
            cycle: 5,
            column: 0,
            from: IVec::from([1, 1]),
        });
        sink.record(TraceEvent::BufferOccupancy {
            cycle: 5,
            column: 0,
            in_flight: 1,
        });
        sink.record(TraceEvent::TokenConsumed {
            cycle: 7,
            column: 0,
            at: IVec::from([2, 1]),
            slack: 2,
        });
        sink.record(TraceEvent::Violation {
            cycle: 7,
            description: "boom".into(),
        });

        let r = sink.rollup();
        assert_eq!(r.fire_total(), 3);
        assert_eq!(r.cycle_span(), 3); // cycles 5..=7
        assert_eq!(r.peak_wavefront(), 2);
        assert_eq!(r.pe_fires[&IVec::from([0, 0])], 2);
        assert_eq!(r.launched, vec![1]);
        assert_eq!(r.consumed, vec![1]);
        assert_eq!(r.in_flight_peak, vec![1]);
        assert_eq!(r.link_occupancy, vec![2, 0]);
        assert_eq!(r.violations, 1);
        assert!((r.utilization() - 3.0 / (2.0 * 3.0)).abs() < 1e-12);
        assert_eq!(sink.violation_descriptions(), vec!["boom".to_string()]);
    }

    #[test]
    fn rollup_only_config_drops_events_but_keeps_counters() {
        let mut sink = RecordingSink::with_config(TraceConfig {
            events: false,
            max_events: None,
        });
        sink.record(fire(1, &[1], &[0]));
        assert!(sink.events().is_empty());
        assert_eq!(sink.rollup().fire_total(), 1);
    }

    #[test]
    fn max_events_cap_keeps_the_prefix_and_counts_the_rest() {
        let mut sink = RecordingSink::with_config(TraceConfig {
            events: true,
            max_events: Some(2),
        });
        for c in 0..5 {
            sink.record(fire(c, &[c], &[0]));
        }
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.rollup().dropped_events, 3);
        // Counters still see every event.
        assert_eq!(sink.rollup().fire_total(), 5);
        assert_eq!(sink.rollup().cycle_span(), 5);
    }

    #[test]
    fn fault_events_are_counted_and_exported() {
        let mut sink = RecordingSink::new();
        sink.record(fire(2, &[1, 1], &[0, 0]));
        sink.record(TraceEvent::FaultInjected {
            cycle: 2,
            point: IVec::from([1, 1]),
            processor: IVec::from([0, 0]),
            column: None,
            kind: "transient_flip bit=s".into(),
        });
        sink.record(TraceEvent::FaultInjected {
            cycle: 3,
            point: IVec::from([1, 2]),
            processor: IVec::from([0, 1]),
            column: Some(4),
            kind: "dropped_transfer".into(),
        });
        assert_eq!(sink.rollup().faults, 2);
        let csv = sink.to_csv();
        assert!(csv.contains("fault_injected,2,,"));
        assert!(csv.contains("fault_injected,3,4,"));
        assert!(csv.contains("transient_flip bit=s"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_fire() {
        fn text<'a>(e: &'a Json, key: &str) -> Option<&'a str> {
            e.get(key).and_then(Json::as_str)
        }
        let mut sink = RecordingSink::new();
        sink.record(fire(3, &[1, 1], &[0, 0]));
        sink.record(fire(4, &[1, 2], &[0, 1]));
        sink.record(TraceEvent::Violation {
            cycle: 4,
            description: "late".into(),
        });
        let doc = Json::parse(&sink.to_chrome_trace()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let fires: Vec<_> = events
            .iter()
            .filter(|e| text(e, "cat") == Some("fire"))
            .collect();
        assert_eq!(fires.len(), 2);
        // Timestamps are rebased to the first busy cycle.
        assert_eq!(fires[0].get("ts").and_then(Json::as_i64), Some(0));
        assert_eq!(fires[1].get("ts").and_then(Json::as_i64), Some(1));
        assert!(events.iter().any(|e| text(e, "cat") == Some("violation")));
        assert!(events
            .iter()
            .any(|e| text(e, "ph") == Some("C") && text(e, "name") == Some("wavefront")));
    }

    #[test]
    fn csv_has_header_and_one_row_per_event() {
        let mut sink = RecordingSink::new();
        sink.record(fire(3, &[1, 1], &[0, 0]));
        sink.record(TraceEvent::BackendFallback {
            from: "compiled".into(),
            to: "interpreted".into(),
            reason: "too many columns".into(),
        });
        let csv = sink.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "kind,cycle,column,point,processor,detail");
        assert!(lines[1].starts_with("point_fired,3"));
        assert!(lines[2].contains("backend_fallback"));
    }
}
