//! Event tracing for the simulator: a zero-cost-when-disabled record of
//! lane executions, message transits, DRAM transaction stages, phase
//! markers and counter samples, plus an exporter to the Chrome
//! `trace_event` JSON format (open the file in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)).
//!
//! **Observer-effect guarantee:** recording never touches simulated time,
//! costs, or calendar sequence numbers. A traced run and an untraced run
//! of the same program produce byte-identical simulated results; the
//! engine's tests assert this.

use std::collections::HashMap; // det-lint: allow — entry-only counters below

use crate::json::{push_escaped, push_f64, push_i64, push_u64, JsonWriter};

/// Stage of a DRAM transaction as it moves through the memory pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DramStage {
    /// Request reached the owning node's memory channel queue.
    Arrive,
    /// Channel service (bandwidth + latency) complete.
    Served,
    /// Response arrived back at the issuing lane.
    Respond,
}

/// One recorded trace event. Times are simulated ticks.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A lane executed one event handler from `start` to `end` (busy span).
    Exec {
        lane: u32,
        /// Handler label; resolve to a name via the engine's handler table.
        label: u16,
        tid: u16,
        start: u64,
        end: u64,
    },
    /// A message in flight from lane `src` to lane `dst`.
    MsgTransit {
        id: u64,
        src: u32,
        dst: u32,
        label: u16,
        depart: u64,
        arrive: u64,
    },
    /// A DRAM transaction stage on `node`'s memory channel.
    Dram {
        id: u64,
        stage: DramStage,
        node: u32,
        time: u64,
        bytes: u64,
        write: bool,
    },
    /// A named counter sample (running machine-wide value).
    Counter {
        name: &'static str,
        time: u64,
        value: i64,
    },
    /// A fabric link traversal: cumulative bytes carried by the directed
    /// link `src -> dst` as recorded by the injecting shard `node`. For
    /// the uniform topology the crossbar appears as pseudo-node
    /// `nodes()`. Rendered as a per-link congestion counter.
    Link {
        src: u32,
        dst: u32,
        node: u32,
        time: u64,
        value: u64,
    },
}

/// A named interval of the run (e.g. a KVMSR map phase). `end` is
/// `u64::MAX` while the span is open.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    pub name: String,
    pub start: u64,
    pub end: u64,
}

impl PhaseSpan {
    pub fn is_open(&self) -> bool {
        self.end == u64::MAX
    }

    /// Span length with the open end clamped to `final_tick`.
    pub fn cycles(&self, final_tick: u64) -> u64 {
        self.end.min(final_tick).saturating_sub(self.start)
    }
}

/// Events per recording chunk (160 KB of 40-byte events).
const CHUNK_EVENTS: usize = 4096;

/// Collects [`TraceEvent`]s during a run. Owned by the engine; present
/// only when event tracing is enabled. `Clone` deep-copies the recording
/// so snapshots can rewind the trace alongside machine state.
#[derive(Clone, Default)]
pub struct Tracer {
    /// The recording, in order, in chunks that are never reallocated: a
    /// chunk that has used its capacity is left as it is and a new one is
    /// opened, so recording never copies what it has already recorded.
    chunks: Vec<Vec<TraceEvent>>,
    next_id: u64,
    // det-lint: allow — entry-only lookups keyed by &'static str; never
    // iterated, so hash order cannot reach any output.
    counters: HashMap<&'static str, i64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// A tracer whose ids start above `base`. Per-shard tracers use
    /// disjoint id ranges (`shard << 48`) so correlation ids stay unique
    /// after the per-shard traces are merged.
    pub fn with_id_base(base: u64) -> Tracer {
        Tracer {
            next_id: base,
            ..Tracer::default()
        }
    }

    /// Fresh id correlating the stages of an async operation. Allocated
    /// from a tracer-private counter so tracing cannot perturb the
    /// engine's calendar sequence numbers.
    pub fn alloc_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < chunk.capacity() => chunk.push(ev),
            _ => self.record_in_new_chunk(ev),
        }
    }

    /// Out of line: `record` is inlined at every record site of the
    /// engine's event loop, which should carry only the push.
    #[cold]
    #[inline(never)]
    fn record_in_new_chunk(&mut self, ev: TraceEvent) {
        let mut chunk = Vec::with_capacity(CHUNK_EVENTS);
        chunk.push(ev);
        self.chunks.push(chunk);
    }

    /// Adjust the named running counter by `delta` and record a sample.
    pub fn counter_add(&mut self, name: &'static str, delta: i64, time: u64) {
        let v = self.counters.entry(name).or_insert(0);
        *v += delta;
        let value = *v;
        self.record(TraceEvent::Counter { name, time, value });
    }

    /// Events recorded and not yet drained.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The events recorded and not yet drained, in recording order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.chunks.iter().flatten()
    }

    /// Move the recording to the end of `into` and release its chunks.
    /// Ids and running counter values carry on into the next run.
    pub fn drain_into(&mut self, into: &mut Vec<TraceEvent>) {
        for mut chunk in std::mem::take(&mut self.chunks) {
            into.append(&mut chunk);
        }
    }
}

/// A divisor that is an integer 2^a·5^b, so that `ticks / div` has the
/// finite decimal expansion `ticks·scale / 10^digits`.
struct ExactDecimal {
    div: u64,
    /// `10^digits / div`.
    scale: u64,
    /// Fraction digits before trailing zeros are stripped: `max(a, b)`.
    digits: u32,
    /// Tick counts below this have an integer part of at most
    /// `15 - digits` digits, so the expansion has at most 15 significant
    /// digits (and the count is below 2^53, so `ticks as f64` is exact).
    limit: u64,
}

impl ExactDecimal {
    fn of(divisor: f64) -> Option<ExactDecimal> {
        if !(1.0..=1e15).contains(&divisor) || divisor.fract() != 0.0 {
            return None;
        }
        let div = divisor as u64;
        let (mut rest, mut twos, mut fives) = (div, 0u32, 0u32);
        while rest.is_multiple_of(2) {
            rest /= 2;
            twos += 1;
        }
        while rest.is_multiple_of(5) {
            rest /= 5;
            fives += 1;
        }
        let digits = twos.max(fives);
        if rest != 1 || digits > 15 {
            return None;
        }
        Some(ExactDecimal {
            div,
            scale: 2u64.pow(digits - twos) * 5u64.pow(digits - fives),
            digits,
            limit: div * 10u64.pow(15 - digits),
        })
    }
}

/// Ticks to the document's microsecond timestamps: the bytes `{}` prints
/// for `ticks as f64 / (clock_ghz * 1000.0)`.
///
/// `{}` prints the shortest decimal that parses back to the f64, and that
/// f64 is the one nearest the true quotient. When the quotient itself is a
/// decimal of at most 15 significant digits it *is* that shortest form:
/// it parses to the nearest f64, and no two decimals of ≤ 15 digits share
/// an f64, so nothing shorter or equally short round-trips. Such quotients
/// are printed from integer arithmetic; everything else goes through `{}`.
struct Timestamps {
    divisor: f64,
    exact: Option<ExactDecimal>,
}

impl Timestamps {
    fn new(clock_ghz: f64) -> Timestamps {
        let divisor = clock_ghz * 1000.0;
        Timestamps {
            divisor,
            exact: ExactDecimal::of(divisor),
        }
    }

    fn micros(&self, ticks: u64) -> f64 {
        ticks as f64 / self.divisor
    }

    fn push(&self, out: &mut String, ticks: u64) {
        let Some(e) = self.exact.as_ref().filter(|e| ticks < e.limit) else {
            return push_f64(out, self.micros(ticks));
        };
        push_u64(out, ticks / e.div);
        let mut frac = ticks % e.div * e.scale;
        if frac == 0 {
            return;
        }
        let mut digits = e.digits as usize;
        while frac.is_multiple_of(10) {
            frac /= 10;
            digits -= 1;
        }
        let mut buf = [b'0'; 15];
        let mut i = digits;
        while frac > 0 {
            i -= 1;
            buf[i] = b'0' + (frac % 10) as u8;
            frac /= 10;
        }
        out.push('.');
        out.extend(buf[..digits].iter().map(|&b| b as char));
    }
}

/// One `traceEvents` row being written: literal template segments with
/// the event's fields between them.
struct Row<'a> {
    out: &'a mut String,
    ts: &'a Timestamps,
}

impl<'a> Row<'a> {
    /// The next element of the array `w` is in.
    fn begin(w: &'a mut JsonWriter, ts: &'a Timestamps) -> Row<'a> {
        Row { out: w.raw(), ts }
    }

    fn lit(&mut self, s: &str) -> &mut Self {
        self.out.push_str(s);
        self
    }

    fn u(&mut self, v: impl Into<u64>) -> &mut Self {
        push_u64(self.out, v.into());
        self
    }

    fn i(&mut self, v: i64) -> &mut Self {
        push_i64(self.out, v);
        self
    }

    fn name(&mut self, s: &str) -> &mut Self {
        push_escaped(self.out, s);
        self
    }

    fn ts(&mut self, ticks: u64) -> &mut Self {
        self.ts.push(self.out, ticks);
        self
    }
}

/// Document bytes reserved per recorded event: the five apps write 100 to
/// 133 (a message transit is two rows). Reserving past the end costs
/// address space only; falling short costs a copy of the document.
const RESERVE_PER_EVENT: usize = 192;

/// Export to Chrome `trace_event` JSON.
///
/// Track layout: process 0 is the "machine" (phase spans and counters);
/// process `n + 1` is node `n`, with one thread row per lane (lane index
/// within the node). Message transits and DRAM transactions render as
/// legacy async `b`/`n`/`e` events correlated by id.
///
/// `names` maps handler labels to event names; `final_tick` clamps open
/// phase spans. Timestamps are microseconds of simulated time
/// (`ticks / (clock_ghz * 1000)`).
pub fn chrome_trace_json(
    events: &[TraceEvent],
    phases: &[PhaseSpan],
    names: &[&str],
    lanes_per_node: u32,
    clock_ghz: f64,
    final_tick: u64,
) -> String {
    let ts = Timestamps::new(clock_ghz);
    let name_of = |label: u16| names.get(label as usize).copied().unwrap_or("<unknown>");
    let lanes_per_node = lanes_per_node.max(1);

    let mut w = JsonWriter::with_capacity(256 + events.len() * RESERVE_PER_EVENT);
    w.begin_obj().key("displayTimeUnit").string("ms");
    w.key("traceEvents").begin_arr();

    let mut max_pid = 0u32;

    // Phase spans on the machine track.
    for p in phases {
        let end = p.end.min(final_tick);
        w.begin_obj()
            .key("name")
            .string(&p.name)
            .key("cat")
            .string("phase")
            .key("ph")
            .string("X")
            .key("pid")
            .u64(0)
            .key("tid")
            .u64(0)
            .key("ts")
            .f64(ts.micros(p.start))
            .key("dur")
            .f64(ts.micros(end.saturating_sub(p.start)))
            .end_obj();
    }

    for ev in events {
        match *ev {
            TraceEvent::Exec {
                lane,
                label,
                tid,
                start,
                end,
            } => {
                let pid = lane / lanes_per_node + 1;
                max_pid = max_pid.max(pid);
                Row::begin(&mut w, &ts)
                    .lit("{\"name\":")
                    .name(name_of(label))
                    .lit(",\"cat\":\"lane\",\"ph\":\"X\",\"pid\":")
                    .u(pid)
                    .lit(",\"tid\":")
                    .u(lane % lanes_per_node)
                    .lit(",\"ts\":")
                    .ts(start)
                    .lit(",\"dur\":")
                    .ts(end - start)
                    .lit(",\"args\":{\"sim_tid\":")
                    .u(tid)
                    .lit("}}");
            }
            TraceEvent::MsgTransit {
                id,
                src,
                dst,
                label,
                depart,
                arrive,
            } => {
                let pid = src / lanes_per_node + 1;
                max_pid = max_pid.max(pid);
                for (t, begins) in [(depart, true), (arrive, false)] {
                    let mut row = Row::begin(&mut w, &ts);
                    row.lit("{\"name\":")
                        .name(name_of(label))
                        .lit(if begins {
                            ",\"cat\":\"msg\",\"ph\":\"b\",\"id\":"
                        } else {
                            ",\"cat\":\"msg\",\"ph\":\"e\",\"id\":"
                        })
                        .u(id)
                        .lit(",\"pid\":")
                        .u(pid)
                        .lit(",\"tid\":")
                        .u(src % lanes_per_node)
                        .lit(",\"ts\":")
                        .ts(t);
                    if begins {
                        row.lit(",\"args\":{\"dst_lane\":").u(dst).lit("}}");
                    } else {
                        row.lit("}");
                    }
                }
            }
            TraceEvent::Dram {
                id,
                stage,
                node,
                time,
                bytes,
                write,
            } => {
                let pid = node + 1;
                max_pid = max_pid.max(pid);
                let mut row = Row::begin(&mut w, &ts);
                row.lit(if write {
                    "{\"name\":\"dram_write\",\"cat\":\"dram\",\"ph\":"
                } else {
                    "{\"name\":\"dram_read\",\"cat\":\"dram\",\"ph\":"
                })
                .lit(match stage {
                    DramStage::Arrive => "\"b\",\"id\":",
                    DramStage::Served => "\"n\",\"id\":",
                    DramStage::Respond => "\"e\",\"id\":",
                })
                .u(id)
                .lit(",\"pid\":")
                .u(pid)
                .lit(",\"tid\":")
                .u(lanes_per_node) // a dedicated row below the lanes
                .lit(",\"ts\":")
                .ts(time);
                if stage == DramStage::Arrive {
                    row.lit(",\"args\":{\"bytes\":").u(bytes).lit("}}");
                } else {
                    row.lit("}");
                }
            }
            TraceEvent::Link {
                src,
                dst,
                node,
                time,
                value,
            } => {
                let pid = node + 1;
                max_pid = max_pid.max(pid);
                Row::begin(&mut w, &ts)
                    .lit("{\"name\":\"link n")
                    .u(src)
                    .lit("->n")
                    .u(dst)
                    .lit(" B\",\"cat\":\"link\",\"ph\":\"C\",\"pid\":")
                    .u(pid)
                    .lit(",\"ts\":")
                    .ts(time)
                    .lit(",\"args\":{\"value\":")
                    .u(value)
                    .lit("}}");
            }
            TraceEvent::Counter { name, time, value } => {
                Row::begin(&mut w, &ts)
                    .lit("{\"name\":")
                    .name(name)
                    .lit(",\"ph\":\"C\",\"pid\":0,\"ts\":")
                    .ts(time)
                    .lit(",\"args\":{\"value\":")
                    .i(value)
                    .lit("}}");
            }
        }
    }

    // Process-name metadata rows.
    for pid in 0..=max_pid {
        let pname = if pid == 0 {
            "machine".to_string()
        } else {
            format!("node {}", pid - 1)
        };
        w.begin_obj()
            .key("name")
            .string("process_name")
            .key("ph")
            .string("M")
            .key("pid")
            .u64(pid as u64)
            .key("args")
            .begin_obj()
            .key("name")
            .string(&pname)
            .end_obj()
            .end_obj();
    }

    w.end_arr().end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn phase_span_clamps_open_end() {
        let p = PhaseSpan {
            name: "map".into(),
            start: 100,
            end: u64::MAX,
        };
        assert!(p.is_open());
        assert_eq!(p.cycles(500), 400);
    }

    #[test]
    fn counter_tracks_running_value() {
        let mut t = Tracer::new();
        t.counter_add("x", 2, 10);
        t.counter_add("x", -1, 20);
        let vals: Vec<i64> = t
            .events()
            .map(|e| match e {
                TraceEvent::Counter { value, .. } => *value,
                _ => panic!(),
            })
            .collect();
        assert_eq!(vals, vec![2, 1]);
    }

    #[test]
    fn recording_crosses_chunks_in_order_and_drains_empty() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
        let n = 2 * CHUNK_EVENTS as u64 + 17;
        let mut t = Tracer::new();
        for time in 0..n {
            t.counter_add("x", 1, time);
        }
        assert_eq!(t.len(), n as usize);
        // A clone's last chunk has no spare capacity to rely on; recording
        // into it must still append.
        let mut copy = t.clone();
        copy.counter_add("x", 1, n);
        assert_eq!(copy.len(), n as usize + 1);
        let mut merged = vec![TraceEvent::Counter {
            name: "earlier run",
            time: 0,
            value: 0,
        }];
        copy.drain_into(&mut merged);
        assert!(copy.is_empty());
        assert_eq!(copy.events().count(), 0);
        assert_eq!(merged.len(), n as usize + 2);
        for (i, ev) in merged[1..].iter().enumerate() {
            match ev {
                TraceEvent::Counter { time, value, .. } => {
                    assert_eq!((*time, *value), (i as u64, i as i64 + 1));
                }
                _ => panic!(),
            }
        }
        // The running value survives the drain.
        copy.counter_add("x", 1, n + 1);
        assert!(matches!(
            copy.events().next(),
            Some(TraceEvent::Counter { value, .. }) if *value == n as i64 + 2
        ));
    }

    fn printed(ts: &Timestamps, ticks: u64) -> String {
        let mut s = String::new();
        ts.push(&mut s, ticks);
        s
    }

    /// The integer path prints what `{}` prints for the f64 quotient: every
    /// small tick count, the neighbourhood of every power of ten (where
    /// digit counts and the 15-digit guard change), and seeded random
    /// counts up to 2^53.
    #[test]
    fn exact_decimal_timestamps_equal_shortest_round_trip_floats() {
        for ghz in [0.5, 1.0, 1.6, 2.0, 2.5] {
            let ts = Timestamps::new(ghz);
            let e = ts.exact.as_ref().expect("2^a·5^b divisor");
            assert_eq!(e.div as f64, ghz * 1000.0);
            assert_eq!(e.div * e.scale, 10u64.pow(e.digits));
            let mut ticks: Vec<u64> = (0..=300_000).collect();
            for k in 0..=18 {
                let p = 10u64.pow(k);
                ticks.extend([p - 1, p, p + 1]);
                if let Some(whole) = p.checked_mul(e.div) {
                    ticks.extend([whole - 1, whole, whole + 1]);
                }
            }
            ticks.extend([e.limit - 1, e.limit, e.limit + 1, (1 << 53) - 1]);
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ e.div;
            for shift in [11, 20, 30, 40] {
                for _ in 0..20_000 {
                    // xorshift64
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    ticks.push(x >> shift);
                }
            }
            for t in ticks {
                assert_eq!(
                    printed(&ts, t),
                    format!("{}", t as f64 / (ghz * 1000.0)),
                    "clock {ghz} GHz, tick {t}"
                );
            }
        }
    }

    #[test]
    fn other_divisors_fall_back_to_float_formatting() {
        for ghz in [1.1, 2.4, 3.0, 0.0003, 1e13] {
            let ts = Timestamps::new(ghz);
            assert!(ts.exact.is_none(), "clock {ghz}");
            for t in [0, 1, 7, 1000, 123_456_789, u64::MAX] {
                assert_eq!(printed(&ts, t), format!("{}", t as f64 / (ghz * 1000.0)));
            }
        }
        // What a zero or NaN clock printed before `Engine::new` refused
        // such a machine; `Timestamps::new` itself still takes any clock.
        assert_eq!(printed(&Timestamps::new(0.0), 5), "null");
        assert_eq!(printed(&Timestamps::new(f64::NAN), 5), "null");
    }

    #[test]
    fn names_that_need_escaping_are_escaped() {
        let events = [
            TraceEvent::Exec {
                lane: 0,
                label: 0,
                tid: 0,
                start: 3,
                end: 4,
            },
            TraceEvent::Exec {
                lane: 0,
                label: 9,
                tid: 0,
                start: 4,
                end: 6,
            },
        ];
        let s = chrome_trace_json(&events, &[], &["say \"hi\"\n"], 1, 2.0, 6);
        assert!(s.contains(r#"{"name":"say \"hi\"\n","cat":"lane","ph":"X","pid":1,"tid":0,"ts":0.0015,"dur":0.0005,"args":{"sim_tid":0}}"#));
        assert!(s.contains(r#"{"name":"<unknown>","cat":"lane""#));
        JsonValue::parse(&s).expect("valid JSON");
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_shape() {
        let events = vec![
            TraceEvent::Exec {
                lane: 5,
                label: 0,
                tid: 1,
                start: 0,
                end: 10,
            },
            TraceEvent::MsgTransit {
                id: 1,
                src: 5,
                dst: 9,
                label: 0,
                depart: 10,
                arrive: 14,
            },
            TraceEvent::Dram {
                id: 2,
                stage: DramStage::Arrive,
                node: 1,
                time: 30,
                bytes: 64,
                write: false,
            },
            TraceEvent::Counter {
                name: "inflight",
                time: 12,
                value: 3,
            },
            TraceEvent::Link {
                src: 0,
                dst: 1,
                node: 0,
                time: 14,
                value: 72,
            },
        ];
        let phases = vec![PhaseSpan {
            name: "map".into(),
            start: 0,
            end: u64::MAX,
        }];
        let names = ["handler_a"];
        let s = chrome_trace_json(&events, &phases, &names, 8, 2.0, 100);
        let v = JsonValue::parse(&s).expect("valid JSON");
        assert_eq!(v.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 phase + 1 exec + 2 msg halves + 1 dram + 1 counter + metadata.
        assert!(evs.len() >= 6);
        // Exec lane 5 of 8-lane nodes -> pid 1, tid 5.
        let exec = evs
            .iter()
            .find(|e| e.get("cat").map(|c| c.as_str()) == Some(Some("lane")))
            .unwrap();
        assert_eq!(exec.get("pid").unwrap().as_u64(), Some(1));
        assert_eq!(exec.get("tid").unwrap().as_u64(), Some(5));
        // 10 ticks at 2 GHz = 5 ns = 0.005 us.
        assert_eq!(exec.get("dur").unwrap().as_f64(), Some(0.005));
        // Link traversal renders as a per-link counter on the node track.
        let link = evs
            .iter()
            .find(|e| e.get("cat").map(|c| c.as_str()) == Some(Some("link")))
            .unwrap();
        assert_eq!(link.get("name").unwrap().as_str(), Some("link n0->n1 B"));
        assert_eq!(link.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(link.get("pid").unwrap().as_u64(), Some(1));
        assert_eq!(
            link.get("args").unwrap().get("value").unwrap().as_u64(),
            Some(72)
        );
        // Metadata names both processes.
        let metas: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").map(|c| c.as_str()) == Some(Some("M")))
            .collect();
        assert!(metas.len() >= 2);
    }
}
