//! Per-layer tracing from outside the simulator.
//!
//! Nothing here patches the engine.  A traced run swaps in three things the
//! engine already accepts from its callers:
//!
//! * a [`SchemeTable`] whose every congestion controller is the one
//!   `pbe_core::default_scheme_registry()` builds, wrapped in [`TracedCc`];
//! * a PBE receiver agent that wraps `PbeReceiverAgent::new` in
//!   [`TracedReceiver`];
//! * an [`Observer`] that stamps `SubframeScheduled` and `BackhaulSampled`
//!   and counts what each subframe report carries.
//!
//! Only the expensive calls are timed per call (`on_ack`, `on_subframe`,
//! `on_packet`).  The cheap sender getters are stamped only for the flow the
//! engine serves last in each subframe, so the RAN tick can be measured from
//! the last sender-side callback (or from `BackhaulSampled`, when a backhaul
//! is walked after the senders) up to `SubframeScheduled`.
//!
//! The simulation loop runs on one thread (a sharded RAN only fans the tick
//! itself out), so the accumulators are thread-local: [`begin`] resets them
//! on the calling thread before a run, [`finish`] takes them after it.

use crate::measure::thread_cpu_s;
use pbe_cc_algorithms::api::{AckInfo, CongestionSignal, PbeFeedback};
use pbe_cc_algorithms::CongestionControl;
use pbe_cellular::carrier::CaEvent;
use pbe_cellular::handover::HandoverEvent;
use pbe_core::{PbeReceiverAgent, PBE_SCHEME_ID};
use pbe_netsim::{
    Observer, ReceiverAgent, SchemeTable, SimConfig, SimEvent, SimResult, Simulation,
    FIXED_SCHEME_ID,
};
use pbe_pdcch::batch::DciBatch;
use pbe_stats::time::Instant as SimInstant;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Host time attributed to each layer of one or more simulations, in
/// nanoseconds, plus the simulated span they cover.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// RAN tick (plus the per-flow wired arrivals when no backhaul is set).
    pub tick_ns: u64,
    /// Shared-backhaul walk.
    pub backhaul_ns: u64,
    /// PBE receiver `on_subframe` (blind decode, fusion, monitor).
    pub on_subframe_ns: u64,
    /// PBE receiver `on_packet` (client estimate, state machine).
    pub on_packet_ns: u64,
    /// `on_packet` time spent in the first quarter of each run.
    pub on_packet_first_quarter_ns: u64,
    /// `on_packet` calls in the first quarter of each run.
    pub on_packet_first_quarter_calls: u64,
    /// `on_packet` time spent in the last quarter of each run.
    pub on_packet_last_quarter_ns: u64,
    /// `on_packet` calls in the last quarter of each run.
    pub on_packet_last_quarter_calls: u64,
    /// Congestion controllers' `on_ack`.
    pub on_ack_ns: u64,
    /// Host wall time of the traced `Simulation::run` calls.
    pub wall_ns: u64,
    /// CPU time of the threads that drove those calls (the RAN's shard
    /// workers are the process's other busy threads).
    pub loop_cpu_ns: u64,
    /// Simulated milliseconds covered.
    pub sim_ms: u64,
}

impl LayerTimes {
    /// Sum of every attributed layer (the simulation loop's self time is the rest).
    pub fn attributed_ns(&self) -> u64 {
        self.tick_ns + self.backhaul_ns + self.on_subframe_ns + self.on_packet_ns + self.on_ack_ns
    }

    /// Add another run's times.
    pub fn add(&mut self, other: &LayerTimes) {
        self.tick_ns += other.tick_ns;
        self.backhaul_ns += other.backhaul_ns;
        self.on_subframe_ns += other.on_subframe_ns;
        self.on_packet_ns += other.on_packet_ns;
        self.on_packet_first_quarter_ns += other.on_packet_first_quarter_ns;
        self.on_packet_first_quarter_calls += other.on_packet_first_quarter_calls;
        self.on_packet_last_quarter_ns += other.on_packet_last_quarter_ns;
        self.on_packet_last_quarter_calls += other.on_packet_last_quarter_calls;
        self.on_ack_ns += other.on_ack_ns;
        self.wall_ns += other.wall_ns;
        self.loop_cpu_ns += other.loop_cpu_ns;
        self.sim_ms += other.sim_ms;
    }
}

/// Deterministic work counts; two runs of one config must agree exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// UEs attached × subframes ticked.
    pub ue_subframes: u64,
    /// DCI messages transmitted on every PDCCH.
    pub dci_messages: u64,
    /// Radio deliveries and losses reported by the RAN.
    pub deliveries: u64,
    /// Serving-cell handovers.
    pub handovers: u64,
    /// Carrier activations and deactivations.
    pub ca_events: u64,
    /// PBE receiver `on_packet` calls.
    pub on_packet_calls: u64,
    /// PBE receiver `on_subframe` calls.
    pub on_subframe_calls: u64,
    /// Congestion-controller `on_ack` calls.
    pub on_ack_calls: u64,
    /// Packets released by the senders (`on_packet_sent` calls).
    pub packets_sent: u64,
    /// Backhaul ECN marks.
    pub backhaul_marks: u64,
    /// Backhaul drops.
    pub backhaul_drops: u64,
    /// Grid points simulated by the artifact executor.
    pub artifact_executed: u64,
    /// Grid points served from the result store.
    pub artifact_cached: u64,
}

impl Counters {
    /// Add another run's counts.
    pub fn add(&mut self, o: &Counters) {
        self.ue_subframes += o.ue_subframes;
        self.dci_messages += o.dci_messages;
        self.deliveries += o.deliveries;
        self.handovers += o.handovers;
        self.ca_events += o.ca_events;
        self.on_packet_calls += o.on_packet_calls;
        self.on_subframe_calls += o.on_subframe_calls;
        self.on_ack_calls += o.on_ack_calls;
        self.packets_sent += o.packets_sent;
        self.backhaul_marks += o.backhaul_marks;
        self.backhaul_drops += o.backhaul_drops;
        self.artifact_executed += o.artifact_executed;
        self.artifact_cached += o.artifact_cached;
    }
}

/// Everything one traced simulation produced.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The simulator's result (must equal the untraced run's).
    pub result: SimResult,
    /// Host time per layer.
    pub times: LayerTimes,
    /// Work counts.
    pub counters: Counters,
    /// Packets each congestion-controlled flow released, in flow order.
    pub sent_per_flow: Vec<u64>,
}

struct State {
    /// Latest stamp taken by any traced boundary on this thread.
    last: Instant,
    times: LayerTimes,
    counters: Counters,
    sent_per_flow: Vec<u64>,
    ues: u64,
    /// Construction index of the flow the engine serves last each subframe.
    last_sender: usize,
    built: usize,
    quarter_ms: u64,
    sim_ms: u64,
}

impl State {
    fn new() -> Self {
        State {
            last: Instant::now(),
            times: LayerTimes::default(),
            counters: Counters::default(),
            sent_per_flow: Vec::new(),
            ues: 0,
            last_sender: usize::MAX,
            built: 0,
            quarter_ms: 0,
            sim_ms: 0,
        }
    }
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::new());
}

fn with<R>(f: impl FnOnce(&mut State) -> R) -> R {
    STATE.with_borrow_mut(f)
}

fn elapsed_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Reset this thread's accumulators for a run of `cfg`.
fn begin(cfg: &SimConfig) {
    let controlled = cfg
        .flows
        .iter()
        .filter(|f| f.scheme.id() != FIXED_SCHEME_ID)
        .count();
    let sim_ms = cfg.duration.as_millis();
    with(|s| {
        *s = State::new();
        s.ues = cfg.ues.len() as u64;
        s.last_sender = controlled.wrapping_sub(1);
        s.sent_per_flow = vec![0; controlled];
        s.sim_ms = sim_ms;
        s.quarter_ms = sim_ms / 4;
    });
}

/// Take this thread's accumulators after a run that took `wall_ns` of wall
/// time and `loop_cpu_ns` of this thread's CPU.
fn finish(result: SimResult, wall_ns: u64, loop_cpu_ns: u64) -> TracedRun {
    with(|s| {
        let mut times = std::mem::take(&mut s.times);
        times.wall_ns = wall_ns;
        times.loop_cpu_ns = loop_cpu_ns;
        times.sim_ms = s.sim_ms;
        TracedRun {
            result,
            times,
            counters: std::mem::take(&mut s.counters),
            sent_per_flow: std::mem::take(&mut s.sent_per_flow),
        }
    })
}

/// Run `cfg` with every layer traced, on the calling thread.
pub fn run_traced(cfg: SimConfig) -> TracedRun {
    begin(&cfg);
    let mut sim = Simulation::with_parts(cfg, traced_table(), vec![Box::new(LayerObserver)]);
    let cpu0 = thread_cpu_s();
    let started = Instant::now();
    with(|s| s.last = started);
    let result = sim.run();
    let wall_ns = elapsed_ns(started, Instant::now());
    let loop_cpu_ns = ((thread_cpu_s() - cpu0) * 1e9) as u64;
    finish(result, wall_ns, loop_cpu_ns)
}

/// The standard scheme table with every entry wrapped for tracing.
///
/// It mirrors `SchemeTable::standard()`: the same registry, PBE's receiver
/// pipeline, and the application-limited fixed-rate scheme.
fn traced_table() -> SchemeTable {
    let registry = Arc::new(pbe_core::default_scheme_registry());
    let mut table = SchemeTable::empty();
    for id in registry.ids() {
        let registry = Arc::clone(&registry);
        let key = id.clone();
        table.register_scheme(id, move |ctx| {
            let inner = registry
                .build(&key, ctx)
                .expect("id came from this registry");
            Box::new(TracedCc::new(inner)) as Box<dyn CongestionControl>
        });
    }
    table.register_receiver(
        PBE_SCHEME_ID,
        Box::new(|ctx| Box::new(TracedReceiver(PbeReceiverAgent::new(ctx)))),
    );
    table.register_app_limited(FIXED_SCHEME_ID);
    table
}

/// A congestion controller with its `on_ack` timed and its sends counted.
struct TracedCc {
    inner: Box<dyn CongestionControl>,
    index: usize,
    /// True for the flow the engine serves last: its sender callbacks mark
    /// where the senders phase ends and the RAN tick begins.
    stamps: bool,
}

impl TracedCc {
    fn new(inner: Box<dyn CongestionControl>) -> Self {
        // Flows are built in configuration order, after the RAN is built:
        // the stamp here closes the network-construction span.
        with(|s| {
            let index = s.built;
            s.built += 1;
            s.last = Instant::now();
            TracedCc {
                inner,
                index,
                stamps: index == s.last_sender,
            }
        })
    }

    fn stamp(&self) {
        if self.stamps {
            let now = Instant::now();
            with(|s| s.last = now);
        }
    }
}

impl CongestionControl for TracedCc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let start = Instant::now();
        self.inner.on_ack(ack);
        let end = Instant::now();
        with(|s| {
            s.times.on_ack_ns += elapsed_ns(start, end);
            s.counters.on_ack_calls += 1;
            s.last = end;
        });
    }

    fn on_loss(&mut self, now: SimInstant) {
        self.inner.on_loss(now);
    }

    fn on_packet_sent(&mut self, now: SimInstant, bytes: u64, inflight_bytes: u64) {
        self.inner.on_packet_sent(now, bytes, inflight_bytes);
        with(|s| {
            s.counters.packets_sent += 1;
            if let Some(sent) = s.sent_per_flow.get_mut(self.index) {
                *sent += 1;
            }
        });
        self.stamp();
    }

    fn pacing_rate_bps(&self) -> f64 {
        let rate = self.inner.pacing_rate_bps();
        self.stamp();
        rate
    }

    fn cwnd_bytes(&self) -> u64 {
        self.inner.cwnd_bytes()
    }

    fn internet_bottleneck_fraction(&self) -> f64 {
        self.inner.internet_bottleneck_fraction()
    }

    fn on_signal(&mut self, now: SimInstant, signal: &CongestionSignal) {
        self.inner.on_signal(now, signal);
    }
}

/// PBE's receiver pipeline with `on_subframe` and `on_packet` timed.
struct TracedReceiver(PbeReceiverAgent);

impl ReceiverAgent for TracedReceiver {
    fn on_carrier_event(&mut self, event: &CaEvent, total_prbs: u16) {
        self.0.on_carrier_event(event, total_prbs);
    }

    fn on_handover(
        &mut self,
        event: &HandoverEvent,
        target_total_prbs: u16,
        reacquisition_gap_subframes: u64,
    ) {
        self.0
            .on_handover(event, target_total_prbs, reacquisition_gap_subframes);
    }

    fn on_subframe(&mut self, batch: &DciBatch<'_>) {
        let start = Instant::now();
        self.0.on_subframe(batch);
        let end = Instant::now();
        with(|s| {
            s.times.on_subframe_ns += elapsed_ns(start, end);
            s.counters.on_subframe_calls += 1;
            s.last = end;
        });
    }

    fn set_rtprop_ms(&mut self, rtprop_ms: f64) {
        self.0.set_rtprop_ms(rtprop_ms);
    }

    fn on_decode_loss(&mut self, until_subframe: u64) {
        self.0.on_decode_loss(until_subframe);
    }

    fn on_packet(&mut self, at: SimInstant, one_way_delay_ms: f64) -> Option<PbeFeedback> {
        let start = Instant::now();
        let feedback = self.0.on_packet(at, one_way_delay_ms);
        let end = Instant::now();
        let ns = elapsed_ns(start, end);
        let at_ms = at.as_millis();
        with(|s| {
            s.times.on_packet_ns += ns;
            s.counters.on_packet_calls += 1;
            if at_ms < s.quarter_ms {
                s.times.on_packet_first_quarter_ns += ns;
                s.times.on_packet_first_quarter_calls += 1;
            } else if at_ms >= s.sim_ms - s.quarter_ms {
                s.times.on_packet_last_quarter_ns += ns;
                s.times.on_packet_last_quarter_calls += 1;
            }
            s.last = end;
        });
        feedback
    }
}

/// Stamps the RAN tick and the backhaul walk, and counts per-subframe work.
struct LayerObserver;

impl Observer for LayerObserver {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        match event {
            SimEvent::SubframeScheduled { report, .. } => {
                let now = Instant::now();
                with(|s| {
                    s.times.tick_ns += elapsed_ns(s.last, now);
                    s.last = now;
                    let c = &mut s.counters;
                    c.ue_subframes += s.ues;
                    c.dci_messages += report.dci_messages.len() as u64;
                    c.deliveries += report.deliveries.len() as u64;
                    c.handovers += report.handovers.len() as u64;
                    c.ca_events += report.ca_events.len() as u64;
                });
            }
            SimEvent::BackhaulSampled { .. } => {
                let now = Instant::now();
                with(|s| {
                    s.times.backhaul_ns += elapsed_ns(s.last, now);
                    s.last = now;
                });
            }
            SimEvent::BackhaulMark { .. } => with(|s| s.counters.backhaul_marks += 1),
            SimEvent::BackhaulDrop { .. } => with(|s| s.counters.backhaul_drops += 1),
            _ => {}
        }
    }
}
