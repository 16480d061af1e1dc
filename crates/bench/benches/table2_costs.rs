//! Host cost of simulating Table 2's lane operations (the simulator's own
//! speed). The simulated cycle costs themselves are asserted by the engine
//! test `engine::tests::lane_operations_charge_table_2`.

use bench::timing::bench_host;
use std::sync::Arc;
use updown_sim::{Engine, EventCtx, EventWord, MachineConfig, NetworkId};

/// Simulated busy-cycles of one event whose body is `f`.
fn event_cost(f: impl Fn(&mut EventCtx<'_>) + Send + Sync + 'static) -> u64 {
    let mut eng = Engine::new(MachineConfig::small(1, 1, 2));
    eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
    let l = eng.register("probe", Arc::new(f));
    eng.send(EventWord::new(NetworkId(0), l), [], EventWord::IGNORE);
    eng.run().total_busy
}

/// One engine per Table 2 operation: an empty event, `yield_terminate`,
/// and a scratchpad store and load.
fn table2_probes() -> u64 {
    event_cost(|_ctx| {})
        + event_cost(|ctx| ctx.yield_terminate())
        + event_cost(|ctx| {
            ctx.spm_write(0, 7);
            let _ = ctx.spm_read(0);
        })
}

fn main() {
    // Host-side throughput of simulating a self-sending event chain.
    bench_host("engine_event_chain_1000", 20, || {
        let mut eng = Engine::new(MachineConfig::small(1, 1, 2));
        let l = eng.register(
            "spin",
            Arc::new(|ctx: &mut EventCtx| {
                if ctx.arg(0) < 1000 {
                    let me = ctx.cur_evw();
                    let n = ctx.arg(0) + 1;
                    ctx.send_event(me, [n], EventWord::IGNORE);
                } else {
                    ctx.yield_terminate();
                }
            }),
        );
        eng.send(EventWord::new(NetworkId(0), l), [0], EventWord::IGNORE);
        eng.run().stats.events_executed
    });

    // Engine setup + run of the Table 2 probes.
    bench_host("table2_probe", 20, table2_probes);
}
