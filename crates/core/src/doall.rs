//! `do_all`: the 33-LoC convenience from Table 5 — a map-only KVMSR over a
//! key range, used by most workflow kernels in Table 3 ("doAll using
//! kvmap").

use udweave::LaneSet;
use updown_sim::{Engine, EventCtx};

use crate::runtime::{JobSpec, Kvmsr};
use crate::task::{JobId, Outcome};

/// Define a do_all job: `f(ctx, key, user_arg)` runs once per key with
/// Block binding; completion is signalled to the start continuation.
pub fn define_do_all(
    eng: &mut Engine,
    rt: &Kvmsr,
    name: &str,
    set: LaneSet,
    f: impl Fn(&mut EventCtx<'_>, u64, u64) + Send + Sync + 'static,
) -> JobId {
    let spec = JobSpec::new(name, set, move |ctx, task, _rt| {
        f(ctx, task.key, task.arg);
        Outcome::Done
    });
    rt.define_job(eng, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::sync::Arc;
    use udweave::simple_event;
    use updown_sim::{EventWord, MachineConfig, NetworkId};

    #[test]
    fn do_all_runs_per_key() {
        let mut eng = Engine::new(MachineConfig::small(1, 2, 4));
        let rt = Kvmsr::install(&mut eng);
        let acc: Arc<Mutex<u64>> = Arc::default();
        let acc2 = acc.clone();
        let set = LaneSet::new(NetworkId(0), 8);
        let job = define_do_all(&mut eng, &rt, "sum", set, move |ctx, key, arg| {
            *acc2.lock().unwrap() += key * arg;
            ctx.charge(2);
        });
        let done = simple_event(&mut eng, "done", |ctx| ctx.stop());
        let (evw, args) = rt.start_msg(&eng, job, 100, 3);
        eng.send(evw, args, EventWord::new(NetworkId(0), done));
        eng.run();
        assert_eq!(*acc.lock().unwrap(), (0..100u64).sum::<u64>() * 3);
    }
}
