#![forbid(unsafe_code)]
//! Table 1 demonstration: the four canonical DRAMmalloc layouts, showing
//! the node placement each translation descriptor produces.
//!
//! `cargo run --release -p bench --bin table1_layouts [--topology uniform] [--sanitize] [--race] [--spec]`

use bench::{Cli, Gates};
use drammalloc::{dram_malloc_layout, Layout};
use updown_sim::{Engine, MachineConfig, VAddr};

fn show(eng: &Engine, name: &str, base: VAddr, probes: &[u64]) {
    let d = eng.mem().descriptor(base).unwrap();
    print!("{name:<44} blocks ->");
    for &off in probes {
        print!(" {}", d.pnn(VAddr(base.0 + off * d.block_size)));
    }
    println!();
}

fn main() {
    println!("Table 1 reproduction — DRAMmalloc layouts (16-node machine, scaled)\n");
    let cli = Cli::parse();
    let mut gates = Gates::from_cli(&cli);
    let mut cfg = MachineConfig::small(16, 1, 1);
    cfg.net.topology = bench::cli::parse_topology(&cli);
    // This binary drives ad-hoc layout handlers with no declared protocol;
    // an empty spec keeps --spec accepted (and vacuously clean) here.
    gates.arm("layouts", &updown_sim::ProgramSpec::new(), &mut cfg);
    cli.reject_unknown();
    let mut eng = Engine::new(cfg);

    let a = dram_malloc_layout(&mut eng, 64 * 4096, Layout::cyclic(16)).unwrap();
    show(&eng, "(., 0, 16, 4KB)  cyclic over machine", a, &(0..20).collect::<Vec<_>>());

    let b = dram_malloc_layout(&mut eng, 32 * 4096, Layout::cyclic_bs(4, 4096)).unwrap();
    show(&eng, "(., 0, 4, 4KB)   cyclic over first 4 nodes", b, &(0..12).collect::<Vec<_>>());

    let size = 8 * 65536u64;
    let c = dram_malloc_layout(&mut eng, size, Layout::contiguous_per_node(size, 8)).unwrap();
    show(&eng, "(512KB, 0, 8, 64KB) contiguous per node", c, &(0..8).collect::<Vec<_>>());

    let d = dram_malloc_layout(&mut eng, 32 * 8192, Layout::window(4, 8, 8192)).unwrap();
    show(&eng, "(., 4, 8, 8KB)   cyclic across middle 8 nodes", d, &(0..16).collect::<Vec<_>>());

    println!("\n(each number is the physical node owning consecutive blocks of the");
    println!(" virtual region — one translation descriptor per allocation)");
    gates.exit_if_dirty();
}
