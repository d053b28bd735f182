//! Fuzz the whole pipeline with generated routines: every generated routine
//! must compile, allocate under several targets, and compute the same
//! checksum through physical registers as through virtual registers.

use optimist::ir::Module;
use optimist::machine::Target;
use optimist::prelude::*;
use optimist::regalloc::CoalesceMode;
use optimist::sim::AllocatedModule;
use optimist::workloads::{generate_routine, giant_kernel, GenConfig, GiantConfig};
use optimist::{allocate_module, regalloc::AllocatorConfig, regalloc::Strategy};

/// Every strategy, plus Briggs with conservative coalescing.
fn every_strategy(target: &Target) -> Vec<AllocatorConfig> {
    let mut configs: Vec<AllocatorConfig> = [
        Strategy::Chaitin,
        Strategy::Briggs,
        Strategy::Irc,
        Strategy::Ssa,
    ]
    .map(|s| AllocatorConfig::new(target.clone(), s))
    .into();
    configs.push(
        AllocatorConfig::new(target.clone(), Strategy::Briggs)
            .with_coalesce(CoalesceMode::Conservative),
    );
    configs
}

/// Allocate `module` under each config and check that calling `entry`
/// with `(5, 3)` returns what the virtual-register run returns. `src` is
/// printed with any failure.
fn check_module(label: &str, src: &str, module: &Module, entry: &str, configs: &[AllocatorConfig]) {
    optimist::ir::verify_module(module).unwrap_or_else(|e| panic!("{label}: {e}\n{src}"));

    let opts = ExecOptions::default();
    let args = [Scalar::Int(5), Scalar::Int(3)];
    let reference = run_virtual(module, entry, &args, &opts)
        .unwrap_or_else(|e| panic!("{label}: virtual trap {e}\n{src}"));

    for alloc_cfg in configs {
        let target = &alloc_cfg.target;
        let which = format!(
            "{label} {}/{:?}/{:?}",
            target.name(),
            alloc_cfg.strategy,
            alloc_cfg.coalesce
        );
        let allocs =
            allocate_module(module, alloc_cfg).unwrap_or_else(|e| panic!("{which}: {e}\n{src}"));
        let am = AllocatedModule::new(module, &allocs, target);
        let run = run_allocated(&am, entry, &args, &opts)
            .unwrap_or_else(|e| panic!("{which}: trap {e}\n{src}"));
        assert_eq!(
            run.ret, reference.ret,
            "{which}: allocated run diverged\n{src}"
        );
    }
}

fn compile_seed(seed: u64, cfg: &GenConfig) -> (Module, String) {
    let src = generate_routine("FUZZ", seed, cfg);
    let module =
        optimist::frontend::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    (module, src)
}

fn check_seed(seed: u64, cfg: &GenConfig, targets: &[Target]) {
    let (module, src) = compile_seed(seed, cfg);
    for target in targets {
        let configs =
            [Strategy::Chaitin, Strategy::Briggs].map(|s| AllocatorConfig::new(target.clone(), s));
        check_module(&format!("seed {seed}"), &src, &module, "FUZZ", &configs);
    }
}

#[test]
fn fuzz_default_shapes() {
    let cfg = GenConfig::default();
    let targets = [Target::rt_pc(), Target::with_int_regs(6)];
    for seed in 0..40 {
        check_seed(seed, &cfg, &targets);
    }
}

#[test]
fn fuzz_deep_nesting() {
    let cfg = GenConfig {
        max_depth: 4,
        stmts_per_block: 4,
        ..GenConfig::default()
    };
    let targets = [Target::with_int_regs(4)];
    for seed in 100..120 {
        check_seed(seed, &cfg, &targets);
    }
}

#[test]
fn fuzz_many_variables_under_tiny_files() {
    // Lots of scalars + a tiny register file forces spilling constantly;
    // the allocated runs must still agree with the reference.
    let cfg = GenConfig {
        int_vars: 10,
        real_vars: 10,
        stmts_per_block: 8,
        ..GenConfig::default()
    };
    let targets = [Target::custom("tiny", 4, 3)];
    for seed in 200..220 {
        check_seed(seed, &cfg, &targets);
    }
}

/// Optimise generator seeds 0..60 and check them under `configs`.
///
/// The optimizer leaves parameters unused; the calling convention still
/// writes every parameter register on entry, so a dead parameter must not
/// share a register with a live one.
fn check_optimised(configs: &[AllocatorConfig]) {
    let cfg = GenConfig::default();
    for seed in 0..60 {
        let (mut module, src) = compile_seed(seed, &cfg);
        optimist::opt::optimize_module(&mut module);
        check_module(
            &format!("optimised seed {seed}"),
            &src,
            &module,
            "FUZZ",
            configs,
        );
    }
}

#[test]
fn fuzz_optimised_routines() {
    let mut configs = every_strategy(&Target::rt_pc());
    configs.retain(|c| c.strategy != Strategy::Irc);
    check_optimised(&configs);
}

/// IRC on its own: it is the slowest strategy here, so it runs beside
/// the others instead of after them.
#[test]
fn fuzz_optimised_routines_irc() {
    check_optimised(&[AllocatorConfig::new(Target::rt_pc(), Strategy::Irc)]);
}

#[test]
fn giant_kernels_allocate_correctly() {
    // Hundreds of blocks with every accumulator live across the body: far
    // larger than any corpus routine.
    let configs = every_strategy(&Target::rt_pc());
    for seed in [7, 8] {
        let src = giant_kernel("GIANT", seed, &GiantConfig::small());
        let module =
            optimist::frontend::compile(&src).unwrap_or_else(|e| panic!("giant seed {seed}: {e}"));
        let blocks = module.functions()[0].num_blocks();
        assert!(blocks >= 80, "synthesizer lost its bulk: {blocks} blocks");
        check_module(
            &format!("giant seed {seed}"),
            "",
            &module,
            "GIANT",
            &configs,
        );
    }
}
