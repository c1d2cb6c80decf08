//! Property-based tests over the full stack: generated pipelines and
//! random parameters, checking the invariants the debugger relies on.

use proptest::prelude::*;

use dfdbg::{Session, Stop};
use h264_pipeline::{build_decoder, golden, Bug};
use p2012::PlatformConfig;

/// Build a linear pipeline of `stages` add-constant filters from a
/// generated ADL string, run `n` tokens through it, and return the sink
/// tail.
fn run_chain(stages: u32, addends: &[u32], inputs: &[u32]) -> Vec<u32> {
    assert_eq!(stages as usize, addends.len());
    let mut adl = String::from(
        "@Module composite Chain {\n  contains as controller { source c.c; }\n  \
         input U32 as c_in;\n  output U32 as c_out;\n",
    );
    for (i, _) in addends.iter().enumerate() {
        adl.push_str(&format!("  contains F{i} as f{i};\n"));
    }
    adl.push_str("  binds this.c_in to f0.i;\n");
    for i in 1..stages {
        adl.push_str(&format!("  binds f{}.o to f{}.i;\n", i - 1, i));
    }
    adl.push_str(&format!("  binds f{}.o to this.c_out;\n}}\n", stages - 1));
    let mut ctrl = String::from("void work() { while (pedf.run()) { pedf.step_begin(); ");
    for i in 0..stages {
        ctrl.push_str(&format!("pedf.fire(f{i}); "));
    }
    ctrl.push_str("pedf.wait_init(); pedf.wait_sync(); pedf.step_end(); } }");

    let mut srcs = mind::SourceRegistry::new();
    srcs.add("c.c", &ctrl);
    for (i, k) in addends.iter().enumerate() {
        adl.push_str(&format!(
            "@Filter primitive F{i} {{ source f{i}.c; \
             input U32 as i; output U32 as o; }}\n"
        ));
        srcs.add(
            &format!("f{i}.c"),
            &format!("void work() {{ pedf.io.o[0] = pedf.io.i[0] + {k}; }}"),
        );
    }

    // Wider platform so up to 8 filters + controller fit.
    let config = PlatformConfig {
        clusters: 2,
        pes_per_cluster: 6,
        ..PlatformConfig::default()
    };
    let (mut sys, app) = mind::build(&adl, &srcs, config).expect("build");
    let module = app.actor("chain").unwrap();
    sys.runtime.set_max_steps(module, inputs.len() as u64);
    sys.boot(app.boot_entry).unwrap();
    sys.runtime
        .add_source(
            pedf::EnvSource::new(
                app.boundary_in["c_in"],
                1,
                pedf::ValueGen::Cycle {
                    values: inputs.to_vec(),
                    pos: 0,
                },
            )
            .with_limit(inputs.len() as u64),
        )
        .unwrap();
    sys.runtime
        .add_sink(pedf::EnvSink::new(app.boundary_out["c_out"], 1))
        .unwrap();
    assert!(sys.run_to_quiescence(2_000_000), "chain did not finish");
    assert_eq!(sys.first_fault(), None);
    sys.runtime
        .sink_for(app.boundary_out["c_out"])
        .unwrap()
        .tail
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A generated N-stage pipeline computes the composed function, for
    /// any stage constants and inputs.
    #[test]
    fn generated_pipelines_compute_the_composition(
        addends in prop::collection::vec(0u32..1000, 1..6),
        inputs in prop::collection::vec(0u32..100_000, 1..5),
    ) {
        let out = run_chain(addends.len() as u32, &addends, &inputs);
        let total: u32 = addends.iter().sum();
        let expect: Vec<u32> =
            inputs.iter().map(|v| v.wrapping_add(total)).collect();
        prop_assert_eq!(out, expect);
    }

    /// The decoder output matches the golden model for arbitrary seeds and
    /// lengths (end-to-end compiler + runtime + platform correctness).
    #[test]
    fn decoder_matches_golden_for_any_seed(
        seed in any::<u32>(),
        n in 1u32..12,
    ) {
        let r = h264_pipeline::run_decoder(
            Bug::None, u64::from(n), seed, 20_000_000,
        ).unwrap();
        prop_assert!(r.finished);
        prop_assert_eq!(r.frames, golden::decode_stream(n, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Debugger-model/runtime agreement: after stopping at an arbitrary
    /// cycle, the debugger's reconstructed link occupancies equal the
    /// runtime's FIFO occupancies, for every link. (Transient divergence
    /// is only permitted while a consumer is mid-blocked-pop; quiescent
    /// points and catchpoint stops are exact.)
    #[test]
    fn model_occupancy_matches_runtime_at_stops(
        seed in any::<u32>(),
        n in 2u32..8,
    ) {
        let (sys, app) = build_decoder(
            Bug::None, u64::from(n), PlatformConfig::default(),
        ).unwrap();
        let boot = app.boot_entry;
        let mut s = Session::attach(sys, app.info);
        s.boot(boot).unwrap();
        s.sys.runtime.add_source(
            pedf::EnvSource::new(
                app.boundary_in["bits_in"], 2,
                pedf::ValueGen::Lcg { state: seed },
            ).with_limit(u64::from(n)),
        ).unwrap();
        s.sys.runtime.add_source(
            pedf::EnvSource::new(
                app.boundary_in["cfg_in"], 2,
                pedf::ValueGen::Counter { next: 0, step: 1 },
            ).with_limit(u64::from(n)),
        ).unwrap();
        s.sys.runtime.add_sink(
            pedf::EnvSink::new(app.boundary_out["frame_out"], 1),
        ).unwrap();
        loop {
            match s.run(10_000_000) {
                Stop::Quiescent => break,
                Stop::CycleLimit => prop_assert!(false, "stuck"),
                _ => {}
            }
        }
        for (i, link) in s.model.graph.links.iter().enumerate() {
            let model = s.model.occupancy(link.id);
            let runtime = s.sys.runtime.occupancy(link.id) as usize;
            prop_assert_eq!(
                model, runtime,
                "link {} ({})", i, s.model.graph.link_label(link.id)
            );
        }
        // Token counters agree too.
        for link in &s.model.graph.links {
            let (pushed, popped) = s.sys.runtime.counters(link.id);
            let dl = &s.model.links[link.id.0 as usize];
            prop_assert_eq!(dl.pushed, pushed);
            prop_assert_eq!(dl.popped, popped);
        }
    }

    /// Time travel is invisible to the execution: `forward(n)` reaches the
    /// same state (by full state hash) as `forward(n); reverse(k);
    /// forward(k)`, for arbitrary run lengths, rewind distances and
    /// checkpoint intervals.
    #[test]
    fn reverse_then_forward_replays_to_the_identical_state(
        seed in any::<u32>(),
        n in 50u64..2_000,
        k_pct in 0u64..101,
        interval_sel in 0u64..3,
    ) {
        let interval = [100u64, 300, 1_000][interval_sel as usize];
        let (sys, app) = build_decoder(
            Bug::None, 6, PlatformConfig::default(),
        ).unwrap();
        let boot = app.boot_entry;
        let mut s = Session::attach(sys, app.info);
        s.boot(boot).unwrap();
        s.sys.runtime.add_source(
            pedf::EnvSource::new(
                app.boundary_in["bits_in"], 2,
                pedf::ValueGen::Lcg { state: seed },
            ).with_limit(6),
        ).unwrap();
        s.sys.runtime.add_source(
            pedf::EnvSource::new(
                app.boundary_in["cfg_in"], 2,
                pedf::ValueGen::Counter { next: 0, step: 1 },
            ).with_limit(6),
        ).unwrap();
        s.sys.runtime.add_sink(
            pedf::EnvSink::new(app.boundary_out["frame_out"], 1),
        ).unwrap();
        s.enable_time_travel(interval);

        // forward(n)
        let target = s.sys.clock() + n;
        while s.sys.clock() < target {
            s.run(target - s.sys.clock());
        }
        let hash_n = s.state_hash();

        // reverse(k): land k cycles back, then forward(k) again.
        let k = n * k_pct / 100;
        s.goto_cycle(target - k).unwrap();
        prop_assert_eq!(s.sys.clock(), target - k);
        while s.sys.clock() < target {
            s.run(target - s.sys.clock());
        }
        prop_assert_eq!(s.sys.clock(), target);
        prop_assert_eq!(s.state_hash(), hash_n, "replay must be bit-exact");

        // The same two legs through `goto_cycle`: back k, then forward to
        // `target`, which may restore a checkpoint later than `target - k`.
        s.goto_cycle(target - k).unwrap();
        s.goto_cycle(target).unwrap();
        prop_assert_eq!(s.sys.clock(), target);
        prop_assert_eq!(s.state_hash(), hash_n, "goto must be bit-exact");
        prop_assert!(
            s.replay_findings().is_empty(),
            "{:?}", s.replay_findings()
        );
    }
}
