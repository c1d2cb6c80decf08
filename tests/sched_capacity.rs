//! Property-based differential test for the static capacity analyzer:
//! for generated diamond pipelines (a burst edge racing a trigger chain),
//! the `sched` prediction of minimal deadlock-free FIFO capacities must
//! be dynamically minimal on the real simulator. The dynamic directions
//! are oracle D3 (`appgen::oracle::check_capacity_arms`): every generated
//! application completes when built at the predicted sizes and wedges
//! when the burst edge is squeezed one slot below its prediction, with
//! the producer blocked on exactly the predicted link and the static
//! re-pass flagging it `SCH501`.

use std::collections::BTreeMap;

use appgen::oracle::{self, Target};
use proptest::prelude::*;

use p2012::PlatformConfig;

/// The diamond: `a` pushes `burst` tokens to `c`, *then* one trigger
/// token through a pass-through chain of `mids` filters; `c` reads the
/// trigger first, then the whole burst. The burst edge therefore needs
/// exactly `burst` slots (the trigger is only produced once the burst is
/// fully buffered), while every chain edge needs one. The controller
/// runs `rounds` steps.
struct Diamond {
    burst: u32,
    mids: u32,
    rounds: u64,
}

/// The producer endpoint of the burst edge.
const BURST_LABEL: &str = "a::burst";

impl Diamond {
    fn adl(&self) -> String {
        let mids = self.mids;
        let mut adl = String::from(
            "@Module composite Net {\n  contains as controller { source ctl.c; }\n  \
             contains A as a;\n",
        );
        for i in 0..mids {
            adl.push_str(&format!("  contains B{i} as b{i};\n"));
        }
        adl.push_str("  contains C as c;\n  binds a.burst to c.burst_in;\n");
        let mut from = String::from("a.trig");
        for i in 0..mids {
            adl.push_str(&format!("  binds {from} to b{i}.i;\n"));
            from = format!("b{i}.o");
        }
        adl.push_str(&format!("  binds {from} to c.from_b;\n"));
        adl.push_str(
            "}\n@Filter primitive A { source a.c; output U32 as burst; output U32 as trig; }\n",
        );
        for i in 0..mids {
            adl.push_str(&format!(
                "@Filter primitive B{i} {{ source b{i}.c; input U32 as i; output U32 as o; }}\n"
            ));
        }
        adl.push_str(
            "@Filter primitive C { source c.c; input U32 as burst_in; input U32 as from_b; }\n",
        );
        adl
    }
}

impl Target for Diamond {
    fn build(
        &self,
        caps: &BTreeMap<String, u32>,
    ) -> Result<(pedf::System, mind::CompiledApp), String> {
        let config = PlatformConfig {
            clusters: 2,
            pes_per_cluster: 4,
            ..PlatformConfig::default()
        };
        let (mut sys, app) = mind::build_with_caps(&self.adl(), &self.sources(), config, caps)
            .map_err(|e| e.to_string())?;
        let net = app.actor("net").ok_or("module net missing")?;
        sys.runtime.set_max_steps(net, self.rounds);
        Ok((sys, app))
    }

    fn sources(&self) -> mind::SourceRegistry {
        let mut ctl =
            String::from("void work() { while (pedf.run()) { pedf.step_begin(); pedf.fire(a); ");
        for i in 0..self.mids {
            ctl.push_str(&format!("pedf.fire(b{i}); "));
        }
        ctl.push_str("pedf.fire(c); pedf.wait_init(); pedf.wait_sync(); pedf.step_end(); } }");

        let mut a_src = String::from("void work() { ");
        for j in 0..self.burst {
            a_src.push_str(&format!("pedf.io.burst[{j}] = {}; ", j + 10));
        }
        a_src.push_str("pedf.io.trig[0] = 1; }");

        let mut c_src = String::from("void work() { U32 t = pedf.io.from_b[0]; U32 s = 0; ");
        for j in 0..self.burst {
            c_src.push_str(&format!("s = s + pedf.io.burst_in[{j}]; "));
        }
        c_src.push_str("pedf.print(t + s); }");

        let mut srcs = mind::SourceRegistry::new();
        srcs.add("ctl.c", &ctl);
        srcs.add("a.c", &a_src);
        srcs.add("c.c", &c_src);
        for i in 0..self.mids {
            srcs.add(
                &format!("b{i}.c"),
                "void work() { pedf.io.o[0] = pedf.io.i[0] + 1; }",
            );
        }
        srcs
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Both directions of the capacity prediction, on generated graphs:
    /// sufficient at the minimum, insufficient one below it.
    #[test]
    fn predicted_minimal_capacities_are_dynamically_minimal(
        burst in 1u32..5,
        mids in 0u32..3,
        rounds in 1u64..4,
    ) {
        let diamond = Diamond { burst, mids, rounds };
        let verdict = oracle::static_pass(&diamond).expect("build");
        let report = &verdict.sched;

        prop_assert!(!report.structural, "diamond is not structurally deadlocked");
        prop_assert!(report.inexact.is_empty(), "straight-line kernels trace exactly");
        let caps = report.min_caps_by_label(&verdict.app.graph);
        // Static prediction: the burst edge needs `burst` slots, every
        // chain edge exactly one.
        prop_assert_eq!(caps.get(BURST_LABEL).copied(), Some(burst));
        for (label, &cap) in &caps {
            if label != BURST_LABEL {
                prop_assert_eq!(cap, 1, "chain edge {} oversized", label);
            }
        }
        // The as-built graph (default capacity 64) must carry no SCH501.
        prop_assert!(
            !verdict.has(sched::rules::CAPACITY_BELOW_MIN),
            "spurious SCH501 on an adequately sized build"
        );

        // Both dynamic directions through D3: the predicted minimum
        // completes; the burst edge one slot below wedges, blamed on it
        // (the floor is skipped: capacity zero is rejected).
        let check = oracle::check_capacity_arms(&diamond, &verdict)
            .unwrap_or_else(|d| panic!("{d}"))
            .expect("the capacity model covers the diamond");
        let squeezed: Vec<(&str, u32)> =
            check.squeezed.iter().map(|(l, c, _)| (l.as_str(), *c)).collect();
        let expect = if burst >= 2 { vec![(BURST_LABEL, burst - 1)] } else { vec![] };
        prop_assert_eq!(squeezed, expect);
    }
}
