//! Solver-as-a-service in-process: drive the persistent multi-tenant
//! service through its JSON-lines protocol, watch the cross-session cache
//! turn repeat preprocessing into hits and repeat assembly into uploads of
//! the operators, and read per-tenant roll-ups.
//!
//! The same service speaks the identical protocol over a pipe or TCP via
//! the `sc_serve` binary (`cargo run -p sc_serve --release`); this example
//! uses the in-process [`ServeHandle`] so the outcomes (λ, per-subdomain u)
//! stay retrievable.
//!
//! Run with: `cargo run --release --example serve`

use schur_dd::prelude::*;

fn main() {
    let mut svc = ServeHandle::new(ServeOptions::default());

    // two tenants submit jobs over the same mesh: the first job pays
    // preprocessing (symbolic + numeric factorization of every subdomain)
    // and the assembly of every F̃ᵢ; every later job on the mesh hits the
    // cache and reuses the assembled operators at either precision,
    // billing only their uploads to the devices
    let jobs = [
        ("acme", "nightly-1", "f64"),
        ("acme", "nightly-2", "f64"),
        ("zeus", "explore-1", "f64"),
        ("zeus", "explore-2", "f32_refined"),
        ("zeus", "explore-3", "f32_refined"),
    ];
    for (tenant, job, precision) in jobs {
        let line = format!(
            "{{\"op\":\"solve\",\"tenant\":\"{tenant}\",\"job\":\"{job}\",\
             \"dim\":2,\"cells\":8,\"subs\":[2,2],\"backend\":\"cluster\",\
             \"precision\":\"{precision}\"}}"
        );
        for reply in svc.request(&line) {
            println!("<- {reply}");
        }
    }
    for reply in svc.request("{\"op\":\"run\"}") {
        println!("<- {reply}");
    }

    // malformed intake is a structured protocol error, never a crash
    for reply in svc.request("{\"op\":\"solve\",\"tenant\":") {
        println!("<- {reply}");
    }

    println!();
    let mut assembled = 0;
    for (tenant, job, precision) in jobs {
        let out = svc.take_outcome(tenant, job).expect("job ran");
        assembled += usize::from(!out.reused_operators);
        println!(
            "{tenant}/{job} ({precision}): cache {} | operators {} | preprocessing {:.3} ms | \
             device {:.4} ms | {} PCPG iters",
            if out.cache_hit { "hit " } else { "miss" },
            if out.reused_operators {
                "reused (upload only)"
            } else {
                "assembled"
            },
            out.prep_s * 1e3,
            out.device_s * 1e3,
            out.iterations.unwrap_or(0),
        );
    }
    assert_eq!(assembled, 1, "one assembly, uploads after");

    let cache = svc.cache_stats();
    println!(
        "\ncache: {} hits / {} misses, {} entr{} resident ({} KiB of {} MiB budget)",
        cache.hits,
        cache.misses,
        cache.entries,
        if cache.entries == 1 { "y" } else { "ies" },
        cache.bytes >> 10,
        cache.budget_bytes >> 20,
    );
    for (tenant, stats) in svc.tenant_stats() {
        println!(
            "tenant {tenant}: {} done, {:.3} ms device, hit ratio {:.2}",
            stats.jobs_done,
            stats.device_s * 1e3,
            stats.hit_ratio(),
        );
    }
}
