//! Figure 2 of the paper, replayed exactly.
//!
//! "This picture shows four processes: A, B, C, and D.  D crashes right
//! after sending a message M, and only C received a copy.  After the crash
//! is detected, A starts the flush protocol by multicasting to B and C.
//! C sends a copy of M to A, which forwards it to B.  After A has received
//! replies from everyone, it installs a new view by multicasting."
//!
//! ```text
//! cargo run --example flush_scenario
//! ```

use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::SimWorld;
use horus_net::NetConfig;
use std::time::Duration;

fn main() -> Result<(), HorusError> {
    let group = GroupAddr::new(1);
    let (a, b, c, d) =
        (EndpointAddr::new(1), EndpointAddr::new(2), EndpointAddr::new(3), EndpointAddr::new(4));
    let mut world = SimWorld::new(7, NetConfig::reliable());
    for &ep in &[a, b, c, d] {
        let stack =
            build_stack(ep, "MBRSHIP:FRAG:NAK:COM(promiscuous=true)", StackConfig::default())?;
        world.add_endpoint(stack);
        world.join(ep, group);
    }
    for &ep in &[b, c, d] {
        world.down(ep, Down::Merge { contact: a });
    }
    world.run_for(Duration::from_secs(2));
    println!("group formed: {}", world.installed_views(a).last().expect("view"));

    // The Figure 2 moment: isolate D with C (so only C gets M), let D
    // cast M, crash D, heal.
    let t = world.now();
    println!("\n[t+1ms]  network hiccup: D can reach only C");
    world.partition_at(t + Duration::from_millis(1), &[&[a, b], &[c, d]]);
    println!("[t+2ms]  D casts M");
    world.cast_bytes_at(t + Duration::from_millis(2), d, &b"M: D's last words"[..]);
    println!("[t+5ms]  D crashes");
    world.crash_at(t + Duration::from_millis(5), d);
    println!("[t+8ms]  the hiccup heals; the flush protocol takes over\n");
    world.heal_at(t + Duration::from_millis(8));
    world.run_for(Duration::from_secs(3));

    for (&ep, name) in [a, b, c].iter().zip(["A", "B", "C"]) {
        let got = world.delivered_casts(ep);
        let m: Vec<_> = got.iter().filter(|(s, _, _)| *s == d).collect();
        let recovered = world
            .upcalls(ep)
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Cast { src, msg } if *src == d => Some(msg.meta.flush_recovered()),
                _ => None,
            })
            .next()
            .unwrap_or(false);
        println!(
            "{name} delivered M {} time(s){}",
            m.len(),
            if recovered { " — recovered by the flush, not received from D" } else { "" }
        );
        assert_eq!(m.len(), 1, "virtual synchrony: M reaches every survivor");
    }
    let final_view = world.installed_views(a).last().expect("final view").clone();
    println!("\nnew view installed: {final_view}");
    assert_eq!(final_view.members(), &[a, b, c]);
    println!("Figure 2 reproduced: the crash is indistinguishable from a clean fail-stop ✓");
    Ok(())
}
