//! The Figure 1 service layers in one composition: an RPC time service
//! with synchronized clocks over an encrypted, membership-managed group.
//!
//! Stack: `RPC : CLOCKSYNC : SECURE : MBRSHIP : FRAG : NAK : COM`.
//! Three members with skewed local clocks form a secure group; clients
//! RPC the senior member for the time; CLOCKSYNC lets each member check
//! the answer against its own corrected clock.
//!
//! ```text
//! cargo run --example rpc_time_service
//! ```

use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::SimWorld;
use horus_layers::services::ClockSync;
use horus_net::NetConfig;
use std::time::Duration;

fn main() -> Result<(), HorusError> {
    let group = GroupAddr::new(1);
    let skews_us: [i64; 3] = [0, 8_000, -4_000]; // simulated clock drift
    let mut world = SimWorld::new(11, NetConfig::reliable());
    for (i, skew) in (1..=3u64).zip(skews_us) {
        let desc = format!(
            "RPC:CLOCKSYNC(skew_us={skew}):SECURE(master=48879):MBRSHIP:FRAG:NAK:COM(promiscuous=true)"
        );
        let stack = build_stack(EndpointAddr::new(i), &desc, StackConfig::default())?;
        world.add_endpoint(stack);
        world.join(EndpointAddr::new(i), group);
    }
    for i in 2..=3 {
        world.down(EndpointAddr::new(i), Down::Merge { contact: EndpointAddr::new(1) });
    }
    world.run_for(Duration::from_secs(2));
    println!(
        "secure group formed: {}",
        world.installed_views(EndpointAddr::new(1)).last().expect("view")
    );

    // Client ep3 asks the time server (ep1, the senior member) via RPC.
    let mut req = world.stack(EndpointAddr::new(3)).unwrap().new_message(&b"time?"[..]);
    req.meta.set_rpc(Some((0, false)));
    world.down(EndpointAddr::new(3), Down::Send { dests: vec![EndpointAddr::new(1)], msg: req });
    world.run_for(Duration::from_millis(50));

    // The "server application": answer every pending request with the
    // master's local clock.
    let pending: Vec<(EndpointAddr, u64)> = world
        .upcalls(EndpointAddr::new(1))
        .iter()
        .filter_map(|(_, up)| match up {
            Up::Send { src, msg } => {
                msg.meta.rpc().and_then(|(id, is_reply)| (!is_reply).then_some((*src, id)))
            }
            _ => None,
        })
        .collect();
    println!("server saw {} request(s)", pending.len());
    let server_now = world.now().as_micros();
    let captured_at = world.now();
    for (client, id) in pending {
        let mut rsp = world
            .stack(EndpointAddr::new(1))
            .unwrap()
            .new_message(format!("{server_now}").into_bytes());
        rsp.meta.set_rpc(Some((id, true)));
        world.down(EndpointAddr::new(1), Down::Send { dests: vec![client], msg: rsp });
    }
    world.run_for(Duration::from_millis(100));

    // Client got the reply; its CLOCKSYNC-corrected clock should agree
    // with the server's answer to within the RTT.
    let reply: String = world
        .upcalls(EndpointAddr::new(3))
        .iter()
        .filter_map(|(_, up)| match up {
            Up::Send { msg, .. } if matches!(msg.meta.rpc(), Some((_, true))) => {
                Some(String::from_utf8_lossy(msg.body()).to_string())
            }
            _ => None,
        })
        .next()
        .expect("RPC reply");
    let server_time: i64 = reply.parse().expect("numeric reply");
    let cs: &ClockSync =
        world.stack(EndpointAddr::new(3)).unwrap().focus_as("CLOCKSYNC").expect("clocksync layer");
    let corrected = cs.corrected_clock_us(world.now());
    // The world ran on after the server answered; account for the elapsed
    // virtual time when comparing.
    let elapsed = world.now().saturating_since(captured_at).as_micros() as i64;
    println!("server said {server_time} µs (then {elapsed} µs passed);");
    println!("client's corrected clock now reads {corrected} µs");
    println!(
        "client raw skew was {} µs; estimated offset {} µs",
        skews_us[2],
        cs.estimated_offset_us().unwrap_or(0)
    );
    assert!((corrected - server_time - elapsed).abs() < 1_000, "clocks agree to within ~RTT");
    println!("\nRPC + CLOCKSYNC + SECURE composed over the membership stack ✓");
    Ok(())
}
